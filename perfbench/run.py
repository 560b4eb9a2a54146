"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload sparse-evolve --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; ontoca is imported from `src/` there.
Every measurement happens in a fresh worker process (worker.py).

--trace 0 (plain run): four job workers run one after another, each for a
quarter of --seconds, pinned to the allowed CPUs in turn, and each preceded
by a set-up-only worker.  Prints the
end-to-end metrics over the pooled jobs.

--trace 1 (traced run): one plain worker and one traced worker run the same
fixed number of jobs (inputs.TRACE_JOBS).  Prints the per-layer metrics,
which are totals over those jobs, and the tracing overhead.  Spans and the
per-job layer table go to .perfbench_out/.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A failed job (non-zero exit, an artifact that differs
from the reference, a broken composition law) counts in `failed` and never
drops out of the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
# A plain run splits its --seconds over this many job workers, run one after
# another and pinned to the allowed CPUs in turn.  Other tenants load the
# host's CPUs unevenly and a worker mostly stays on the CPU it starts on, so
# one unpinned worker's speed depends on where it lands; pinning the workers
# round-robin gives every run the same mix.
JOB_WORKERS = 4
WORKER_JOB_STRIDE = 100_000  # job indices of worker k start at k * stride
RUN_TIMEOUT_S = 170.0  # a worker still running this long after start-up is killed
STARTED = time.monotonic()

# Tail percentile per workload: the highest percentile with about ten jobs
# beyond it in a 25 s run on a slow 2-CPU host (24 to 41, 33 to 62, 16 to 25
# and 14 to 20 jobs).  Fixed, so that a commit with more jobs per run is
# compared at the same percentile.  spin-perm and lattice-gup jobs are too
# long for a tail beyond the median within one run.
TAIL_PERCENTILE = {"sparse-evolve": 60, "bigint-transfer": 75, "spin-perm": 50, "lattice-gup": 50}

END_TO_END_UNITS = {"setup_s": "s", "job_p50_s": "s", "job_tail_s": "s",
                    "jobs_per_s": "1/s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, work: Path, tag: str, cpu=None,
          **options) -> tuple[dict, float]:
    """Run one worker to completion, pinned to `cpu` if given; returns its
    result and peak RSS in MB."""
    result_path = work / f"{tag}.result.json"
    err_path = work / f"{tag}.stderr"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("ONTOCA_LOG", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--root", str(ROOT), "--work", str(work), "--result", str(result_path)]
    for key, value in options.items():
        if value is not None:
            cmd += [f"--{key.replace('_', '-')}", str(value)]
    with open(err_path, "w") as err:
        cmd += ["--spawn-ns", str(time.monotonic_ns())]
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=work, env=env)
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > STARTED + RUN_TIMEOUT_S:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise WorkerFailed(f"run exceeded {RUN_TIMEOUT_S:.0f} s in a {mode} worker")
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text()[-2000:]
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024.0


def percentile(values, p: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _failures(jobs) -> int:
    return sum(1 for job in jobs if job["failures"])


def _report_failures(jobs):
    for k, job in enumerate(jobs):
        for failure in job["failures"][:3]:
            print(f"job {k} FAILED: {failure}", file=sys.stderr)


def _recorded(seed: int):
    """Digests recorded at the default seed, when this run uses that seed."""
    return EXPECTED if seed == DEFAULT_SEED and EXPECTED.is_file() else None


def plain_run(args, work: Path):
    cpus = sorted(os.sched_getaffinity(0))
    setups, jobs, rss = [], [], []
    for k in range(JOB_WORKERS):
        cpu = cpus[k % len(cpus)]
        setups.append(spawn(args.workload, args.seed, "setup", work, f"setup{k}",
                            cpu=cpu)[0]["setup_s"])
        result, rss_mb = spawn(args.workload, args.seed, "plain", work, f"plain{k}", cpu=cpu,
                               seconds=args.seconds / JOB_WORKERS,
                               first_job=k * WORKER_JOB_STRIDE, recorded=_recorded(args.seed))
        setups.append(result["setup_s"])
        jobs += result["jobs"]
        rss.append(rss_mb)
    walls = [job["wall_s"] for job in jobs]
    failed = _failures(jobs)
    _report_failures(jobs)
    tail_p = TAIL_PERCENTILE[args.workload]
    tail = percentile(walls, tail_p)
    beyond = sum(1 for w in walls if w > tail)
    values = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail,
        "jobs_per_s": len(walls) / sum(walls),
        "peak_rss_mb": max(rss),
    }
    notes = {
        "setup_s": f"median of {len(setups)} worker spawns",
        "job_p50_s": f"{len(walls)} jobs",
        "job_tail_s": f"p{tail_p} of {len(walls)} jobs, {beyond} beyond it",
        "jobs_per_s": f"{len(walls)} jobs / {sum(walls):.2f} s of job time",
        "peak_rss_mb": f"largest ru_maxrss of {len(rss)} job workers",
    }
    print(f"{args.workload} seed={args.seed} plain run, closed loop, 1 client, "
          f"{args.seconds:g} s:")
    for name, value in values.items():
        print(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]:<4} ({notes[name]})")
    print(f"  {'failed_frac':<12} {failed / len(jobs):12.6g} {'':<4} "
          f"({failed} of {len(jobs)} jobs)")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return len(jobs), failed, True, metrics


def traced_run(args, work: Path):
    n_jobs = inputs.TRACE_JOBS[args.workload]
    recorded = _recorded(args.seed)
    plain, _ = spawn(args.workload, args.seed, "plain", work, "plain", jobs=n_jobs,
                     recorded=recorded)
    traced, _ = spawn(args.workload, args.seed, "traced", work, "traced", jobs=n_jobs,
                      recorded=recorded)
    jobs = traced["jobs"]
    failed = _failures(plain["jobs"]) + _failures(jobs)
    _report_failures(plain["jobs"] + jobs)

    correct = True
    for k, job in enumerate(jobs):
        layers = job["layers"]
        summed = sum(layers["self_s"].values()) + layers["cli_self_s"]
        if abs(summed - job["wall_s"]) > 1e-6:
            print(f"job {k}: layer self times sum to {summed} s, wall {job['wall_s']} s",
                  file=sys.stderr)
            correct = False
    if traced.get("missing_checks"):
        print(f"check functions no longer present: {traced['missing_checks']}")

    def total(key, layer):
        return sum(job["layers"][key][layer] for job in jobs)

    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (total("self_s", layer), "s")
        if layer != "serialize":
            metrics[f"{layer}.calls"] = (total("calls", layer), "count")
    metrics["serialize.bytes_out"] = (sum(job["bytes_out"] for job in jobs), "bytes")
    metrics["cli.self_s"] = (sum(job["layers"]["cli_self_s"] for job in jobs), "s")
    for name in ("gaussian.site_steps", "ising.basis_states", "gup.site_samples"):
        metrics[name] = (sum(job["counts"].get(name, 0) for job in jobs), "count")
    metrics["gaussian.max_coeff_bits"] = (max(job["coeff_bits"] for job in jobs), "bits")
    plain_wall = sum(job["wall_s"] for job in plain["jobs"])
    traced_wall = sum(job["wall_s"] for job in jobs)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"jobs": [job["layers"] for job in jobs],
                                      "spans": traced["spans"]}))

    print(f"{args.workload} seed={args.seed} traced run, {n_jobs} jobs "
          f"(plain {plain_wall:.3f} s, traced {traced_wall:.3f} s); spans in {trace_path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:14.6g} {unit}")
    return (len(plain["jobs"]) + len(jobs), failed, correct,
            {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ontoca" / "__init__.py").is_file():
        print(f"no ontoca sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_run" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        attempted, failed, correct, metrics = (traced_run if args.trace else plain_run)(args, work)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
