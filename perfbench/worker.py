"""One benchmark worker: a fresh interpreter running one workload's jobs.

The worker is a single closed-loop client with no threads: it imports
ontoca from the checkout's `src/`, generates the workload's inputs from the
seed, and runs jobs one after another.  A job is one seeded experiment:
one to three `ontoca.cli.main(argv)` calls in-process plus, where no
subcommand reaches a layer, one library call.  Only the job itself is timed;
writing its configs and checking its artifacts happen between timers.

Modes:
    setup   import and generate inputs, report the set-up time, exit
    plain   run jobs from --first-job on until --seconds have passed, or --jobs jobs
    traced  as plain, with every ontoca layer wrapped by tracer.Tracer

The result goes to --result as JSON; run.py reads it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

import inputs
import reference

PREGENERATED_JOBS = 64


def _load_ontoca(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import ontoca
    from ontoca import cli, propagator, serialize

    if not Path(ontoca.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"ontoca imported from {ontoca.__file__}, not from {src}")
    return cli, propagator, serialize


def _write_configs(spec: dict, job_dir: Path) -> list[list[str]]:
    job_dir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for call in spec["calls"]:
        path = job_dir / f"{call['name']}.json"
        path.write_text(json.dumps(call["config"]))
        argvs.append(call["argv"] + [str(path)])
    return argvs


def _exit_code(cli, argv) -> int:
    """Exit status of one CLI call, whether main returns it or raises SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1


def _transfer_inputs(spec: dict):
    """Evolved states for the transfer check, built before the job's timer."""
    from ontoca.gaussian import GaussianInt, GaussianIntVector

    cfg = spec["calls"][0]["config"]
    states = reference.trajectory(cfg["model"], cfg["psi0"], cfg["psi1"], cfg["steps"])
    return [GaussianIntVector(GaussianInt(re, im) for re, im in st) for st in states]


def _run_library(spec, psi, propagator, serialize) -> bool:
    """psi[n] = T(n-m+1) psi[m+1] + T(n-m) psi[m], exactly, with T from the library."""
    lib = spec["library"]
    model = serialize.model_from_mapping(spec["calls"][0]["config"]["model"])
    seq = propagator.transfer_sequence(model, lib["transfer_order"])
    return all(
        seq[n - m + 1].apply(psi[m + 1]) + seq[n - m].apply(psi[m]) == psi[n]
        for m, n in lib["pairs"]
    )


def _coefficient_bits(command: str, text: str) -> int:
    if command != "evolve":
        return 0
    if text.startswith("{"):
        rows = json.loads(text)["rows"]
    else:
        rows = [line.split(",") for line in text.splitlines()[1:]]
    return max((abs(int(v)).bit_length() for row in rows for v in row[2:]), default=0)


def _gate(spec: dict, job_dir: Path, recorded) -> dict:
    """Check every artifact of a job; returns failures, digests and sizes."""
    failures, digests, docs = [], {}, {}
    bytes_out = coeff_bits = 0
    for call in spec["calls"]:
        command, name = call["argv"][0], call["name"]
        path = job_dir / call["out"]
        if not path.is_file():
            failures.append(f"{name}: no artifact")
            continue
        data = path.read_bytes()
        bytes_out += len(data)
        text = data.decode()
        coeff_bits = max(coeff_bits, _coefficient_bits(command, text))
        if command == "gup":
            doc = json.loads(text)
            docs[name] = doc
            diffs = reference.compare_documents(doc, reference.gup_document(call["config"]))
            if recorded is not None:
                diffs += reference.compare_documents(doc, recorded["docs"][name])
            failures += [f"{name}: {d}" for d in diffs[:3]]
            continue
        digest = hashlib.sha256(data).hexdigest()
        digests[name] = digest
        want = reference.EXACT_ARTIFACTS[command](call["config"])
        if want is None or hashlib.sha256(want.encode()).hexdigest() != digest:
            failures.append(f"{name}: artifact differs from the reference")
        if recorded is not None and recorded["digests"][name] != digest:
            failures.append(f"{name}: artifact differs from the recorded digest")
    return {"failures": failures, "digests": digests, "docs": docs,
            "bytes_out": bytes_out, "coeff_bits": coeff_bits}


def run_jobs(args, root: Path, t_spawn_ns: int) -> dict:
    cli, propagator, serialize = _load_ontoca(root)
    specs = [inputs.make_job(args.workload, args.seed, args.first_job + i)
             for i in range(PREGENERATED_JOBS)]
    setup_s = (time.monotonic_ns() - t_spawn_ns) / 1e9
    result = {"setup_s": setup_s, "jobs": []}
    if args.mode == "setup":
        return result

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["missing_checks"] = tracer.missing
    recorded_all = None
    if args.recorded:
        recorded_all = json.loads(Path(args.recorded).read_text()).get(args.workload)

    work = Path(args.work)
    started = time.perf_counter()
    index = 0
    while True:
        if args.jobs and index >= args.jobs:
            break
        if not args.jobs and time.perf_counter() - started >= args.seconds:
            break
        while len(specs) <= index:
            specs.append(inputs.make_job(args.workload, args.seed, args.first_job + len(specs)))
        spec = specs[index]
        job_id = args.first_job + index
        job_dir = work / f"job{job_id}"
        argvs = _write_configs(spec, job_dir)
        psi = _transfer_inputs(spec) if "library" in spec else None

        failures = []
        os.chdir(job_dir)
        if tracer:
            tracer.begin_job(job_id)
        t0 = time.perf_counter()
        try:
            codes = [_exit_code(cli, argv) for argv in argvs]
            library_ok = _run_library(spec, psi, propagator, serialize) if psi is not None else True
        except Exception:  # a crashing job counts as failed; the run goes on
            codes, library_ok = [], True
            failures.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        layers = tracer.end_job(wall) if tracer else None
        os.chdir(work)

        failures += [f"{c['name']}: exit {code}" for c, code in zip(spec["calls"], codes) if code]
        if not library_ok:
            failures.append("transfer composition law does not hold")
        recorded = None
        if recorded_all is not None and job_id < len(recorded_all):
            recorded = recorded_all[job_id]
        gate = _gate(spec, job_dir, recorded)
        failures += gate["failures"]
        result["jobs"].append({
            "wall_s": wall,
            "failures": failures,
            "digests": gate["digests"],
            "docs": gate["docs"],
            "bytes_out": gate["bytes_out"],
            "coeff_bits": gate["coeff_bits"],
            "counts": spec["counts"],
            "layers": layers,
        })
        for path in job_dir.iterdir():
            path.unlink()
        job_dir.rmdir()
        index += 1
    if tracer:
        result["spans"] = tracer.spans
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument("--first-job", type=int, default=0,
                        help="index of this worker's first job within the seed's job sequence")
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--recorded", default=None)
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it spawned this worker")
    args = parser.parse_args(argv)
    result = run_jobs(args, Path(args.root), args.spawn_ns)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
