"""Layer micro-benchmark: the wall time of one call of each exact kernel, of
the boxing layer, of the ontology scan's ray division, of a trajectory check
and its CSV, of the CLI parser build, of two whole Ising CLI runs and of the
lattice uncertainty reports (a whole gup CLI run, its width family and the
verify-all Robertson check).

    python3 benchmarks/layers.py --out BENCH.json [--parent OTHER/src] [--samples 7]

The source tree under test is this checkout's `src/` (or `--src`).  With
`--parent`, a second tree (for example `src/` of a `git archive` of the parent
commit) is timed the same way, and each row carries both figures.  Each
sample is one fresh interpreter per tree (this file re-run with `--child`),
so the trees never share imports or caches, and OpenBLAS runs on one
thread.  The trees take turns, sample by sample, so a drift in host load
falls on both alike.

In a sample, each row repeats one call until at least MIN_SAMPLE_S has
passed and records the mean time per call; a row reports the median and the
minimum over the samples.  Inputs are fixed (seeded), so every run times the
same work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

MIN_SAMPLE_S = 0.05
REPO = Path(__file__).resolve().parents[1]

ROWS = {
    "gaussian_step": "one Gaussian-integer step (_step_raw), dim-64 unit-weight ring",
    "transfer_sequence": "propagator.transfer_sequence, dense dim-12 model, entries in [-3, 3], k=40",
    "model_a_step_compose": "ising.model_a_step_operator on a 12-vertex ring plus one compose_after",
    "permutation_power": "PhasedPermutation.power(64), random 16-bit phased permutation",
    "lattice_stencil": "gup momentum operator apply, 256 sites, periodic",
    "state_boxing": "Trajectory.states of a 3-state dim-64 ring trajectory, every component read",
    "canonical_ray": "ontology.canonical_ray of a dim-64 vector with every component nonzero "
                     "(the rational division behind the ontology scan)",
    "trajectory_verify": "Trajectory.verify of a 50-step dim-64 ring trajectory",
    "trajectory_csv": "serialize.trajectory_csv of that 50-step dim-64 ring trajectory",
    "transfer_check": "T(80).apply(psi[1]) + T(79).apply(psi[0]) == psi[79], the dense dim-12 "
                      "model (T entries and psi[79] of about 300 bits)",
    "build_parser_first": "cli.build_parser, first call in a fresh process (one sample each)",
    "build_parser": "cli.build_parser, every later call (what each cli.main call pays)",
    "ising_a_cli": "cli.main ising-a: 12 vertices, 14 edges, a periodic schedule over every "
                   "edge, 48 steps (config read, orbit, composition check, CSV write)",
    "ising_b_cli": "cli.main ising-b: ring of 9, so 9 vertex + 9 edge bits, cyclic edge rule, "
                   "24 steps (config read, orbit, unitarity check, CSV write)",
    "gup_cli": "cli.main gup: 256 sites, 40 samples, periodic boundary, default widths "
               "(config read, width family, sharp state, sample reports, JSON write)",
    "gup_family": "gup.minimize_delta_x: Gaussian widths 4, 6, 8, 12, 16 on 256 sites, periodic",
    "robertson_300": "verify.check_robertson: the Robertson bound on 300 random 64-site states",
}

ISING_A_EDGES = [[k, (k + 1) % 12] for k in range(12)] + [[0, 6], [3, 9]]
CLI_CONFIGS = {
    "ising_a_cli": {
        "kind": "ising-a",
        "topology": {"n_vertices": 12, "edges": ISING_A_EDGES},
        "schedule": {"kind": "periodic",
                     "steps": [[i, j, (-1) ** k] for k, (i, j) in enumerate(ISING_A_EDGES)]},
        "start": "101100111000",
        "steps": 48,
    },
    "ising_b_cli": {
        "kind": "ising-b",
        "topology": {"preset": "ring", "n_vertices": 9},
        "start": {"vertices": "110010001", "edges": "101000011"},
        "edge_rule": "cyclic",
        "steps": 24,
    },
    "gup_cli": {"kind": "gup", "sites": 256, "samples": 40, "boundary": "periodic", "seed": 0},
}


# =============================================================================
# Child: time one source tree
# =============================================================================


def _cli_call(cli, workdir: Path, name: str):
    """A call of the public cli.main on the config of row `name`, written to
    `workdir` untimed; the summary line stays off this process's stdout."""
    doc = CLI_CONFIGS[name]
    config = workdir / f"{name}.json"
    config.write_text(json.dumps(doc))
    argv = [doc["kind"], str(config), "--out", str(workdir / f"{name}.out")]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"{name}: cli.main {argv} did not exit 0")

    return call


def _calls(workdir: Path):
    """Zero-argument callables, one per row, with their inputs built untimed;
    the CLI rows read and write files in `workdir`."""
    import random

    from ontoca import cli, gup, ising, ontology, propagator, serialize, verify
    from ontoca.gaussian import CAPairState, GaussianIntVector, _step_raw, build_hamiltonian, evolve

    rng = random.Random(12)

    dim = 64
    s = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        s[r][(r + 1) % dim] = s[(r + 1) % dim][r] = 1
    ring = build_hamiltonian(s, [[0] * dim for _ in range(dim)])
    prev = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(dim)]
    curr = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(dim)]
    # the boxing, ray, check and CSV rows use public API only, so every tree can run them
    ring_run = evolve(CAPairState(GaussianIntVector(prev), GaussianIntVector(curr)), ring, 1)
    ring_long = evolve(CAPairState(GaussianIntVector(prev), GaussianIntVector(curr)), ring, 50)

    dim = 12
    s = [[0] * dim for _ in range(dim)]
    a = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r, dim):
            s[r][c] = s[c][r] = rng.randint(-3, 3)
            if c > r:
                a[r][c] = rng.randint(-3, 3)
                a[c][r] = -a[r][c]
    dense = build_hamiltonian(s, a)
    start = [GaussianIntVector((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(dim))
             for _ in range(2)]
    dense_run = evolve(CAPairState(*start), dense, 78)
    psi0, psi1, psi79 = (dense_run.state_at(n) for n in (0, 1, 79))
    t79, t80 = propagator.transfer_sequence(dense, 80)[79:]
    # drawn after the inputs of the older rows, which so stay as they were
    full = GaussianIntVector((rng.randint(1, 9), rng.randint(-9, 9)) for _ in range(64))

    topology = ising.GraphTopology.ring(12)
    first = ising.model_a_step_operator(topology, (0, 1))

    np_rng = np.random.default_rng(12)
    perm = ising.PhasedPermutation(np_rng.permutation(1 << 16), np_rng.integers(0, 4, 1 << 16))

    momentum = gup.momentum_operator(256, propagator.DiscretenessScale(1.0))
    psi = np_rng.standard_normal(256) + 1j * np_rng.standard_normal(256)

    return {
        "gaussian_step": lambda: _step_raw(ring.h_rows, prev, curr),
        "transfer_sequence": lambda: propagator.transfer_sequence(dense, 40),
        "model_a_step_compose":
            lambda: ising.model_a_step_operator(topology, (3, 4), -1).compose_after(first),
        "permutation_power": lambda: perm.power(64),
        "lattice_stencil": lambda: momentum.apply(psi),
        "state_boxing": lambda: [c.re for state in ring_run.states for c in state],
        "canonical_ray": lambda: ontology.canonical_ray(full),
        "trajectory_verify": ring_long.verify,
        "trajectory_csv": lambda: serialize.trajectory_csv(ring_long),
        "transfer_check": lambda: t80.apply(psi1) + t79.apply(psi0) == psi79,
        "build_parser": cli.build_parser,
        "gup_family": lambda: gup.minimize_delta_x(
            propagator.DiscretenessScale(1.0), (4, 6, 8, 12, 16), 256, "periodic"),
        "robertson_300": lambda: verify.check_robertson(0),
        **{name: _cli_call(cli, workdir, name) for name in CLI_CONFIGS},
    }


def _sample(call) -> float:
    """Mean seconds per call over a run of at least MIN_SAMPLE_S."""
    n = 0
    start = time.perf_counter()
    while True:
        call()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SAMPLE_S:
            return elapsed / n


def child(src: str) -> dict:
    """One sample: seconds per call of every row."""
    sys.path.insert(0, src)
    from ontoca import cli

    start = time.perf_counter()
    cli.build_parser()
    timings = {"build_parser_first": time.perf_counter() - start}
    with tempfile.TemporaryDirectory() as workdir:
        for name, call in _calls(Path(workdir)).items():
            call()  # warm-up
            timings[name] = _sample(call)
    return timings


# =============================================================================
# Parent: run the children and write the report
# =============================================================================


def _run_child(src: Path) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(src)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def _time_trees(trees: dict, samples: int) -> dict:
    """Per tree and row: median and minimum seconds per call, over `samples`
    fresh children per tree, the trees taking turns."""
    runs = {label: [] for label in trees}
    for _ in range(samples):
        for label, src in trees.items():
            runs[label].append(_run_child(src))
    return {
        label: {
            name: {"median_s": statistics.median(ts), "min_s": min(ts), "samples": len(ts)}
            for name in ROWS
            for ts in [[run[name] for run in label_runs]]
        }
        for label, label_runs in runs.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON report to write (required)")
    parser.add_argument("--src", default=str(REPO / "src"), help="source tree under test")
    parser.add_argument("--parent", help="source tree to compare against")
    parser.add_argument("--samples", type=int, default=7)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        json.dump(child(args.child), sys.stdout)
        return 0
    if not args.out:
        parser.error("--out is required")
    if args.samples < 1:
        parser.error("--samples must be >= 1")

    trees = {"change": Path(args.src)}
    if args.parent:
        trees = {"parent": Path(args.parent), **trees}
    measured = _time_trees(trees, args.samples)
    rows = []
    for name, description in ROWS.items():
        row = {"row": name, "what": description}
        for label, result in measured.items():
            row[f"{label}_median_s"] = result[name]["median_s"]
            row[f"{label}_min_s"] = result[name]["min_s"]
            row["samples"] = result[name]["samples"]
        if "parent" in measured:
            row["parent_over_change"] = row["parent_median_s"] / row["change_median_s"]
        rows.append(row)
    report = {
        "kind": "ontoca-layer-bench",
        "command": f"python3 benchmarks/layers.py --samples {args.samples}"
                   + (" --parent PARENT/src" if args.parent else "") + " --out OUT",
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "min_sample_s": MIN_SAMPLE_S,
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for row in rows:
        figures = "  ".join(f"{label}={row[f'{label}_median_s']:.3e}s" for label in measured)
        print(f"{row['row']:<22} {figures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
