"""Layer micro-benchmark: the wall time of one call of each exact kernel (the
transfer recursion also on a dim-64 ring and to order 200, and with the 78
composition checks of a bigint-transfer job), of the boxing layer, of the
ontology scan's ray division, of three trajectory checks (a dim-64 ring, and
150 and 1000 steps of a supercritical dense dim-12 model), of a trajectory's
CSV and JSON, of the CLI parser build, of Model A's composition check and two
whole Ising CLI runs, of the lattice uncertainty reports (three whole gup CLI
runs, at 256 sites periodic and open and at 4096 sites, the width family and
the verify-all Robertson check), of five model builds (a dense dim-2048 ring,
a dim-1024 H with every entry in [-3, 3] drawn, a dim-1024 ring read from
JSON, a dim-256 coupling matrix of [re, im] rows and a separable coupling of
two dim-48 rings), of the Ising exponential-form check at 10, 12 and 20 bits,
of the phased-permutation constructor and unitarity check at 20 bits, and of
two-time line and diagonal propagation.  Each row but build_parser_first also
reports the tracemalloc peak of one call.

    python3 benchmarks/layers.py --out BENCH.json [--parent OTHER/src] [--samples 7]

The source tree under test is this checkout's `src/` (or `--src`).  With
`--parent`, a second tree (for example `src/` of a `git archive` of the parent
commit) is timed the same way, and each row carries both figures.  Each
sample is one fresh interpreter per tree (this file re-run with `--child`),
so the trees never share imports or caches, and OpenBLAS runs on one
thread.  The trees take turns, sample by sample, and which tree runs first
alternates from sample to sample, so a drift in host load and an order effect
fall on both alike.

In a sample, each row repeats one call until at least MIN_SAMPLE_S has
passed and records the mean time per call, then traces one more call for its
peak of allocated memory; a row reports the median, the quartiles and the
minimum time and the median peak over the samples.  With `--parent`, a row
also reports the median and the quartiles over the samples of the
parent/change ratio of the two trees' times in the same sample; a ratio whose
quartiles straddle 1 tells no gain or loss.  Inputs are fixed (seeded), so
every run times the same work.  The rows of DIGESTED also record a digest of
their call's result; the run fails, and writes no report, if a digest differs
between samples or trees.
A row whose input exceeds a tree's size limit (DimensionOverflow on the
warm-up call) has no figure for that tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

MIN_SAMPLE_S = 0.05
REPO = Path(__file__).resolve().parents[1]

ROWS = {
    "gaussian_step": "one Gaussian-integer step (_step_raw), dim-64 unit-weight ring",
    "transfer_sequence": "propagator.transfer_sequence, dense dim-12 model, entries in [-3, 3], k=40",
    "transfer_sequence_ring64": "propagator.transfer_sequence, dim-64 unit-weight ring, k=40",
    "transfer_sequence_k200": "propagator.transfer_sequence, the dense dim-12 model, k=200",
    "model_a_step_compose": "ising.model_a_step_operator on a 12-vertex ring plus one compose_after",
    "model_a_composition": "ising.model_a_composition_holds on the ising-a shape of a perfbench "
                           "spin-perm job: 12 vertices, 14 edges, an explicit schedule of 48 "
                           "seeded (edge, sign) steps, and its run",
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
    "gup_cli_open": "cli.main gup: 256 sites, 40 samples, open boundary, default widths "
                    "(the open-boundary half of a perfbench lattice-gup job)",
    "gup_cli_4096": "cli.main gup: 4096 sites, 1000 samples, periodic boundary, default widths "
                    "(one row a sample block)",
    "gup_family": "gup.minimize_delta_x: Gaussian widths 4, 6, 8, 12, 16 on 256 sites, periodic",
    "robertson_300": "verify.check_robertson: the Robertson bound on 300 random 64-site states",
    "model_build_2048": "gaussian.build_hamiltonian of a dim-2048 unit-weight ring from dense "
                        "S and A lists (validation of the dense input included)",
    "model_dense_1024": "gaussian.build_hamiltonian of a dim-1024 self-adjoint S + iA with every "
                        "entry drawn from [-3, 3] (98% of the entries of H nonzero)",
    "separable_48x48": "multitime.TensorHamiltonian.separable of two dim-48 unit-weight ring "
                       "models (dim 2304)",
    "model_from_json_1024": "serialize.model_from_mapping of a JSON-loaded dim-1024 unit-weight "
                            "ring (every S and A entry checked)",
    "coupling_general_256": "multitime.TensorHamiltonian.general, dims (16, 16), of a dim-256 ring "
                            "given as rows of [re, im] lists, hopping 1+i forward and 1-i back",
    "trajectory_verify_bigint": "Trajectory.verify of a 150-step trajectory of the bigint-transfer "
                                "shape: dense dim-12 model and start states with entries in "
                                "[-2, 2] (parts of up to about 500 bits)",
    "transfer_library_bigint": "the library step of a perfbench bigint-transfer job on that "
                               "trajectory: transfer_sequence(model, 40) and the 78 checks "
                               "psi[n] == T(n-m+1) psi[m+1] + T(n-m) psi[m]",
    "trajectory_verify_long": "Trajectory.verify of 1000 steps of that model (parts of up to "
                              "about 3400 bits)",
    "evolve_json_bigint": "the JSON text evolve --format json writes of the 150-step trajectory: "
                          "serialize.trajectory_json, or in a tree without it dumps_json of "
                          "the whole document",
    "exponential_form_10bit": "ising.verify_exponential_form of a ring of 5: 5 vertex + 5 edge "
                              "bits, the checked ising-b call of a perfbench spin-perm job",
    "exponential_form_12bit": "ising.verify_exponential_form of 10 vertices and 2 edges: four "
                              "edge patterns of 1024 vertex masks each",
    "phased_ctor_20bit": "the PhasedPermutation constructor on the target and phase arrays of "
                         "model_b_transfer of a ring of 10 (10 vertex + 10 edge bits): "
                         "bijection check, phase reduction and copies",
    "is_unitary_20bit": "PhasedPermutation.is_unitary of that 20-bit transfer map",
    "exponential_form_20bit": "ising.verify_exponential_form of that ring of 10 (no figure "
                              "where the check stops at 12 bits)",
    "multitime_line": "multitime.propagate_line, separable coupling of unit-weight rings of 3 "
                      "and 4 (dim 12): 20 steps of two 400-point lines, then 20 periodic steps",
    "multitime_diagonal": "20 calls of multitime.propagate_diagonal on the anti-diagonals "
                          "n1+n2 = 399 and 400 of that coupling, seeded at (200, 201)",
}
# Rows whose results are compared, by digest, across samples and trees
DIGESTED = ("transfer_sequence", "transfer_sequence_ring64", "transfer_sequence_k200",
            "model_a_composition", "transfer_library_bigint", "exponential_form_10bit",
            "exponential_form_12bit", "phased_ctor_20bit", "is_unitary_20bit",
            "exponential_form_20bit", "multitime_line", "multitime_diagonal")

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
    "gup_cli_open": {"kind": "gup", "sites": 256, "samples": 40, "boundary": "open", "seed": 0},
    "gup_cli_4096": {"kind": "gup", "sites": 4096, "samples": 1000, "boundary": "periodic",
                     "seed": 0},
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


def _ring_matrices(dim: int):
    """Dense S and A lists of the unit-weight ring of `dim` sites."""
    s = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        s[r][(r + 1) % dim] = s[(r + 1) % dim][r] = 1
    return s, [[0] * dim for _ in range(dim)]


def _dense_matrices(dim: int):
    """Dense S and A lists of a seeded self-adjoint S + iA, entries in [-3, 3]."""
    s, a = np.random.default_rng(18).integers(-3, 4, (2, dim, dim))
    return (np.triu(s) + np.triu(s, 1).T).tolist(), (np.triu(a, 1) - np.triu(a, 1).T).tolist()


def _ring_pair_rows(dim: int):
    """Rows of [re, im] lists of the dim-site ring with hopping 1+i forward, 1-i back."""
    rows = [[[0, 0] for _ in range(dim)] for _ in range(dim)]
    for r in range(dim):
        rows[r][(r + 1) % dim] = [1, 1]
        rows[(r + 1) % dim][r] = [1, -1]
    return rows


def _dense_dim12(rng, bound: int):
    """A dense self-adjoint dim-12 model S + iA and two start states, every
    entry drawn from [-bound, bound] (bound 2: a perfbench bigint-transfer job)."""
    from ontoca.gaussian import GaussianIntVector, build_hamiltonian

    s, a = [[0] * 12 for _ in range(12)], [[0] * 12 for _ in range(12)]
    for r in range(12):
        for c in range(r, 12):
            s[r][c] = s[c][r] = rng.randint(-bound, bound)
            if c > r:
                a[r][c] = rng.randint(-bound, bound)
                a[c][r] = -a[r][c]
    start = [GaussianIntVector((rng.randint(-bound, bound), rng.randint(-bound, bound))
                               for _ in range(12)) for _ in range(2)]
    return build_hamiltonian(s, a), start


def _built_on_first_call(make, run):
    """A call of run(input), where the input is made by the first call: the
    untimed warm-up.  A large input so exists only once the rows before it
    have been timed."""
    held = []

    def call():
        if not held:
            held.append(make())
        return run(held[0])

    return call


def _calls(workdir: Path):
    """Zero-argument callables, one per row, with their inputs built untimed;
    the CLI rows read and write files in `workdir`."""
    import random

    from ontoca import cli, gup, ising, multitime, ontology, propagator, serialize, verify
    from ontoca.gaussian import CAPairState, GaussianIntVector, _step_raw, build_hamiltonian, evolve

    rng = random.Random(12)

    dim = 64
    ring = build_hamiltonian(*_ring_matrices(dim))
    prev = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(dim)]
    curr = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(dim)]
    # the boxing, ray, check and CSV rows use public API only, so every tree can run them
    ring_run = evolve(CAPairState(GaussianIntVector(prev), GaussianIntVector(curr)), ring, 1)
    ring_long = evolve(CAPairState(GaussianIntVector(prev), GaussianIntVector(curr)), ring, 50)

    dense, start = _dense_dim12(rng, 3)
    dense_run = evolve(CAPairState(*start), dense, 78)
    psi0, psi1, psi79 = (dense_run.state_at(n) for n in (0, 1, 79))
    t79, t80 = propagator.transfer_sequence(dense, 80)[79:]
    # drawn after the inputs of the older rows, which so stay as they were
    full = GaussianIntVector((rng.randint(1, 9), rng.randint(-9, 9)) for _ in range(64))

    topology = ising.GraphTopology.ring(12)
    first = ising.model_a_step_operator(topology, (0, 1))
    # the composition row draws from its own generator
    driven_rng = random.Random(48)
    driven = ising.GraphTopology(12, ISING_A_EDGES)
    driven_schedule = ising.Schedule.explicit(
        [(*driven_rng.choice(ISING_A_EDGES), driven_rng.choice((1, -1))) for _ in range(48)])
    driven_run = ising.model_a_evolve(driven, driven_rng.randrange(1 << 12), driven_schedule, 48)

    np_rng = np.random.default_rng(12)
    # draws that no row reads, kept so that psi below stays the same input
    np_rng.permutation(1 << 16), np_rng.integers(0, 4, 1 << 16)

    ring48 = build_hamiltonian(*_ring_matrices(48))

    bigint_model, bigint_start = _dense_dim12(random.Random(19), 2)
    bigint_run = evolve(CAPairState(*bigint_start), bigint_model, 150)
    bigint_long = evolve(CAPairState(*bigint_start), bigint_model, 1000)
    bigint_states = bigint_run.states
    # the index pairs of a perfbench job: both ends of the run, orders up to 40
    bigint_pairs = [(m, m + k) for k in range(1, 40) for m in (0, len(bigint_states) - 1 - k)]

    def transfer_library():
        seq = propagator.transfer_sequence(bigint_model, 40)
        return all(seq[n - m + 1].apply(bigint_states[m + 1]) + seq[n - m].apply(bigint_states[m])
                   == bigint_states[n] for m, n in bigint_pairs)
    head = {"schema_version": 1, "kind": "evolve", "dim": 12, "steps": 150, "start_index": 0,
            "two_time_correlation": 0, "conserved": True}

    def evolve_json():
        if hasattr(serialize, "trajectory_json"):
            return serialize.trajectory_json(head, bigint_run)
        # an older tree writes the whole document with dumps_json
        return serialize.dumps_json(
            {**head, "rows": [list(row) for row in serialize.trajectory_rows(bigint_run)]})

    ring10 = ising.GraphTopology.ring(10)

    def transfer20():
        return ising.model_b_transfer(ring10)

    momentum = gup.momentum_operator(256, propagator.DiscretenessScale(1.0))
    psi = np_rng.standard_normal(256) + 1j * np_rng.standard_normal(256)

    # the two-time rows draw from their own generator
    coupling = multitime.TensorHamiltonian.separable(
        build_hamiltonian(*_ring_matrices(3)), build_hamiltonian(*_ring_matrices(4)))
    field_rng = random.Random(22)

    def field(points):
        return multitime.MultiTimeField((3, 4), {p: GaussianIntVector(
            (field_rng.randint(-3, 3), field_rng.randint(-3, 3)) for _ in range(12))
            for p in points})

    lines = field([(n1, n2) for n1 in (0, 1) for n2 in range(400)])
    diagonals = field([(n1, s - n1) for s in (399, 400) for n1 in range(s + 1)])
    seed = GaussianIntVector(
        (field_rng.randint(-3, 3), field_rng.randint(-3, 3)) for _ in range(12))

    def line_steps():
        ends = []
        for periodic in (False, True):
            current = lines
            for _ in range(20):
                current = multitime.propagate_line(current, coupling, periodic=periodic)
            ends.append(sorted(current.values.items()))
        return ends

    def diagonal_calls():
        for _ in range(20):
            stepped = multitime.propagate_diagonal(diagonals, coupling, (200, 201), seed)
        return sorted(stepped.values.items())

    return {
        "gaussian_step": lambda: _step_raw(ring.h_rows, prev, curr),
        "transfer_sequence": lambda: propagator.transfer_sequence(dense, 40),
        "transfer_sequence_ring64": lambda: propagator.transfer_sequence(ring, 40),
        "transfer_sequence_k200": lambda: propagator.transfer_sequence(dense, 200),
        "model_a_step_compose":
            lambda: ising.model_a_step_operator(topology, (3, 4), -1).compose_after(first),
        "model_a_composition":
            lambda: ising.model_a_composition_holds(driven, driven_schedule, driven_run),
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
        "model_build_2048": _built_on_first_call(
            lambda: _ring_matrices(2048), lambda sa: build_hamiltonian(*sa)),
        "model_dense_1024": _built_on_first_call(
            lambda: _dense_matrices(1024), lambda sa: build_hamiltonian(*sa)),
        "separable_48x48": lambda: multitime.TensorHamiltonian.separable(ring48, ring48),
        "model_from_json_1024": _built_on_first_call(
            lambda: json.loads(json.dumps(dict(zip("SA", _ring_matrices(1024))))),
            serialize.model_from_mapping),
        "coupling_general_256": _built_on_first_call(
            lambda: _ring_pair_rows(256),
            lambda rows: multitime.TensorHamiltonian.general(rows, (16, 16))),
        "trajectory_verify_bigint": bigint_run.verify,
        "transfer_library_bigint": transfer_library,
        "trajectory_verify_long": bigint_long.verify,
        "evolve_json_bigint": evolve_json,
        "exponential_form_10bit":
            lambda: ising.verify_exponential_form(ising.GraphTopology.ring(5)),
        "exponential_form_12bit": lambda: ising.verify_exponential_form(
            ising.GraphTopology(10, ((0, 1), (3, 7)))),
        "phased_ctor_20bit": _built_on_first_call(
            transfer20, lambda t: ising.PhasedPermutation(t.target, t.phase_exponent)),
        "is_unitary_20bit": _built_on_first_call(transfer20, lambda t: t.is_unitary()),
        "exponential_form_20bit": lambda: ising.verify_exponential_form(ring10),
        "multitime_line": line_steps,
        "multitime_diagonal": diagonal_calls,
    }


def _digest(result) -> str:
    """A digest of a row's result: the bytes of a phased permutation's arrays,
    or the repr of a plain value."""
    if hasattr(result, "phase_exponent"):
        data = result.target.astype("<i8").tobytes() + result.phase_exponent.tobytes()
    else:
        data = repr(result).encode()
    return hashlib.sha256(data).hexdigest()


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


def _peak_bytes(call) -> int:
    """The tracemalloc peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child(src: str) -> dict:
    """One sample: seconds per call and peak bytes of one call, per row, and
    the digests of the DIGESTED rows."""
    sys.path.insert(0, src)
    from ontoca import cli
    from ontoca.errors import DimensionOverflow

    start = time.perf_counter()
    cli.build_parser()
    timings = {"build_parser_first": time.perf_counter() - start}
    peaks, digests = {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, call in _calls(Path(workdir)).items():
            try:
                result = call()  # warm-up
            except DimensionOverflow:
                continue  # past this tree's size limit: no figure
            if name in DIGESTED:
                digests[name] = _digest(result)
            timings[name] = _sample(call)
            peaks[name] = _peak_bytes(call)
    return {"seconds": timings, "peak_bytes": peaks, "digests": digests}


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


def _differing_digests(runs: dict) -> list[str]:
    """The DIGESTED rows whose result digests differ between any two samples
    of any trees that produced them."""
    return [name for name in DIGESTED
            if len({run["digests"][name] for label_runs in runs.values()
                    for run in label_runs if name in run["digests"]}) > 1]


def _quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (inclusive: within the values; one value is both)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _time_trees(trees: dict, samples: int) -> dict:
    """Per tree and row: median, quartiles and minimum seconds per call, the
    seconds of each sample and the median peak bytes of one call, over
    `samples` fresh children per tree, the trees taking turns and swapping which goes first
    after every sample.  A row a tree has no figure for maps to None.  Exits
    with an error if the results of a DIGESTED row differ."""
    runs = {label: [] for label in trees}
    order = list(trees.items())
    for _ in range(samples):
        for label, src in order:
            runs[label].append(_run_child(src))
        order.reverse()
    differ = _differing_digests(runs)
    if differ:
        sys.exit(f"results differ between samples or trees: {', '.join(differ)}")
    return {
        label: {
            name: {"median_s": statistics.median(ts), "quartiles_s": _quartiles(ts),
                   "min_s": min(ts), "seconds": ts,
                   "peak_mb": statistics.median(peaks) / 2**20 if peaks else None}
            if ts else None
            for name in ROWS
            for ts in [[run["seconds"][name] for run in label_runs
                        if name in run["seconds"]]]
            for peaks in [[run["peak_bytes"][name] for run in label_runs
                           if name in run["peak_bytes"]]]
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
            figures = result[name] or {"median_s": None, "quartiles_s": (None, None),
                                       "min_s": None, "peak_mb": None}
            row[f"{label}_median_s"] = figures["median_s"]
            row[f"{label}_q1_s"], row[f"{label}_q3_s"] = figures["quartiles_s"]
            row[f"{label}_min_s"] = figures["min_s"]
            row[f"{label}_peak_mb"] = figures["peak_mb"]
        row["samples"] = args.samples
        if name in DIGESTED:
            row["digests_equal"] = True
        both = all(result[name] for result in measured.values())
        if "parent" in measured:
            row["parent_over_change"] = (row["parent_median_s"] / row["change_median_s"]
                                         if both else None)
            ratios = [p / c for p, c in zip(measured["parent"][name]["seconds"],
                                            measured["change"][name]["seconds"])] if both else []
            row["paired_ratio_median"] = statistics.median(ratios) if ratios else None
            row["paired_ratio_q1"], row["paired_ratio_q3"] = (
                _quartiles(ratios) if ratios else (None, None))
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

    def shown(value, spec):
        return "-" if value is None else format(value, spec)

    for row in rows:
        figures = "  ".join(f"{label}={shown(row[f'{label}_median_s'], '.3e')}s"
                            for label in measured)
        if "parent" in measured:
            figures += (f"  paired {shown(row['paired_ratio_median'], '.2f')}"
                        f" [{shown(row['paired_ratio_q1'], '.2f')}, "
                        f"{shown(row['paired_ratio_q3'], '.2f')}]")
        if row["change_peak_mb"] is not None:
            figures += "  peak " + " / ".join(shown(row[f"{label}_peak_mb"], ".1f")
                                              for label in measured) + " MB"
        print(f"{row['row']:<24} {figures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
