"""Seeded job inputs for the ontoca benchmark.

This module imports nothing from ontoca, so no change to the library can
alter a workload: the same (workload, seed, job index) always yields the
same configs.  Every config passes `check_config` before it is emitted,
which refuses values the CLI would silently coerce (a 0 that falls back to a
default, a float matrix entry truncated by int(), an ising-b start string
shorter than the topology).

A job spec is a plain dict:

    calls   list of {"name", "argv", "config", "out"}: one `ontoca` CLI call
            each; the config is written to <name>.json and the artifact
            goes to `out`
    library optional library step run inside the timed job
    counts  workload-pinning counts taken from the inputs alone
"""

from __future__ import annotations

import itertools
import random

UNIT_WEIGHTS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # +1, -1, +i, -i

# Why each workload exists: which layer it loads and which it leaves idle.
WHY = {
    "sparse-evolve": (
        "many small-integer updates on wide vectors: dim-64 unit-weight rings "
        "plus an ontology scan of a relabelled H_N ring load gaussian and ontology"
    ),
    "bigint-transfer": (
        "few, wide integers: a supercritical dense dim-12 model grows to "
        "hundreds of bits, loading gaussian, propagator, multitime and serialize"
    ),
    "spin-perm": (
        "tables of 2^bits phased-permutation entries dominate time and peak RSS; "
        "the 10-bit step keeps the dense eigh check in use"
    ),
    "lattice-gup": (
        "dense M x M lattice operators rebuilt per sample and checked for "
        "hermiticity; the exact-integer layers stay idle"
    ),
}

# Jobs per traced run.  Fixed, so the counts of a traced run depend on the
# seed alone and can be compared across commits.
TRACE_JOBS = {"sparse-evolve": 8, "bigint-transfer": 20, "spin-perm": 6, "lattice-gup": 5}


class InvalidConfig(ValueError):
    """A generated config the CLI would coerce instead of rejecting."""


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# =============================================================================
# Validation
# =============================================================================


def _require_int_matrix(rows, where: str):
    for row in rows:
        for x in row:
            if type(x) is not int:
                raise InvalidConfig(f"{where}: entry {x!r} is not an int")


def _require_int_vector(vec, where: str):
    for comp in vec:
        parts = comp if isinstance(comp, list) else [comp]
        for x in parts:
            if type(x) is not int:
                raise InvalidConfig(f"{where}: entry {x!r} is not an int")


def _check_model(model: dict, where: str):
    _require_int_matrix(model["S"], f"{where}.S")
    _require_int_matrix(model["A"], f"{where}.A")


def check_config(command: str, config: dict):
    """Raise InvalidConfig for any value the CLI would silently coerce."""
    if "model" in config:
        _check_model(config["model"], "model")
    for key in ("psi0", "psi1", "prev", "curr"):
        if key in config:
            _require_int_vector(config[key], key)
    if "coupling" in config:
        for k, factor in enumerate(config["coupling"]["separable"]):
            _check_model(factor, f"coupling.separable[{k}]")
    if command == "gup":
        for key in ("sites", "samples", "scale"):
            value = config.get(key)
            if value is None or value == 0:
                raise InvalidConfig(f"gup {key}={value!r} would fall back to the default")
    if command == "ising-b":
        topo = config["topology"]
        n_edges = len(topo["edges"])
        start = config["start"]
        if len(start["vertices"]) != topo["n_vertices"]:
            raise InvalidConfig("ising-b start.vertices length differs from n_vertices")
        if len(start["edges"]) != n_edges:
            raise InvalidConfig("ising-b start.edges length differs from the edge count")


def _call(name: str, command: str, config: dict, out: str) -> dict:
    config = dict(config, out=out)
    check_config(command, config)
    return {"name": name, "argv": [command], "config": config, "out": out}


# =============================================================================
# Building blocks
# =============================================================================


def _zero(dim):
    return [[0] * dim for _ in range(dim)]


def _set_entry(s, a, r, c, re, im):
    """H[r][c] = re + i*im and H[c][r] = re - i*im."""
    s[r][c] = s[c][r] = re
    a[r][c] = im
    a[c][r] = -im


def _model(s, a) -> dict:
    return {"dim": len(s), "S": s, "A": a}


def _vector(rng, dim, lo, hi):
    return [[rng.randint(lo, hi), rng.randint(lo, hi)] for _ in range(dim)]


def _dense_model(rng, dim, lo, hi):
    s, a = _zero(dim), _zero(dim)
    for r in range(dim):
        s[r][r] = rng.randint(lo, hi)
        for c in range(r + 1, dim):
            _set_entry(s, a, r, c, rng.randint(lo, hi), rng.randint(lo, hi))
    return _model(s, a)


def _unit_ring(rng, dim):
    """Ring with weights +-1, +-i: the spectrum stays in [-2, 2]."""
    s, a = _zero(dim), _zero(dim)
    for k in range(dim):
        re, im = rng.choice(UNIT_WEIGHTS)
        _set_entry(s, a, k, (k + 1) % dim, re, im)
    return _model(s, a)


_I_POW = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i**k


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _relabelled_hn(rng, n):
    """H_N (H[k][k+1] = -i, H[N-1][0] = 1) under a random relabelling and
    diagonal fourth-root gauge.  Both keep the dynamics a phased permutation
    of basis rays: ray period N, exact period 4N from the matching start."""
    perm = list(range(n))
    rng.shuffle(perm)
    gauge = [rng.randrange(4) for _ in range(n)]
    s, a = _zero(n), _zero(n)
    edges = [(k, k + 1, (0, -1)) for k in range(n - 1)] + [(n - 1, 0, (1, 0))]
    for r, c, h in edges:
        u, v = perm[r], perm[c]
        re, im = _cmul(h, _I_POW[(gauge[u] - gauge[v]) % 4])
        _set_entry(s, a, u, v, re, im)

    def start(k):
        vec = [[0, 0] for _ in range(n)]
        vec[perm[k]] = list(_I_POW[gauge[perm[k]]])
        return vec

    return _model(s, a), start(0), start(1)


def _random_graph(rng, n_vertices, n_edges):
    pairs = list(itertools.combinations(range(n_vertices), 2))
    return {"n_vertices": n_vertices, "edges": [list(e) for e in rng.sample(pairs, n_edges)]}


def _bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


# =============================================================================
# Workloads
# =============================================================================

SPARSE_DIM = 64
SPARSE_STEPS = 50
BIGINT_DIM = 12
BIGINT_STEPS = 150
TRANSFER_ORDER = 40
MULTITIME_DIMS = (3, 4)
MULTITIME_STEPS = 40
ISING_A = (12, 14, 48)  # vertices, edges, steps
ISING_B_STEPS = 24
ISING_B_CHECKED = (5, 5)  # 10 bits: the dense exponential-form check runs
ISING_B_LARGE = (9, 9)  # 18 bits: the check is skipped
GUP_SITES = 256
GUP_SAMPLES = 40


def sparse_evolve(seed: int, index: int) -> dict:
    rng = _rng("sparse-evolve", seed, index)
    ring = _unit_ring(rng, SPARSE_DIM)
    psi0, psi1 = _vector(rng, SPARSE_DIM, -1, 1), _vector(rng, SPARSE_DIM, -1, 1)
    n = rng.randint(16, 24)
    hn, start0, start1 = _relabelled_hn(rng, n)
    evolve_cfg = {"kind": "evolve", "model": ring, "psi0": psi0, "psi1": psi1,
                  "steps": SPARSE_STEPS, "format": "csv"}
    scan_cfg = {"kind": "ontology-scan", "model": hn, "psi0": start0, "psi1": start1}
    return {
        "calls": [
            _call("evolve", "evolve", evolve_cfg, "evolve.csv"),
            _call("scan", "ontology-scan", scan_cfg, "ontology_scan.json"),
        ],
        "counts": {"gaussian.site_steps": SPARSE_DIM * SPARSE_STEPS + n * 4 * n},
    }


def bigint_transfer(seed: int, index: int) -> dict:
    rng = _rng("bigint-transfer", seed, index)
    model = _dense_model(rng, BIGINT_DIM, -2, 2)
    psi0, psi1 = _vector(rng, BIGINT_DIM, -2, 2), _vector(rng, BIGINT_DIM, -2, 2)
    d1, d2 = MULTITIME_DIMS
    factors = [_dense_model(rng, d1, -2, 2), _dense_model(rng, d2, -2, 2)]
    prev, curr = _vector(rng, d1 * d2, -2, 2), _vector(rng, d1 * d2, -2, 2)
    evolve_cfg = {"kind": "evolve", "model": model, "psi0": psi0, "psi1": psi1,
                  "steps": BIGINT_STEPS, "format": "json"}
    multi_cfg = {"kind": "multitime", "mode": "second_order", "coupling": {"separable": factors},
                 "prev": prev, "curr": curr, "steps": MULTITIME_STEPS}
    # psi[n] = T(n-m+1) psi[m+1] + T(n-m) psi[m], at both ends of the run
    last = BIGINT_STEPS + 1
    pairs = [(m, m + k) for k in range(1, TRANSFER_ORDER) for m in (0, last - k)]
    return {
        "calls": [
            _call("evolve", "evolve", evolve_cfg, "evolve.json"),
            _call("multitime", "multitime", multi_cfg, "multitime.csv"),
        ],
        "library": {"transfer_order": TRANSFER_ORDER, "pairs": pairs},
        "counts": {"gaussian.site_steps": BIGINT_DIM * BIGINT_STEPS + d1 * d2 * MULTITIME_STEPS},
    }


def _ising_b_call(rng, name, n_vertices, n_edges):
    topology = _random_graph(rng, n_vertices, n_edges)
    start = {"vertices": _bits(rng, n_vertices), "edges": _bits(rng, n_edges)}
    cfg = {"kind": "ising-b", "topology": topology, "start": start,
           "steps": ISING_B_STEPS, "edge_rule": "cyclic"}
    return _call(name, "ising-b", cfg, f"{name}.csv")


def spin_perm(seed: int, index: int) -> dict:
    rng = _rng("spin-perm", seed, index)
    n_vertices, n_edges, steps = ISING_A
    topology = _random_graph(rng, n_vertices, n_edges)
    schedule = [list(rng.choice(topology["edges"])) + [rng.choice((1, -1))] for _ in range(steps)]
    a_cfg = {"kind": "ising-a", "topology": topology, "start": _bits(rng, n_vertices),
             "schedule": {"kind": "explicit", "steps": schedule}, "steps": steps}
    calls = [_call("ising_a", "ising-a", a_cfg, "ising_a.csv")]
    calls.append(_ising_b_call(rng, "ising_b10", *ISING_B_CHECKED))
    calls.append(_ising_b_call(rng, "ising_b18", *ISING_B_LARGE))
    basis = (1 << n_vertices) + (1 << sum(ISING_B_CHECKED)) + (1 << sum(ISING_B_LARGE))
    return {"calls": calls, "counts": {"ising.basis_states": basis}}


def lattice_gup(seed: int, index: int) -> dict:
    rng = _rng("lattice-gup", seed, index)
    # A distinct lattice step per job, so operators cannot be reused across jobs.
    scale = rng.uniform(0.5, 1.5)
    calls = []
    for boundary in ("periodic", "open"):
        cfg = {"kind": "gup", "sites": GUP_SITES, "samples": GUP_SAMPLES, "scale": scale,
               "boundary": boundary, "seed": rng.randrange(1 << 31)}
        calls.append(_call(f"gup_{boundary}", "gup", cfg, f"gup_{boundary}.json"))
    return {"calls": calls, "counts": {"gup.site_samples": 2 * GUP_SITES * GUP_SAMPLES}}


GENERATORS = {
    "sparse-evolve": sparse_evolve,
    "bigint-transfer": bigint_transfer,
    "spin-perm": spin_perm,
    "lattice-gup": lattice_gup,
}


def make_job(workload: str, seed: int, index: int) -> dict:
    return GENERATORS[workload](seed, index)
