"""Independent reference results for the benchmark's output gate.

Nothing here imports ontoca.  The exact artifacts (evolve CSV/JSON,
ontology-scan JSON, multitime CSV, spin CSVs) are rebuilt byte for byte
from the job inputs with plain integer arithmetic, so the gate can compare
SHA-256 digests on any seed.  gup.json is rebuilt as a parsed document with
O(M) numpy stencils; its floats are compared within a relative tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

GUP_REL_TOL = 1e-12
GUP_WIDTHS = (4, 6, 8, 12, 16)


# =============================================================================
# Exact integer stepping: psi[n+1] = psi[n-1] - i H psi[n]
# =============================================================================


def _rows(model: dict):
    dim = len(model["S"])
    return [
        [(c, model["S"][r][c], model["A"][r][c]) for c in range(dim)
         if model["S"][r][c] or model["A"][r][c]]
        for r in range(dim)
    ]


def _step(rows, prev, curr):
    out = []
    for (pre, pim), row in zip(prev, rows):
        sre = sim = 0
        for c, hre, him in row:
            vre, vim = curr[c]
            sre += hre * vre - him * vim
            sim += hre * vim + him * vre
        out.append((pre + sim, pim - sre))
    return out


def trajectory(model: dict, psi0, psi1, steps: int):
    """States psi[0] .. psi[steps + 1] as lists of (re, im) pairs."""
    rows = _rows(model)
    states = [[tuple(c) for c in psi0], [tuple(c) for c in psi1]]
    for _ in range(steps):
        states.append(_step(rows, states[-2], states[-1]))
    return states


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _traj_rows(states):
    return [[n, k, re, im] for n, st in enumerate(states) for k, (re, im) in enumerate(st)]


def _correlation(prev, curr) -> int:
    return 2 * sum(a[0] * b[0] + a[1] * b[1] for a, b in zip(curr, prev))


def evolve_artifact(config: dict) -> str:
    states = trajectory(config["model"], config["psi0"], config["psi1"], config["steps"])
    if config["format"] == "csv":
        return _csv(["n", "alpha", "re", "im"], _traj_rows(states))
    q0 = _correlation(states[0], states[1])
    return _json({
        "schema_version": 1,
        "kind": "evolve",
        "dim": len(states[0]),
        "steps": config["steps"],
        "start_index": 0,
        "two_time_correlation": q0,
        "conserved": all(_correlation(a, b) == q0 for a, b in zip(states, states[1:])),
        "rows": _traj_rows(states),
    })


def _basis_ray(state):
    """Index of the only nonzero component, or None for any other state."""
    nonzero = [k for k, c in enumerate(state) if c != (0, 0)]
    return nonzero[0] if len(nonzero) == 1 else None


def ontology_scan_artifact(config: dict):
    """The scan report for a start whose orbit stays on standard basis rays;
    None when the orbit leaves them (the workload never builds such a job)."""
    model, psi0, psi1 = config["model"], config["psi0"], config["psi1"]
    dim = len(psi0)
    rows = _rows(model)
    start = [[tuple(c) for c in psi0], [tuple(c) for c in psi1]]
    states = list(start)
    rays = [_basis_ray(s) for s in states]
    ray_period = state_period = None
    n = 0
    for n in range(1, 64 * dim + 1):
        states.append(_step(rows, states[-2], states[-1]))
        rays.append(_basis_ray(states[-1]))
        if rays[-1] is None:
            return None
        if ray_period is None and rays[n] == rays[0] and rays[n + 1] == rays[1]:
            ray_period = n
        if state_period is None and states[-2:] == start:
            state_period = n
        if ray_period is not None and state_period is not None:
            break
    if ray_period is None or None in rays:
        return None
    return _json({
        "schema_version": 1,
        "kind": "ontology-scan",
        "ontological": True,
        "exact_period": state_period,
        "ray_period": ray_period,
        "ray_cycle": [
            "(" + ", ".join("1" if k == r else "0" for k in range(dim)) + ")"
            for r in rays[:ray_period]
        ],
        "failure_step": None,
        "norm_trace": [sum(re * re + im * im for re, im in s) for s in states[: n + 2]],
    })


def separable_model(factors) -> dict:
    """H1 x 1 + 1 x H2 on the row-major flattened index."""
    (s1, a1), (s2, a2) = ((f["S"], f["A"]) for f in factors)
    d1, d2 = len(s1), len(s2)
    total = d1 * d2
    s = [[0] * total for _ in range(total)]
    a = [[0] * total for _ in range(total)]
    for r1 in range(d1):
        for r2 in range(d2):
            for c1 in range(d1):
                for c2 in range(d2):
                    r, c = r1 * d2 + r2, c1 * d2 + c2
                    if r2 == c2:
                        s[r][c] += s1[r1][c1]
                        a[r][c] += a1[r1][c1]
                    if r1 == c1:
                        s[r][c] += s2[r2][c2]
                        a[r][c] += a2[r2][c2]
    return {"S": s, "A": a}


def multitime_artifact(config: dict) -> str:
    model = separable_model(config["coupling"]["separable"])
    states = trajectory(model, config["prev"], config["curr"], config["steps"])
    rows = [[n, n, k, str(re), str(im)] for n, st in enumerate(states)
            for k, (re, im) in enumerate(st)]
    return _csv(["n1", "n2", "component", "re", "im"], rows)


# =============================================================================
# Spin models
# =============================================================================


def _vertex_string(index, n):
    return "".join(str((index >> k) & 1) for k in range(n))


def _bit_index(bits: str) -> int:
    return sum(int(b) << k for k, b in enumerate(bits))


def _spin_csv(rows) -> str:
    return _csv(["step", "vertex_bits", "edge_bits", "phase_exponent"], rows)


def ising_a_artifact(config: dict) -> str:
    n = config["topology"]["n_vertices"]
    index, phase = _bit_index(config["start"]), 0
    rows = [[0, _vertex_string(index, n), "", 0]]
    for step, (i, j, sign) in enumerate(config["schedule"]["steps"][: config["steps"]], 1):
        index ^= (1 << i) | (1 << j)
        phase = (phase + (3 if sign == 1 else 1)) % 4
        rows.append([step, _vertex_string(index, n), "", phase])
    return _spin_csv(rows)


def ising_b_artifact(config: dict) -> str:
    """Edge-gated transfer (every up edge flips its vertex pair, phase -i),
    then the cyclic shift of the edge register, traced along one orbit."""
    topo = config["topology"]
    n, n_edges = topo["n_vertices"], len(topo["edges"])
    masks = [(1 << i) | (1 << j) for i, j in topo["edges"]]
    vertices = _bit_index(config["start"]["vertices"])
    pattern = _bit_index(config["start"]["edges"])
    emask = (1 << n_edges) - 1
    phase = 0
    rows = []
    for step in range(config["steps"] + 1):
        rows.append([step, _vertex_string(vertices, n), _vertex_string(pattern, n_edges), phase])
        for e in range(n_edges):
            if (pattern >> e) & 1:
                vertices ^= masks[e]
        if n_edges >= 2:
            pattern = ((pattern << 1) | (pattern >> (n_edges - 1))) & emask
        phase = (phase + 3) % 4
    return _spin_csv(rows)


EXACT_ARTIFACTS = {
    "evolve": evolve_artifact,
    "ontology-scan": ontology_scan_artifact,
    "multitime": multitime_artifact,
    "ising-a": ising_a_artifact,
    "ising-b": ising_b_artifact,
}


# =============================================================================
# Lattice uncertainty reports (floats)
# =============================================================================


class _Lattice:
    """X is diagonal and P the central difference, as O(M) stencils."""

    def __init__(self, sites: int, scale: float, boundary: str):
        self.labels = np.arange(-(sites // 2), sites - sites // 2)
        self.scale = scale
        self.periodic = boundary == "periodic"

    def x(self, psi):
        return (self.scale * self.labels) * psi

    def p(self, psi):
        coeff = 1.0 / (2.0 * self.scale)
        up = np.roll(psi, -1)
        down = np.roll(psi, 1)
        if not self.periodic:
            up[-1] = 0.0
            down[0] = 0.0
        return (-1j * coeff) * up + (1j * coeff) * down

    @staticmethod
    def spread(psi, applied):
        mean = float(np.vdot(psi, applied).real)
        var = float(np.vdot(applied, applied).real) - mean * mean
        return math.sqrt(max(var, 0.0))

    def report(self, psi):
        xp, pp = self.x(psi), self.p(psi)
        dx, dp = self.spread(psi, xp), self.spread(psi, pp)
        p2 = float(np.vdot(pp, pp).real)
        comm = self.x(pp) - self.p(xp)
        robertson_rhs = abs(complex(np.vdot(psi, comm))) / 2.0
        deformed_rhs = 0.5 * abs(1.0 + (self.scale**2 / 2.0) * p2)
        lhs = dx * dp
        return {
            "delta_x": dx,
            "delta_p": dp,
            "product": lhs,
            "deformed_rhs": deformed_rhs,
            "robertson_rhs": robertson_rhs,
            "satisfies_deformed_bound": lhs >= deformed_rhs - 1e-12,
            "robertson_holds": lhs >= robertson_rhs - 1e-12,
        }


def _normalized(amp):
    return amp / float(np.linalg.norm(amp))


def gup_document(config: dict) -> dict:
    sites, scale, boundary = config["sites"], float(config["scale"]), config["boundary"]
    samples, seed = config["samples"], config["seed"]
    lattice = _Lattice(sites, scale, boundary)
    rng = np.random.default_rng(seed)
    violations = holds = 0
    for _ in range(samples):
        amp = rng.standard_normal(sites) + 1j * rng.standard_normal(sites)
        rep = lattice.report(_normalized(amp))
        violations += not rep["robertson_holds"]
        holds += rep["satisfies_deformed_bound"]
    widths = [float(w) for w in GUP_WIDTHS if w <= sites / 8]
    family = []
    for w in widths:
        env = np.exp(-(lattice.labels.astype(float) ** 2) / (4.0 * w**2)).astype(complex)
        rep = lattice.report(_normalized(env))
        family.append({"width": w, **{k: rep[k] for k in (
            "delta_x", "delta_p", "product", "deformed_rhs", "robertson_rhs",
            "satisfies_deformed_bound")}})
    satisfying = [m for m in family if m["satisfies_deformed_bound"]]
    realized = min(satisfying, key=lambda m: m["delta_x"])["delta_x"] if satisfying else None
    argmin = math.sqrt(2.0) / scale
    bound_min = 1.0 / (2.0 * argmin) + (scale**2 / 4.0) * argmin
    sharp_amp = np.zeros(sites, dtype=complex)
    sharp_amp[sites // 2] = 1.0
    sharp = lattice.report(sharp_amp)
    return {
        "schema_version": 1,
        "kind": "gup",
        "sites": sites,
        "scale": scale,
        "boundary": boundary,
        "samples": samples,
        "seed": seed,
        "robertson_violations": violations,
        "paper_bound_holds_fraction": holds / samples,
        "realized_min_dx": realized,
        "bound_min_dx": bound_min,
        "best_tightness": max(m["product"] / m["deformed_rhs"] for m in family),
        "family": family,
        "sharp_state_counterexample": {
            "product": sharp["product"],
            "deformed_rhs": sharp["deformed_rhs"],
            "satisfies_deformed_bound": sharp["satisfies_deformed_bound"],
        },
    }


def compare_documents(got, want, path: str = "") -> list[str]:
    """Differences between two parsed JSON documents: exact for ints, bools,
    strings and null, within GUP_REL_TOL relative for floats."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path or '/'}: keys {list(got) if isinstance(got, dict) else got!r}"]
        return [d for k in want for d in compare_documents(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for k, (g, w) in enumerate(zip(got, want))
                for d in compare_documents(g, w, f"{path}/{k}")]
    if isinstance(want, float) and type(got) in (int, float):
        if abs(got - want) <= GUP_REL_TOL * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} vs {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} vs {want!r}"]
    return []
