"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line on success (visible with -s or -rA);
a failure raises with the offending numbers.  Tolerances are pinned here,
not configurable.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ontoca import gup, ising, multitime, ontology, propagator
from ontoca.gaussian import (
    CAPairState,
    GaussianInt,
    GaussianIntVector,
    evolve,
    stream,
    two_time_correlation,
)
from ontoca.propagator import DiscretenessScale
from ontoca.serialize import dumps_json
from ontoca.verify import (
    random_model,
    random_subcritical_model,
    random_vector,
    run_all,
)


def report(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def best_time(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def gvec(*pairs):
    return GaussianIntVector(GaussianInt(r, i) for r, i in pairs)


def test_criterion_01_published_sequence_reproduced_exactly():
    model = ontology.preset_hamiltonian("H2")
    pair = CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1))
    traj, elapsed = best_time(lambda: evolve(pair, model, steps=12))
    expected = [
        gvec((1, 0), (0, 0)),
        gvec((0, 0), (1, 0)),
        gvec((1, -1), (0, 0)),   # (1 - i) psi0
        gvec((0, 0), (0, -1)),   # -i psi1
        gvec((0, -1), (0, 0)),   # -i psi0
        gvec((0, 0), (-1, -1)),  # -(1 + i) psi1
        gvec((-1, 0), (0, 0)),   # -psi0
        gvec((0, 0), (-1, 0)),   # -psi1
    ]
    for n, want in enumerate(expected):
        assert traj.state_at(n) == want, f"state {n} differs"
    assert traj.state_at(12) == traj.state_at(0)
    assert traj.state_at(13) == traj.state_at(1)
    assert elapsed < 1e-3, f"iteration took {elapsed * 1e3:.3f} ms (budget 1 ms)"
    report("01 published-sequence", f"(runtime {elapsed * 1e6:.0f} us)")


def test_criterion_02_ring_presets_are_ontological():
    def detect_both():
        out = {}
        for name in ("H3", "H4"):
            model = ontology.preset_hamiltonian(name)
            out[name] = ontology.detect_phased_permutation(
                model,
                GaussianIntVector.basis(model.dim, 0),
                GaussianIntVector.basis(model.dim, 1),
                ontology.standard_basis_rays(model.dim),
            )
        return out

    reports, elapsed = best_time(detect_both)
    for name, expected_period in (("H3", 12), ("H4", 16)):
        model = ontology.preset_hamiltonian(name)
        rep = reports[name]
        assert rep.is_ontological, f"{name} not detected as ontological"
        assert rep.ray_period == model.dim, f"{name} ray cycle incomplete"
        assert len(set(rep.ray_cycle)) == model.dim
        assert rep.exact_state_period == expected_period
        # every iterate a unit-phase basis multiple: unit norms, unit phases
        traj = evolve(
            CAPairState(
                GaussianIntVector.basis(model.dim, 0),
                GaussianIntVector.basis(model.dim, 1),
            ),
            model,
            steps=2 * expected_period,
        )
        assert all(q == 1 for q in ontology.norm_trace(traj))
        assert all(phase.norm_sq() == 1 for phase in rep.phase_log)
    assert elapsed < 1e-2, f"detection took {elapsed * 1e3:.2f} ms (budget 10 ms)"
    report("02 ring-preset-ontology", f"(runtime {elapsed * 1e3:.2f} ms)")


def test_criterion_03_closed_form_and_transfer_match_iteration():
    rng = random.Random(303)
    t0 = time.perf_counter()
    worst_rel = 0.0
    for _ in range(20):
        dim = rng.randint(2, 6)
        model = random_subcritical_model(rng, dim)
        pair = CAPairState(random_vector(rng, dim, -2, 2), random_vector(rng, dim, -2, 2), index_n=1)
        traj = evolve(pair, model, steps=100)
        for n in range(0, 101, 5):
            exact = traj.state_at(n).as_complex()
            approx = propagator.closed_form_state(model, pair.psi_prev, pair.psi_curr, n)
            for e, ap in zip(exact, approx):
                rel = abs(e - ap) / max(1.0, abs(e))
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-8, f"closed form off by {rel:g} at n={n}"
        seq = propagator.transfer_sequence(model, 32)
        for m in range(0, 30):
            for n in range(m + 1, 31):
                composed = seq[n - m + 1].apply(traj.state_at(m + 1)) + seq[n - m].apply(
                    traj.state_at(m)
                )
                assert composed == traj.state_at(n), f"transfer form differs at (m={m}, n={n})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f} s (budget 5 s)"
    report("03 closed-form-vs-iteration", f"(max rel err {worst_rel:.2e}, {elapsed:.1f} s)")


def test_criterion_04_two_time_correlation_conserved():
    rng = random.Random(404)
    t0 = time.perf_counter()
    for _ in range(50):
        dim = rng.randint(2, 8)
        model = random_model(rng, dim, -3, 3)
        pair = CAPairState(random_vector(rng, dim), random_vector(rng, dim))
        q0 = two_time_correlation(pair)
        walker = stream(pair, model)
        for k in range(1000):
            q = two_time_correlation(next(walker))
            assert q == q0, f"Q drifted from {q0} to {q} at step {k + 1}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s (budget 10 s)"
    report("04 conservation", f"(50 models x 1000 steps, {elapsed:.1f} s)")


def test_criterion_05_dispersion_stationary_modes():
    rng = random.Random(505)
    models = [ontology.preset_hamiltonian(n) for n in ("H2", "H3", "H4")]
    models += [random_model(rng, rng.randint(2, 5)) for _ in range(5)]
    worst = 0.0
    modes = 0
    for model in models:
        dec = propagator.phi_operator(model)
        h = model.as_complex_array()
        for k, lam in enumerate(dec.eigenvalues):
            if abs(lam) > 2:
                continue
            omega = propagator.dispersion_omega(lam)
            assert abs(2 * np.sin(omega) - lam) < 1e-12
            vec = dec.eigenvectors[:, k]
            for n in range(1, 100):
                res = (
                    np.exp(-1j * omega * (n + 1)) * vec
                    - np.exp(-1j * omega * (n - 1)) * vec
                    + 1j * (h @ (np.exp(-1j * omega * n) * vec))
                )
                worst = max(worst, float(np.max(np.abs(res))))
            modes += 1
    assert modes >= 9
    assert worst <= 1e-10, f"stationary residual {worst:g} exceeds 1e-10"
    report("05 dispersion", f"({modes} modes, max residual {worst:.2e})")


def test_criterion_06_multitime_products_and_correlations():
    rng = random.Random(606)
    for _ in range(3):
        d1 = rng.randint(2, 4)
        d2 = rng.randint(2, 4)
        m1 = random_model(rng, d1, -2, 2)
        m2 = random_model(rng, d2, -2, 2)
        t1 = evolve(CAPairState(random_vector(rng, d1), random_vector(rng, d1)), m1, 18)
        t2 = evolve(CAPairState(random_vector(rng, d2), random_vector(rng, d2)), m2, 18)
        h = multitime.TensorHamiltonian.separable(m1, m2)
        field = multitime.product_field(t1, t2)
        interior = multitime.interior_points(field)
        assert len(interior) == 18 * 18
        for point in interior:
            res = multitime.equation_residual(field, h, point)
            assert all(r.is_zero() for r in res), f"nonzero residual at {point}"
        # first-order update on an uncorrelated product state
        state = [0] * (d1 * d2)
        state[0] = 1
        if all(row[0].is_zero() for row in m1.h_matrix[1:]):
            continue  # degenerate draw: first column couples to nothing
        run = multitime.sync_first_order(state, h, steps=1)
        rank = multitime.schmidt_rank(run[1], (d1, d2))
        assert rank == 2, f"expected correlation generation, got rank {rank}"
    report("06 multitime-products", "(20x20 domains, rank-2 after one step)")


def test_criterion_07_transfer_map_structure():
    t0 = time.perf_counter()
    rng = random.Random(707)
    suite = [
        ising.GraphTopology.fully_connected(2),
        ising.GraphTopology.fully_connected(3),
        ising.GraphTopology.fully_connected(4),  # 10 bits
        ising.GraphTopology.ring(3),
        ising.GraphTopology.ring(4),
        ising.GraphTopology.ring(5),             # 10 bits
        ising.GraphTopology.path(2),
        ising.GraphTopology.path(3),
        ising.GraphTopology.path(4),
        ising.GraphTopology.path(5),
        ising.GraphTopology(4, ((0, 1), (1, 2), (2, 3), (0, 2))),
        ising.GraphTopology(5, ((0, 1), (2, 3), (1, 4), (0, 4))),  # 9 bits
    ]
    assert all(t.total_bits <= 10 for t in suite)
    worst_dev = 0.0
    for topo in suite:
        transfer = ising.model_b_transfer(topo)
        dense = transfer.to_dense()
        for axis in (0, 1):
            counts = np.count_nonzero(dense, axis=axis)
            assert np.all(counts == 1), f"{topo} not a permutation along axis {axis}"
        nonzero = dense[dense != 0]
        assert np.all(np.abs(nonzero) == 1.0), f"{topo} has non-unit entries"
        assert transfer.is_unitary(), f"{topo} transfer not unitary"
        dev = ising.verify_exponential_form(topo)
        worst_dev = max(worst_dev, dev)
        assert dev <= 1e-9, f"{topo} exponential deviation {dev:g}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f} s (budget 30 s)"
    report(
        "07 transfer-map-structure",
        f"({len(suite)} topologies, max dev {worst_dev:.2e}, {elapsed:.1f} s)",
    )


def test_criterion_08_product_rule_identity():
    rng = random.Random(808)
    naive_failures = 0
    for _ in range(100):
        length = rng.randint(5, 9)
        seq1 = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(length)]
        seq2 = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(length)]
        rep = multitime.leibniz_identity_check(seq1, seq2)
        assert rep.modified_exact, "corrected product rule must be exact"
        if not rep.naive_exact:
            naive_failures += 1
    assert naive_failures >= 95, f"naive rule failed only {naive_failures}/100 times"
    report("08 product-rule", f"(naive rule failed {naive_failures}/100)")


def test_criterion_09_uncertainty_reports():
    scale = DiscretenessScale(1.0)
    x = gup.position_operator(64, scale)
    p = gup.momentum_operator(64, scale)
    violations = sum(
        int((~gup.robertson_check(block, x, p).holds).sum())
        for block in gup.random_states(64, 1000, seed=909)
    )
    assert violations == 0, f"{violations} Robertson violations"

    closed, argmin = gup.bound_minimum(scale)
    assert abs(closed - 1 / math.sqrt(2)) <= 1e-12
    lo, hi = 1e-3, 1e3
    for _ in range(300):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if gup.bound_curve(m1, scale) < gup.bound_curve(m2, scale):
            hi = m2
        else:
            lo = m1
    assert abs(gup.bound_curve((lo + hi) / 2, scale) - closed) <= 1e-12

    # deformed bound reported per family; sharp state is the documented
    # counterexample (zero spread against a positive right-hand side)
    sharp = gup.gup_bound_report(gup.single_site_state(64, 0), scale)
    assert sharp.lhs < sharp.deformed_rhs
    assert not sharp.satisfies_deformed_bound
    family = gup.minimize_delta_x(scale, widths=(4, 6, 8, 12, 16), sites=256)
    for member in family.members:
        assert member.lhs >= member.robertson_rhs - 1e-12
    report(
        "09 uncertainty",
        f"(0 violations, bound min {closed:.12f}, family tightness {family.best_tightness:.4f})",
    )


def test_criterion_10_verify_all_determinism():
    first = dumps_json(run_all(seed=11))
    second = dumps_json(run_all(seed=11))
    assert first == second, "verify-all reports differ between runs"
    assert '"all_passed": true' in first
    report("10 determinism", f"({len(first)} bytes, identical)")
