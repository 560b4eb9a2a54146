"""Deterministic invariant battery behind the verify-all command.

Every check is pure given the master seed, so two runs with the same seed
produce byte-identical reports.  Checks favour exact assertions (integer or
rational equality) wherever the underlying arithmetic is exact.
"""

from __future__ import annotations

import logging
import math
import random
import time

import numpy as np

from . import gup, ising, multitime, ontology, propagator
from .gaussian import (
    CAPairState,
    GaussianInt,
    GaussianIntVector,
    HamiltonianModel,
    build_hamiltonian,
    evolve,
    step,
    stream,
    to_xp,
    two_time_correlation,
)
from .numerics import max_abs
from .propagator import DiscretenessScale

log = logging.getLogger("ontoca")

SUBCRITICAL_RADIUS = 1.9  # spectral radius bound of random_subcritical_model
SUBCRITICAL_ATTEMPTS = 2000

EXPECTED_PAIR_FLIP_STATES = [
    # scalar multiples (re, im) of alternating basis vectors, from the exact
    # hand iteration of the two-state model
    ((1, 0), 0),
    ((1, 0), 1),
    ((1, -1), 0),
    ((0, -1), 1),
    ((0, -1), 0),
    ((-1, -1), 1),
    ((-1, 0), 0),
    ((-1, 0), 1),
]


# =============================================================================
# Seeded generators
# =============================================================================


def random_model(rng: random.Random, dim: int, lo: int = -3, hi: int = 3) -> HamiltonianModel:
    s = [[0] * dim for _ in range(dim)]
    a = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r, dim):
            s[r][c] = s[c][r] = rng.randint(lo, hi)
            if c > r:
                val = rng.randint(lo, hi)
                a[r][c] = val
                a[c][r] = -val
    return build_hamiltonian(s, a)


def random_vector(rng: random.Random, dim: int, lo: int = -5, hi: int = 5) -> GaussianIntVector:
    return GaussianIntVector((rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(dim))


def random_subcritical_model(rng: random.Random, dim: int) -> HamiltonianModel:
    """Rejection-sample sparse integer models with spectrum inside
    |lambda| <= SUBCRITICAL_RADIUS.

    Dense +/-1 matrices almost always exceed the critical eigenvalue 2, so
    candidates carry only a few nonzero couplings.
    """
    for _ in range(SUBCRITICAL_ATTEMPTS):
        s = [[0] * dim for _ in range(dim)]
        a = [[0] * dim for _ in range(dim)]
        for _ in range(rng.randint(1, dim)):
            r = rng.randrange(dim)
            c = rng.randrange(dim)
            val = rng.choice((-1, 1))
            if r == c:
                s[r][r] = val
            elif rng.random() < 0.5:
                s[r][c] = s[c][r] = val
            else:
                r, c = min(r, c), max(r, c)
                a[r][c] = val
                a[c][r] = -val
        model = build_hamiltonian(s, a)
        evals = np.linalg.eigvalsh(model.as_complex_array())
        if 1e-9 < max_abs(evals) <= SUBCRITICAL_RADIUS:
            return model
    raise RuntimeError(
        f"no subcritical model of dim {dim} found in {SUBCRITICAL_ATTEMPTS} draws"
    )


# =============================================================================
# Individual checks
# =============================================================================


def check_pair_flip_sequence(seed: int):
    model = ontology.preset_hamiltonian("H2")
    pair = CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1))
    traj = evolve(pair, model, steps=12)
    ok = True
    for n, (scalar, axis) in enumerate(EXPECTED_PAIR_FLIP_STATES):
        expected = GaussianIntVector.basis(2, axis).scaled(GaussianInt(*scalar))
        ok = ok and traj.state_at(n) == expected
    ok = ok and traj.state_at(12) == traj.state_at(0) and traj.state_at(13) == traj.state_at(1)
    return ok, {"states_checked": len(EXPECTED_PAIR_FLIP_STATES), "period": 12}


def check_ring_presets_ontological(seed: int):
    details = {}
    ok = True
    for name, expected_period in (("H3", 12), ("H4", 16)):
        model = ontology.preset_hamiltonian(name)
        report = ontology.detect_phased_permutation(
            model,
            GaussianIntVector.basis(model.dim, 0),
            GaussianIntVector.basis(model.dim, 1),
            ontology.standard_basis_rays(model.dim),
        )
        traj = evolve(
            CAPairState(
                GaussianIntVector.basis(model.dim, 0), GaussianIntVector.basis(model.dim, 1)
            ),
            model,
            steps=2 * expected_period,
        )
        norms = ontology.norm_trace(traj)
        full_cycle = report.ray_period == model.dim and len(set(report.ray_cycle)) == model.dim
        ok = ok and report.is_ontological and full_cycle
        ok = ok and report.exact_state_period == expected_period
        ok = ok and all(q == 1 for q in norms)
        details[name] = {
            "ontological": report.is_ontological,
            "ray_period": report.ray_period,
            "exact_period": report.exact_state_period,
            "unit_norms": all(q == 1 for q in norms),
        }
    return ok, details


def check_reversibility(seed: int):
    rng = random.Random(seed)
    cases = 0
    ok = True
    for _ in range(20):
        dim = rng.randint(2, 5)
        model = random_model(rng, dim)
        pair = CAPairState(random_vector(rng, dim), random_vector(rng, dim), index_n=rng.randint(-3, 3))
        fwd = pair
        for _ in range(15):
            fwd = step(fwd, model, "forward")
        back = fwd
        for _ in range(15):
            back = step(back, model, "backward")
        ok = ok and back == pair
        cases += 1
    return ok, {"cases": cases, "steps_each_way": 15}


def check_conservation(seed: int):
    rng = random.Random(seed)
    ok = True
    models = 0
    for _ in range(10):
        dim = rng.randint(2, 6)
        model = random_model(rng, dim, -2, 2)
        pair = CAPairState(random_vector(rng, dim), random_vector(rng, dim))
        q0 = two_time_correlation(pair)
        walker = stream(pair, model)
        for _ in range(300):
            ok = ok and two_time_correlation(next(walker)) == q0
        models += 1
    return ok, {"models": models, "steps": 300}


def check_xp_equivalence(seed: int):
    rng = random.Random(seed)
    ok = True
    for _ in range(5):
        dim = rng.randint(2, 5)
        model = random_model(rng, dim, -2, 2)
        traj = evolve(
            CAPairState(random_vector(rng, dim), random_vector(rng, dim)), model, steps=40
        )
        for n in range(traj.start_index + 1, traj.start_index + len(traj) - 1):
            x_prev, p_prev = to_xp(traj.state_at(n - 1))
            x_cur, p_cur = to_xp(traj.state_at(n))
            x_next, p_next = to_xp(traj.state_at(n + 1))
            # S[alpha][b] and A[alpha][b] are the re and im of H's row entries
            for alpha, row in enumerate(model.h_rows):
                sx = sum(s * p_cur[b] for b, s, _ in row)
                ax = sum(a * x_cur[b] for b, _, a in row)
                ok = ok and (x_next[alpha] - x_prev[alpha]) == sx + ax
                sp = sum(s * x_cur[b] for b, s, _ in row)
                ap = sum(a * p_cur[b] for b, _, a in row)
                ok = ok and (p_next[alpha] - p_prev[alpha]) == -sp + ap
    return ok, {"models": 5, "steps": 40}


def check_closed_form_agreement(seed: int):
    rng = random.Random(seed)
    worst = 0.0
    ok = True
    for _ in range(6):
        dim = rng.randint(2, 5)
        model = random_subcritical_model(rng, dim)
        pair = CAPairState(random_vector(rng, dim, -2, 2), random_vector(rng, dim, -2, 2))
        traj = evolve(pair, model, steps=100)
        for n in range(0, 101, 7):
            exact = np.array(traj.state_at(n).as_complex())
            approx = propagator.closed_form_state(model, pair.psi_prev, pair.psi_curr, n)
            err = max(
                abs(e - ap) / max(1.0, abs(e)) for e, ap in zip(exact, approx)
            )
            worst = max(worst, err)
            ok = ok and err <= 1e-8
    return ok, {"models": 6, "max_relative_error": worst}


def check_transfer_composition(seed: int):
    rng = random.Random(seed)
    ok = True
    for _ in range(3):
        dim = rng.randint(2, 4)
        model = random_model(rng, dim, -2, 2)
        pair = CAPairState(random_vector(rng, dim, -2, 2), random_vector(rng, dim, -2, 2), index_n=1)
        traj = evolve(pair, model, steps=20)
        seq = propagator.transfer_sequence(model, 31)
        # composition property on the trajectory
        for m in range(0, 20):
            for n in range(m + 1, 21):
                lhs = traj.state_at(n)
                rhs = seq[n - m + 1].apply(traj.state_at(m + 1)) + seq[n - m].apply(
                    traj.state_at(m)
                )
                ok = ok and lhs == rhs
        # three-term recursion identity, rechecked via independent multiplication
        h = model.h_matrix
        for k in range(1, 31):
            before, at, after = (seq[j].matrix for j in (k - 1, k, k + 1))
            for r in range(dim):
                for c in range(dim):
                    acc = GaussianInt(0, 0)
                    for t in range(dim):
                        acc = acc + h[r][t] * at[t][c]
                    expect = before[r][c] + acc.times_minus_i()
                    ok = ok and after[r][c] == expect
    return ok, {"models": 3, "pairs_checked": "0<=m<n<=20", "recursion_orders": 30}


def check_dispersion_stationary(seed: int):
    rng = random.Random(seed)
    models = [ontology.preset_hamiltonian(n) for n in ("H2", "H3", "H4")]
    models.append(random_subcritical_model(rng, 4))
    worst = 0.0
    ok = True
    modes = 0
    for model in models:
        dec = propagator.phi_operator(model)
        h = model.as_complex_array()
        for k, lam in enumerate(dec.eigenvalues):
            if abs(lam) > 2:
                continue
            omega, vec = dec.phi_eigenvalues[k], dec.eigenvectors[:, k]
            for n in range(1, 100):
                worst = max(worst, propagator.stationary_residual(h, omega, vec, n))
            modes += 1
    ok = worst <= 1e-10 and modes > 0
    return ok, {"modes": modes, "max_residual": worst}


def check_continuum_convergence(seed: int):
    model = ontology.preset_hamiltonian("H2")
    rows = propagator.continuum_limit_check(model, [1, 0], (0.2, 0.1, 0.05), 2.0)
    devs = [dev for _, _, dev in rows]
    monotone = all(devs[k] > devs[k + 1] for k in range(len(devs) - 1))
    ratios = [devs[k] / devs[k + 1] for k in range(len(devs) - 1)]
    ok = monotone and all(r >= 1.8 for r in ratios)
    return ok, {
        "deviations": devs,
        "ratios": ratios,
    }


def _product_setup(rng: random.Random, steps: int = 13):
    m1 = random_model(rng, 2, -2, 2)
    m2 = random_model(rng, 3, -2, 2)
    t1 = evolve(CAPairState(random_vector(rng, 2, -2, 2), random_vector(rng, 2, -2, 2)), m1, steps)
    t2 = evolve(CAPairState(random_vector(rng, 3, -2, 2), random_vector(rng, 3, -2, 2)), m2, steps)
    h = multitime.TensorHamiltonian.separable(m1, m2)
    field = multitime.product_field(t1, t2)
    return m1, m2, t1, t2, h, field


def check_multitime_product(seed: int):
    rng = random.Random(seed)
    m1, m2, t1, t2, h, field = _product_setup(rng)
    interior = multitime.interior_points(field)
    ok = len(interior) > 50
    for point in interior:
        res = multitime.equation_residual(field, h, point)
        ok = ok and all(r.is_zero() for r in res)
    # line propagation must reproduce the product solution exactly
    lo = t1.start_index
    n2_range = range(t2.start_index, t2.start_index + len(t2))
    two_lines = field.restricted(
        [(lo, n2) for n2 in n2_range] + [(lo + 1, n2) for n2 in n2_range]
    )
    stepped = multitime.propagate_line(two_lines, h, axis="n1", direction=1)
    new_points = [p for p in stepped.points() if p[0] == lo + 2]
    ok = ok and len(new_points) == len(t2) - 2
    for p in new_points:
        ok = ok and stepped.get(p) == field.get(p)
    return ok, {"interior_points": len(interior), "line_points_reproduced": len(new_points)}


def check_multitime_diagonal(seed: int):
    rng = random.Random(seed)
    m1, m2, t1, t2, h, field = _product_setup(rng)
    s = t1.start_index + t2.start_index + 4
    diag_points = [p for p in field.points() if p[0] + p[1] in (s - 1, s)]
    base = field.restricted(diag_points)
    candidates = sorted(p for p in field.points() if p[0] + p[1] == s + 1)
    extra = candidates[len(candidates) // 2]
    stepped = multitime.propagate_diagonal(base, h, extra, field.get(extra))
    new_points = [p for p in stepped.points() if p[0] + p[1] == s + 1]
    ok = len(new_points) >= 2
    for p in new_points:
        ok = ok and stepped.get(p) == field.get(p)
    # a different seed value must change every determined point
    shifted = tuple(c + 1 for c in field.get(extra))
    other = multitime.propagate_diagonal(base, h, extra, shifted)
    for p in new_points:
        ok = ok and other.get(p) != stepped.get(p)
    return ok, {"determined_points": len(new_points), "seed_point": list(extra)}


def check_first_order_modes(seed: int):
    sigma1 = ((0, 1), (1, 0))
    h_int = multitime.TensorHamiltonian.separable(sigma1, sigma1)
    # interacting flip-flip coupling: e00 -> -i e11 -> -e00 -> ...
    h_pair = multitime.TensorHamiltonian.general(
        [
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
        ],
        dims=(2, 2),
    )
    run = multitime.sync_first_order([1, 0, 0, 0], h_pair, steps=4)
    period4 = run[4] == run[0] and run[2] != run[0]
    ranks = [multitime.schmidt_rank(st, (2, 2)) for st in run]
    sep_run = multitime.sync_first_order([1, 0, 0, 0], h_int, steps=1)
    rank_after = multitime.schmidt_rank(sep_run[1], (2, 2))
    norm0 = multitime.norm_sq_exact(run[0])
    norms_equal = all(multitime.norm_sq_exact(st) == norm0 for st in run)
    ok = period4 and all(r == 1 for r in ranks) and rank_after == 2 and norms_equal
    return ok, {
        "pair_coupling_period": 4,
        "separable_rank_after_one_step": rank_after,
        "norm_preserved": norms_equal,
    }


def check_leibniz(seed: int):
    rng = random.Random(seed)
    from fractions import Fraction

    pairs = 30
    naive_failures = 0
    ok = True
    for _ in range(pairs):
        seq1 = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]
        seq2 = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]
        report = multitime.leibniz_identity_check(seq1, seq2)
        ok = ok and report.modified_exact
        if not report.naive_exact:
            naive_failures += 1
    ok = ok and naive_failures >= int(0.95 * pairs)
    return ok, {"pairs": pairs, "naive_failures": naive_failures}


def check_spin_transfer_structure(seed: int):
    rng = random.Random(seed)
    topologies = {
        "fully_connected_2": ising.GraphTopology.fully_connected(2),
        "fully_connected_3": ising.GraphTopology.fully_connected(3),
        "ring_4": ising.GraphTopology.ring(4),
        "path_4": ising.GraphTopology.path(4),
    }
    details = {}
    ok = True
    for name, topo in topologies.items():
        transfer = ising.model_b_transfer(topo)
        unitary = transfer.is_unitary()
        order = list(range(topo.n_edges))
        rng.shuffle(order)
        size = 1 << topo.total_bits
        reordered = ising.PhasedPermutation(tuple(range(size)), (3,) * size)
        for e in order:
            reordered = ising.model_b_factor(topo, e).compose_after(reordered)
        order_free = reordered == transfer
        deviation = ising.verify_exponential_form(topo)
        ok = ok and unitary and order_free and deviation <= 1e-9
        details[name] = {
            "bits": topo.total_bits,
            "unitary": unitary,
            "edge_order_free": order_free,
            "exponential_deviation": deviation,
        }
    return ok, details


def check_driven_flips(seed: int):
    topo = ising.GraphTopology.path(3)
    schedule = ising.Schedule.periodic([(0, 1), (1, 2)])
    steps = 12
    run = ising.model_a_evolve(topo, 0, schedule, steps)
    # vertex bits 110 then 101, vertex k as bit k
    first_flips = run[1][0] == 0b011 and run[2][0] == 0b101
    matches = ising.model_a_composition_holds(topo, schedule, run)
    return first_flips and matches, {
        "steps": steps,
        "first_flips": first_flips,
        "matches_composed_operator": matches,
    }


def check_projector_identity(seed: int):
    ok = all(ising.projector_identity_check(k) for k in (1, 2, 7))
    return ok, {"orders": [1, 2, 7]}


def check_gauge_candidates(seed: int):
    topo = ising.GraphTopology.ring(3)
    flip_commutes, flip_dev = ising.gauge_check(ising.global_vertex_flip(topo), topo)
    sign_commutes, sign_dev = ising.gauge_check(ising.vertex_sign_flip(topo, 0), topo)
    ok = flip_commutes and flip_dev == 0.0 and not sign_commutes and sign_dev > 0.5
    return ok, {
        "global_flip_commutes": flip_commutes,
        "single_vertex_sign_commutes": sign_commutes,
        "sign_flip_commutator": sign_dev,
    }


def check_edge_rules(seed: int):
    topo = ising.GraphTopology.fully_connected(2)
    transfer = ising.model_b_transfer(topo)
    frozen_rule = ising.lift_pattern_rule(topo, ising.frozen_pattern_rule(topo))
    frozen = ising.edge_update_compose(transfer, frozen_rule, topo)
    start = 0b100  # vertices 00, the one edge up
    index, phase = start, 0
    period = None
    for k in range(1, 9):
        index, ph = frozen.apply(index)
        phase = (phase + ph) % 4
        if index == start and phase == 0:
            period = k
            break
    ring = ising.GraphTopology.ring(3)
    cyclic_rule = ising.lift_pattern_rule(ring, ising.cyclic_pattern_rule(ring))
    shifted = ising.edge_update_compose(ising.model_b_transfer(ring), cyclic_rule, ring)
    ok = period == 4 and shifted.is_unitary()
    return ok, {"frozen_edge_period": period, "shift_rule_unitary": shifted.is_unitary()}


def check_robertson(seed: int):
    scale = DiscretenessScale(1.0)
    x = gup.position_operator(64, scale)
    p = gup.momentum_operator(64, scale)
    violations = sum(int((~gup.robertson_check(block, x, p).holds).sum())
                     for block in gup.random_states(64, 300, seed))
    return violations == 0, {"states": 300, "violations": violations}


def check_bound_minimum(seed: int):
    scale = DiscretenessScale(1.0)
    closed, argmin = gup.bound_minimum(scale)
    exact = 1.0 / math.sqrt(2.0)
    # independent one-dimensional ternary search over the bound curve
    lo, hi = 1e-3, 1e3
    for _ in range(300):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if gup.bound_curve(m1, scale) < gup.bound_curve(m2, scale):
            hi = m2
        else:
            lo = m1
    numeric = gup.bound_curve((lo + hi) / 2, scale)
    ok = abs(closed - exact) <= 1e-12 and abs(numeric - exact) <= 1e-10
    return ok, {"closed_form": closed, "numeric_minimum": numeric, "argmin_dp": argmin}


def check_bound_reports(seed: int):
    scale = DiscretenessScale(1.0)
    sharp = gup.single_site_state(64, 0)
    sharp_report = gup.gup_bound_report(sharp, scale)
    counterexample = (
        not sharp_report.satisfies_deformed_bound and sharp_report.lhs < sharp_report.deformed_rhs
    )
    sharp_robertson = sharp_report.lhs >= sharp_report.robertson_rhs - 1e-12
    report = gup.minimize_delta_x(scale, widths=(4, 6, 8, 12, 16), sites=256)
    gaussians_robertson = all(m.lhs >= m.robertson_rhs - 1e-12 for m in report.members)
    ok = counterexample and sharp_robertson and gaussians_robertson
    return ok, {
        "sharp_state_violates_deformed_bound": counterexample,
        "bound_min_dx": report.bound_min_dx,
        "realized_min_dx": report.realized_min_dx,
        "best_tightness": report.best_tightness,
    }


CHECKS = [
    ("pair_flip_sequence", check_pair_flip_sequence),
    ("ring_presets_ontological", check_ring_presets_ontological),
    ("reversibility", check_reversibility),
    ("two_time_conservation", check_conservation),
    ("coordinate_momentum_equivalence", check_xp_equivalence),
    ("closed_form_agreement", check_closed_form_agreement),
    ("transfer_composition", check_transfer_composition),
    ("dispersion_stationary_modes", check_dispersion_stationary),
    ("continuum_convergence", check_continuum_convergence),
    ("multitime_product_solution", check_multitime_product),
    ("multitime_diagonal_seeding", check_multitime_diagonal),
    ("first_order_sync_modes", check_first_order_modes),
    ("leibniz_product_rule", check_leibniz),
    ("spin_transfer_structure", check_spin_transfer_structure),
    ("driven_pair_flips", check_driven_flips),
    ("projector_identity", check_projector_identity),
    ("gauge_candidates", check_gauge_candidates),
    ("edge_rules", check_edge_rules),
    ("robertson_inequality", check_robertson),
    ("deformed_bound_minimum", check_bound_minimum),
    ("deformed_bound_reports", check_bound_reports),
]


def run_all(seed: int = 0) -> dict:
    checks = []
    all_passed = True
    for offset, (name, fn) in enumerate(CHECKS):
        start = time.perf_counter()
        passed, details = fn(seed * 1009 + offset)
        log.info("verify-all: check %s took %.6fs", name, time.perf_counter() - start)
        checks.append({"name": name, "passed": bool(passed), "details": details})
        all_passed = all_passed and bool(passed)
    return {
        "schema_version": 1,
        "kind": "verify-all",
        "seed": seed,
        "checks": checks,
        "all_passed": all_passed,
    }
