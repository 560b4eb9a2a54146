"""Ray canonicalization, preset models, and permutation detection.

The dim-2 completeness test brute-forces every +/-1 model directly on
integer pairs, independent of the detector's internals.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ontoca.errors import UnknownPreset, ZeroVector
from ontoca.gaussian import (
    CAPairState,
    GaussianInt,
    GaussianIntVector,
    GaussianRational,
    build_hamiltonian,
    evolve,
    zero_model,
)
from ontoca.ontology import (
    canonical_ray,
    detect_phased_permutation,
    norm_trace,
    preset_hamiltonian,
    standard_basis_rays,
)


def gvec(*pairs):
    return GaussianIntVector(GaussianInt(r, i) for r, i in pairs)


# =============================================================================
# Canonical rays
# =============================================================================


class TestCanonicalRay:
    def test_scalar_multiple_of_first_axis(self):
        ray = canonical_ray(gvec((1, -1), (0, 0)))
        assert ray.components == (GaussianRational(1), GaussianRational(0))
        assert ray.pivot_index == 0

    def test_second_axis(self):
        ray = canonical_ray(gvec((0, 0), (-1, -1)))
        assert ray.components == (GaussianRational(0), GaussianRational(1))
        assert ray.pivot_index == 1

    def test_exact_rational_division(self):
        ray = canonical_ray(gvec((2, 0), (1, 1)))
        assert ray.components[0] == GaussianRational(1)
        assert ray.components[1] == GaussianRational(Fraction(1, 2), Fraction(1, 2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            canonical_ray(gvec((0, 0), (0, 0)))

    @given(
        st.tuples(
            st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5)
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=-5, max_value=5),
                st.integers(min_value=-5, max_value=5),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=200)
    def test_scaling_invariance(self, scalar, comps):
        c = GaussianInt(*scalar)
        v = GaussianIntVector(GaussianInt(r, i) for r, i in comps)
        if c.is_zero() or v.is_zero():
            return
        assert canonical_ray(v.scaled(c)) == canonical_ray(v)


# =============================================================================
# Presets
# =============================================================================


class TestPresets:
    def test_two_state(self):
        model = preset_hamiltonian("H2")
        assert model.h_matrix == ((GaussianInt(0, 0), GaussianInt(1, 0)),
                                  (GaussianInt(1, 0), GaussianInt(0, 0)))

    def test_three_state_first_row(self):
        model = preset_hamiltonian("H3")
        row0 = model.h_matrix[0]
        assert row0 == (GaussianInt(0, 0), GaussianInt(0, -1), GaussianInt(1, 0))

    def test_four_state_corners(self):
        model = preset_hamiltonian("H4")
        assert model.h_matrix[0][3] == GaussianInt(1, 0)
        assert model.h_matrix[3][0] == GaussianInt(1, 0)
        assert model.h_matrix[1][2] == GaussianInt(0, -1)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset_hamiltonian("H5")

    def test_presets_are_self_adjoint(self):
        for name in ("H2", "H3", "H4"):
            h = preset_hamiltonian(name).h_matrix
            for r, row in enumerate(h):
                for c, e in enumerate(row):
                    assert e == h[c][r].conjugate()


# =============================================================================
# Detection
# =============================================================================


def standard_start(model):
    return (
        GaussianIntVector.basis(model.dim, 0),
        GaussianIntVector.basis(model.dim, 1),
        standard_basis_rays(model.dim),
    )


class TestDetection:
    def test_two_state_cycle(self):
        model = preset_hamiltonian("H2")
        psi0, psi1, basis = standard_start(model)
        report = detect_phased_permutation(model, psi0, psi1, basis)
        assert report.is_ontological
        assert report.exact_state_period == 12
        assert report.ray_period == 2
        assert [r.pivot_index for r in report.ray_cycle] == [0, 1]
        assert report.failure_step is None

    def test_three_state_cycle_and_phases(self):
        model = preset_hamiltonian("H3")
        psi0, psi1, basis = standard_start(model)
        report = detect_phased_permutation(model, psi0, psi1, basis)
        assert report.is_ontological
        assert report.exact_state_period == 12
        assert report.ray_period == 3
        assert [r.pivot_index for r in report.ray_cycle] == [0, 1, 2]
        # one -i per completed three-step ray cycle
        assert report.phase_log[3] == GaussianRational(0, -1)
        assert report.phase_log[6] == GaussianRational(-1, 0)

    def test_four_state_cycle(self):
        model = preset_hamiltonian("H4")
        psi0, psi1, basis = standard_start(model)
        report = detect_phased_permutation(model, psi0, psi1, basis)
        assert report.is_ontological
        assert report.ray_period == 4
        assert report.exact_state_period == 16
        assert report.phase_log[4] == GaussianRational(0, -1)

    def test_superposition_detected(self):
        model = preset_hamiltonian("H2")
        e1 = GaussianIntVector.basis(2, 0)
        report = detect_phased_permutation(model, e1, e1, standard_basis_rays(2))
        assert not report.is_ontological
        assert report.failure_step == 2
        # the offending state is (1, -i)
        assert report.ray_cycle[-1].components[1] == GaussianRational(0, -1)

    def test_block_diagonal_two_state_pairs(self):
        s = (
            (0, 1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 0),
        )
        a = tuple((0,) * 4 for _ in range(4))
        model = build_hamiltonian(s, a)
        report = detect_phased_permutation(
            model,
            GaussianIntVector.basis(4, 0),
            GaussianIntVector.basis(4, 1),
            standard_basis_rays(4),
        )
        assert report.is_ontological
        assert report.exact_state_period == 12

    def test_soundness_of_reported_period(self):
        for name in ("H2", "H3", "H4"):
            model = preset_hamiltonian(name)
            psi0, psi1, basis = standard_start(model)
            report = detect_phased_permutation(model, psi0, psi1, basis)
            period = report.exact_state_period
            traj = evolve(CAPairState(psi0, psi1), model, steps=3 * period)
            for n in range(0, 2 * period):
                assert traj.state_at(n + period) == traj.state_at(n)
            # and the period is minimal for the pair
            for n in range(1, period):
                assert not (
                    traj.state_at(n) == psi0 and traj.state_at(n + 1) == psi1
                )

    def test_zero_iterate_is_failure_not_error(self):
        # psi0 = i e2 and psi1 = e1 give psi2 = psi0 - i sigma1 psi1 = 0
        model = preset_hamiltonian("H2")
        psi0 = gvec((0, 0), (0, 1))
        psi1 = gvec((1, 0), (0, 0))
        report = detect_phased_permutation(model, psi0, psi1, standard_basis_rays(2))
        assert not report.is_ontological
        assert report.failure_step == 2

    def test_max_steps_cap(self):
        model = preset_hamiltonian("H2")
        psi0, psi1, basis = standard_start(model)
        report = detect_phased_permutation(model, psi0, psi1, basis, max_steps=5)
        # cycle not closed within 5 steps: rays stay in basis but no recurrence
        assert report.ray_period == 2
        assert report.exact_state_period is None

    def test_dim2_completeness_against_brute_force(self):
        # every +/-1 two-state model, standard start and basis
        values = (-1, 0, 1)
        checked = 0
        for s00 in values:
            for s01 in values:
                for s11 in values:
                    for a01 in values:
                        model = build_hamiltonian(
                            ((s00, s01), (s01, s11)), ((0, a01), (-a01, 0))
                        )
                        report = detect_phased_permutation(
                            model,
                            GaussianIntVector.basis(2, 0),
                            GaussianIntVector.basis(2, 1),
                            standard_basis_rays(2),
                            max_steps=64,
                        )
                        assert report.is_ontological == _brute_force_ontological(
                            model, 64
                        ), f"disagreement at H={model.h_matrix}"
                        checked += 1
        assert checked == 81


def _brute_force_ontological(model, max_steps):
    """Direct integer-pair iteration; no rays, no library detection code."""
    s = [[z.re for z in row] for row in model.h_matrix]
    a = [[z.im for z in row] for row in model.h_matrix]
    dim = 2
    states = [((1, 0), (0, 0)), ((0, 0), (1, 0))]  # ((x,p) per component) e1, e2

    def axis_of(state):
        nonzero = [k for k, (x, p) in enumerate(state) if x or p]
        return nonzero[0] if len(nonzero) == 1 else None

    def ray_pair(k):
        return axis_of(states[k]), axis_of(states[k + 1])

    for n in range(max_steps + 1):
        (xp_, pp_), (xc, pc) = states[-2], states[-1]
        prev = states[-2]
        cur = states[-1]
        nxt = []
        for al in range(dim):
            sx = sum(s[al][b] * cur[b][1] for b in range(dim))
            ax = sum(a[al][b] * cur[b][0] for b in range(dim))
            sp = sum(s[al][b] * cur[b][0] for b in range(dim))
            ap = sum(a[al][b] * cur[b][1] for b in range(dim))
            nxt.append((prev[al][0] + sx + ax, prev[al][1] - sp + ap))
        states.append(tuple(nxt))
    if any(axis_of(st) is None for st in states):
        return False
    first = ray_pair(0)
    return any(ray_pair(n) == first for n in range(1, max_steps + 1))


# =============================================================================
# Norm traces
# =============================================================================


class TestNormTrace:
    def test_three_state_norms_stay_one(self):
        model = preset_hamiltonian("H3")
        traj = evolve(
            CAPairState(GaussianIntVector.basis(3, 0), GaussianIntVector.basis(3, 1)),
            model,
            steps=24,
        )
        assert set(norm_trace(traj)) == {1}

    def test_two_state_norms_fluctuate(self):
        model = preset_hamiltonian("H2")
        traj = evolve(
            CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1)),
            model,
            steps=11,
        )
        trace = norm_trace(traj)
        assert trace[2] == 2  # |(1-i)|^2
        assert 1 in trace

    def test_zero_hamiltonian_constant_norms(self):
        model = zero_model(2)
        traj = evolve(
            CAPairState(gvec((3, 4), (0, 0)), gvec((0, 0), (1, -2))), model, steps=6
        )
        assert norm_trace(traj) == (25, 5, 25, 5, 25, 5, 25, 5)
