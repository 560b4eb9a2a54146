"""Lattice position/momentum operators and uncertainty-relation reports."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ontoca import gup
from ontoca.errors import DimensionMismatch, FamilyTooNarrow
from ontoca.gup import (
    GupBoundReport,
    LatticeOperator,
    bound_curve,
    bound_minimum,
    gaussian_envelope,
    gup_bound_report,
    minimize_delta_x,
    momentum_operator,
    position_operator,
    random_states,
    robertson_check,
    single_site_state,
    site_labels,
    uncertainty,
)
from ontoca.propagator import DiscretenessScale

SCALE = DiscretenessScale(1.0)


def applied_matrix(op: LatticeOperator) -> np.ndarray:
    """The matrix of a stencil: column k is op.apply(e_k)."""
    return np.column_stack([op.apply(e) for e in np.eye(op.size, dtype=complex)])


def dense_oracle(op: LatticeOperator) -> np.ndarray:
    """X[m][n] = l m delta[m,n] and P[m][n] = -i (delta[m,n-1] - delta[m,n+1]) / (2 l),
    the seam entries of P dropped on an open boundary, built entry by entry."""
    size, l = op.size, op.scale.l
    matrix = np.zeros((size, size), dtype=complex)
    for m, label in enumerate(range(-(size // 2), size - size // 2)):
        if op.name == "X":
            matrix[m, m] = l * label
            continue
        if m + 1 < size or op.boundary == "periodic":
            matrix[m, (m + 1) % size] += -1j / (2.0 * l)
        if m - 1 >= 0 or op.boundary == "periodic":
            matrix[m, (m - 1) % size] += 1j / (2.0 * l)
    return matrix


def dense_report(psi, l: float, boundary: str) -> dict:
    """gup_bound_report's fields from the dense oracle matrices."""
    size = len(psi)
    x = dense_oracle(position_operator(size, DiscretenessScale(l), boundary))
    p = dense_oracle(momentum_operator(size, DiscretenessScale(l), boundary))

    def spread(op):
        mean = np.vdot(psi, op @ psi).real
        return math.sqrt(max(np.vdot(psi, op @ (op @ psi)).real - mean**2, 0.0))

    p2 = np.vdot(psi, p @ (p @ psi)).real
    return {
        "lhs": spread(x) * spread(p),
        "deformed_rhs": 0.5 * abs(1.0 + (l**2 / 2.0) * p2),
        "robertson_rhs": abs(np.vdot(psi, (x @ p - p @ x) @ psi)) / 2.0,
        "mean_p": np.vdot(psi, p @ psi).real,
        "mean_p_squared": p2,
        "delta_x": spread(x),
        "delta_p": spread(p),
    }


# =============================================================================
# Operator structure
# =============================================================================


lattices = st.tuples(
    st.integers(1, 64), st.sampled_from(("periodic", "open")), st.floats(0.05, 20.0)
)


class TestStencilAgainstDense:
    """apply() against dense matrices written from the operator formulas."""

    @given(lattices, st.integers(0, 2**32 - 1))
    def test_apply_is_dense_matvec(self, lattice, seed):
        size, boundary, l = lattice
        psi = next(random_states(size, 1, seed)).amplitudes
        for make in (position_operator, momentum_operator):
            op = make(size, DiscretenessScale(l), boundary)
            oracle = dense_oracle(op)
            assert np.array_equal(applied_matrix(op), oracle)
            assert np.allclose(op.apply(psi), oracle @ psi, rtol=0.0, atol=1e-12 * (l + 1 / l))

    @given(lattices)
    def test_oracle_is_hermitian(self, lattice):
        size, boundary, l = lattice
        for make in (position_operator, momentum_operator):
            oracle = dense_oracle(make(size, DiscretenessScale(l), boundary))
            assert np.array_equal(oracle, oracle.conj().T)

    @given(lattices, st.integers(0, 2**32 - 1))
    def test_bound_report_matches_dense_report(self, lattice, seed):
        size, boundary, l = lattice
        state = next(random_states(size, 1, seed))
        report = gup_bound_report(state, DiscretenessScale(l), boundary)
        want = dense_report(state.amplitudes, l, boundary)
        scale = max(abs(v) for v in want.values()) + 1.0
        for key, value in want.items():
            assert math.isclose(getattr(report, key), value, rel_tol=1e-12, abs_tol=1e-12 * scale), key
        assert report.robertson_holds == (report.lhs >= report.robertson_rhs - 1e-12)

    def test_only_x_and_p(self):
        with pytest.raises(ValueError):
            LatticeOperator(size=4, scale=SCALE, boundary="periodic", name="Q")


class TestOperators:
    def test_position_is_diagonal_in_site_labels(self):
        x = applied_matrix(position_operator(8, DiscretenessScale(0.5)))
        assert np.array_equal(np.diag(x).real, 0.5 * site_labels(8))
        assert np.count_nonzero(x - np.diag(np.diag(x))) == 0

    def test_momentum_hopping_entries(self):
        p = applied_matrix(momentum_operator(6, DiscretenessScale(2.0)))
        coeff = 1.0 / 4.0
        for m in range(6):
            assert p[m, (m + 1) % 6] == -1j * coeff
            assert p[m, (m - 1) % 6] == 1j * coeff
        assert np.count_nonzero(p) == 12

    def test_open_boundary_truncates(self):
        p = applied_matrix(momentum_operator(6, SCALE, boundary="open"))
        assert p[0, 5] == 0
        assert p[5, 0] == 0
        assert np.array_equal(p, p.conj().T)

    def test_self_adjoint_by_construction(self):
        for boundary in ("periodic", "open"):
            for op in (position_operator(16, SCALE, boundary), momentum_operator(16, SCALE, boundary)):
                matrix = applied_matrix(op)
                assert np.max(np.abs(matrix - matrix.conj().T)) == 0.0

    def test_commutator_is_half_i_hopping_sum(self):
        # [X, P] = (i/2)(shift_up + shift_down) away from the periodic seam
        m = 16
        x = applied_matrix(position_operator(m, SCALE))
        p = applied_matrix(momentum_operator(m, SCALE))
        comm = x @ p - p @ x
        expected = np.zeros((m, m), dtype=complex)
        for k in range(m - 1):
            expected[k, k + 1] = 0.5j
            expected[k + 1, k] = 0.5j
        interior = np.ones((m, m), dtype=bool)
        interior[0, m - 1] = interior[m - 1, 0] = False  # seam rows excluded
        assert np.array_equal(comm[interior], expected[interior])


# =============================================================================
# Uncertainty
# =============================================================================


class TestUncertainty:
    def test_single_site_position_eigenstate(self):
        scale = DiscretenessScale(1.5)
        state = single_site_state(32, 5)
        mean, delta = uncertainty(state, position_operator(32, scale))
        assert mean == pytest.approx(1.5 * 5)
        assert delta == pytest.approx(0.0, abs=1e-12)

    def test_uniform_state_momentum_mean_zero(self):
        m = 32
        from ontoca.gup import LatticeState

        state = LatticeState.from_amplitudes(np.ones(m))
        mean, _ = uncertainty(state, momentum_operator(m, SCALE))
        assert mean == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_spread_tracks_width(self):
        m = 256
        for w in (4, 8, 16, 32):
            state = gaussian_envelope(m, w)
            _, dx = uncertainty(state, position_operator(m, SCALE))
            assert abs(dx - w) / w < 0.05

    def test_scaling_law(self):
        m = 64
        state = gaussian_envelope(m, 6)
        _, dx1 = uncertainty(state, position_operator(m, DiscretenessScale(1.0)))
        _, dp1 = uncertainty(state, momentum_operator(m, DiscretenessScale(1.0)))
        _, dx2 = uncertainty(state, position_operator(m, DiscretenessScale(2.0)))
        _, dp2 = uncertainty(state, momentum_operator(m, DiscretenessScale(2.0)))
        assert dx2 == pytest.approx(2 * dx1, rel=1e-12)
        assert dp2 == pytest.approx(dp1 / 2, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            uncertainty(single_site_state(4, 0), position_operator(8, SCALE))


# =============================================================================
# Robertson inequality
# =============================================================================


class TestRobertson:
    def test_same_operator_trivial(self):
        state = gaussian_envelope(64, 5)
        x = position_operator(64, SCALE)
        result = robertson_check(state, x, x)
        assert result.rhs == pytest.approx(0.0, abs=1e-14)
        assert result.holds

    def test_sharp_state_zero_on_both_sides(self):
        state = single_site_state(64, 3)
        result = robertson_check(
            state, position_operator(64, SCALE), momentum_operator(64, SCALE)
        )
        assert result.lhs == pytest.approx(0.0, abs=1e-12)
        assert result.rhs == pytest.approx(0.0, abs=1e-12)
        assert result.holds

    def test_holds_for_random_states(self):
        x = position_operator(64, SCALE)
        p = momentum_operator(64, SCALE)
        for state in random_states(64, 1000, seed=2024):
            assert robertson_check(state, x, p).holds


# =============================================================================
# Deformed bound reports
# =============================================================================


class TestDeformedBound:
    def test_sharp_state_is_a_counterexample(self):
        report = gup_bound_report(single_site_state(64, 0), SCALE)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.deformed_rhs > 0.5 - 1e-12
        assert not report.satisfies_deformed_bound

    def test_rhs_formula_at_zero_mean_momentum(self):
        state = gaussian_envelope(128, 6)
        report = gup_bound_report(state, DiscretenessScale(2.0))
        assert report.mean_p == pytest.approx(0.0, abs=1e-12)
        assert report.deformed_rhs == pytest.approx(
            0.5 * (1.0 + 2.0 * report.mean_p_squared), rel=1e-12
        )

    def test_gaussians_sit_just_below_the_deformed_bound(self):
        # centred envelopes obey Robertson but narrowly miss the deformed
        # rhs: the gap shrinks with width yet never closes on the lattice
        for w in (4, 8, 16):
            report = gup_bound_report(gaussian_envelope(256, w), SCALE)
            assert report.lhs >= report.robertson_rhs - 1e-12
            assert not report.satisfies_deformed_bound
            assert report.lhs / report.deformed_rhs > 0.95

    def test_reports_are_consistent(self):
        for state in random_states(64, 50, seed=77):
            report = gup_bound_report(state, SCALE)
            assert report.satisfies_deformed_bound == (
                report.lhs >= report.deformed_rhs - 1e-12
            )


class TestMinimizeDeltaX:
    def test_closed_form_minimum_exact(self):
        for l in (0.5, 1.0, 3.0):
            value, argmin = bound_minimum(DiscretenessScale(l))
            assert abs(value - l / math.sqrt(2)) <= 1e-12
            assert abs(argmin - math.sqrt(2) / l) <= 1e-12

    def test_numeric_minimizer_agrees(self):
        scale = DiscretenessScale(1.0)
        lo, hi = 1e-3, 1e3
        for _ in range(300):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if bound_curve(m1, scale) < bound_curve(m2, scale):
                hi = m2
            else:
                lo = m1
        assert abs(bound_curve((lo + hi) / 2, scale) - 1 / math.sqrt(2)) <= 1e-12

    def test_small_scale_limit(self):
        value, _ = bound_minimum(DiscretenessScale(1e-9))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_family_scan_documents_gap(self):
        report = minimize_delta_x(DiscretenessScale(1.0), widths=(4, 8, 16, 32, 60), sites=512)
        assert abs(report.bound_min_dx - 1 / math.sqrt(2)) <= 1e-12
        if report.realized_min_dx is not None:
            assert abs(report.realized_min_dx - 1 / math.sqrt(2)) <= 0.25 / math.sqrt(2)
        else:
            # no member satisfies the deformed bound; the gap is documented
            assert report.best_tightness > 0.95
            assert report.best_tightness < 1.0

    def test_width_cap(self):
        with pytest.raises(ValueError):
            minimize_delta_x(SCALE, widths=(100,), sites=256)

    @staticmethod
    def stub_family(monkeypatch, satisfying_widths):
        """Members whose DeltaX is their width and which satisfy the deformed
        bound exactly at `satisfying_widths`."""
        monkeypatch.setattr(gup, "gaussian_envelope", lambda sites, width: width)

        def report(width, scale, boundary):
            return GupBoundReport(
                lhs=0.5, deformed_rhs=0.5, robertson_rhs=0.5,
                satisfies_deformed_bound=width in satisfying_widths, mean_p=0.0,
                mean_p_squared=1.0, delta_x=width, delta_p=1.0, robertson_holds=True,
            )

        monkeypatch.setattr(gup, "gup_bound_report", report)

    def test_minimum_at_the_narrow_end_raises(self, monkeypatch):
        self.stub_family(monkeypatch, {4.0, 6.0})
        with pytest.raises(FamilyTooNarrow, match="narrow end"):
            minimize_delta_x(SCALE, widths=(8, 4, 6), sites=64)

    @pytest.mark.parametrize("satisfying, best", [({6.0, 8.0}, 6.0), ({8.0}, 8.0)])
    def test_minimum_inside_or_at_the_wide_end_stands(self, monkeypatch, satisfying, best):
        self.stub_family(monkeypatch, satisfying)
        report = minimize_delta_x(SCALE, widths=(4, 6, 8), sites=64)
        assert (report.realized_min_width, report.realized_min_dx) == (best, best)

    def test_single_width_grid_never_raises(self, monkeypatch):
        self.stub_family(monkeypatch, {4.0})
        assert minimize_delta_x(SCALE, widths=(4,), sites=64).realized_min_width == 4.0

    def test_curve_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bound_curve(0.0, SCALE)
