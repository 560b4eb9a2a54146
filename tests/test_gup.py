"""Lattice position/momentum operators and uncertainty-relation reports."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import tracemalloc
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ontoca import cli, gup
from ontoca.errors import DimensionMismatch, FamilyTooNarrow
from ontoca.gup import (
    GupBoundReport,
    LatticeOperator,
    LatticeState,
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


def one_state(size: int, seed: int) -> LatticeState:
    """The first state of the seeded sampler, as a single (size,) state."""
    return LatticeState(next(random_states(size, 1, seed)).amplitudes[0])


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
        psi = one_state(size, seed).amplitudes
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
        state = one_state(size, seed)
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
        for block in random_states(64, 1000, seed=2024):
            assert robertson_check(block, x, p).holds.all()


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
        for block in random_states(64, 50, seed=77):
            report = gup_bound_report(block, SCALE)
            assert np.array_equal(
                report.satisfies_deformed_bound, report.lhs >= report.deformed_rhs - 1e-12
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
        monkeypatch.setattr(gup, "gaussian_envelope", lambda sites, widths: np.asarray(widths))

        def report(widths, scale, boundary):
            ones = np.ones_like(widths)
            return GupBoundReport(
                lhs=0.5 * ones, deformed_rhs=0.5 * ones, robertson_rhs=0.5 * ones,
                satisfies_deformed_bound=np.isin(widths, list(satisfying_widths)),
                mean_p=0.0 * ones, mean_p_squared=ones, delta_x=widths, delta_p=ones,
                robertson_holds=ones == 1,
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


# =============================================================================
# Block route: one array pass over (k, M) states
# =============================================================================


def oracle_state(rng, size: int) -> np.ndarray:
    """One sample as the sampler made it one state at a time: two draws of
    `size` normals, normalized by np.linalg.norm."""
    amp = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return amp / float(np.linalg.norm(amp))


def oracle_report(psi: np.ndarray, l: float, boundary: str) -> dict:
    """gup_bound_report's fields for one state, computed per state with np.vdot
    and np.roll as the one-state route did."""
    size = len(psi)
    labels = np.arange(-(size // 2), size - size // 2)

    def x(v):
        return (l * labels) * v

    def p(v):
        up, down = np.roll(v, -1), np.roll(v, 1)
        if boundary == "open":
            up[-1] = down[0] = 0.0
        coeff = 1.0 / (2.0 * l)
        return (-1j * coeff) * up + (1j * coeff) * down

    def moments(applied):
        mean = float(np.vdot(psi, applied).real)
        second = float(np.vdot(applied, applied).real)
        return mean, math.sqrt(max(second - mean * mean, 0.0)), second

    (_, dx, _), (mean_p, dp, p2) = moments(x(psi)), moments(p(psi))
    lhs = dx * dp
    robertson_rhs = abs(complex(np.vdot(psi, x(p(psi)) - p(x(psi))))) / 2.0
    deformed_rhs = 0.5 * abs(1.0 + (l**2 / 2.0) * p2)
    return {
        "lhs": lhs, "deformed_rhs": deformed_rhs, "robertson_rhs": robertson_rhs,
        "satisfies_deformed_bound": lhs >= deformed_rhs - 1e-12, "mean_p": mean_p,
        "mean_p_squared": p2, "delta_x": dx, "delta_p": dp,
        "robertson_holds": lhs >= robertson_rhs - 1e-12,
    }


FIELDS = [f.name for f in dataclasses.fields(GupBoundReport)]


def as_fields(report: GupBoundReport) -> dict:
    return {name: getattr(report, name) for name in FIELDS}


block_lattices = st.tuples(
    st.integers(1, 300), st.sampled_from(("periodic", "open")), st.floats(0.05, 20.0),
    st.integers(0, 2**32 - 1), st.integers(1, 8),
)


class TestBlockRoute:
    @given(block_lattices)
    def test_rows_equal_one_state_reports_and_the_oracle(self, lattice):
        size, boundary, l, seed, k = lattice
        scale = DiscretenessScale(l)
        (block,) = random_states(size, k, seed)
        report = gup_bound_report(block, scale, boundary)
        rows = [dict(zip(FIELDS, row)) for row in zip(*(getattr(report, f).tolist() for f in FIELDS))]
        rng = np.random.default_rng(seed)
        assert len(rows) == k
        for row, amplitudes in zip(rows, block.amplitudes):
            single = gup_bound_report(LatticeState(amplitudes), scale, boundary)
            assert as_fields(single) == row
            assert oracle_report(oracle_state(rng, size), l, boundary) == row
            assert all(type(v) in (float, bool) for v in row.values())

    @given(block_lattices)
    def test_robertson_and_uncertainty_rows_equal_one_state_calls(self, lattice):
        size, boundary, l, seed, k = lattice
        x = position_operator(size, DiscretenessScale(l), boundary)
        p = momentum_operator(size, DiscretenessScale(l), boundary)
        (block,) = random_states(size, k, seed)
        result = robertson_check(block, x, p)
        means, deltas = uncertainty(block, p)
        for i, amplitudes in enumerate(block.amplitudes):
            single = robertson_check(LatticeState(amplitudes), x, p)
            assert (single.lhs, single.rhs, single.holds) == (
                result.lhs[i], result.rhs[i], result.holds[i])
            assert single.moments_b == tuple(field[i] for field in result.moments_b)
            assert uncertainty(LatticeState(amplitudes), p) == (means[i], deltas[i])

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.integers(1, 1200))
    def test_sampler_stream_is_the_per_sample_stream(self, size, seed, count, block_amplitudes):
        # a small block constant puts block edges inside short runs
        with unittest.mock.patch.object(gup, "BLOCK_AMPLITUDES", block_amplitudes):
            blocks = list(random_states(size, count, seed))
        rows = max(1, block_amplitudes // size)
        assert [len(b.amplitudes) for b in blocks] == [
            min(rows, count - start) for start in range(0, count, rows)]
        rng = np.random.default_rng(seed)
        for amplitudes in np.concatenate([b.amplitudes for b in blocks]):
            assert np.array_equal(amplitudes, oracle_state(rng, size))

    def test_sampler_at_the_block_constant(self):
        size, count = 256, 2 * (gup.BLOCK_AMPLITUDES // 256) + 5
        blocks = list(random_states(size, count, 11))
        assert [len(b.amplitudes) for b in blocks] == [16, 16, 5]  # 2**12 amplitudes a block
        rng = np.random.default_rng(11)
        for amplitudes in np.concatenate([b.amplitudes for b in blocks]):
            assert np.array_equal(amplitudes, oracle_state(rng, size))

    @given(st.integers(8, 300), st.lists(st.floats(0.3, 1.0), min_size=1, max_size=5),
           st.sampled_from(("periodic", "open")), st.floats(0.05, 20.0))
    def test_family_members_equal_the_oracle(self, size, fractions, boundary, l):
        widths = sorted({f * size / 8 for f in fractions})
        try:
            family = minimize_delta_x(DiscretenessScale(l), widths, size, boundary)
        except FamilyTooNarrow:
            return
        labels = site_labels(size)
        for member, width in zip(family.members, widths):
            env = np.exp(-(labels**2) / (4.0 * width**2)).astype(complex)
            want = oracle_report(env / float(np.linalg.norm(env)), l, boundary)
            assert as_fields(member) == want and member.width == width
            single = gaussian_envelope(size, width).amplitudes
            assert np.array_equal(single, env / float(np.linalg.norm(env)))

    def test_envelope_block_uses_the_one_envelope_formula(self):
        # numpy's w**2 on an array is w*w, which differs from Python's w**2 on
        # about 1 in 1000 doubles; 20000 widths catch that
        widths = np.random.default_rng(3).uniform(0.5, 4.0, 20000).tolist()
        block = gaussian_envelope(32, widths).amplitudes
        labels = site_labels(32)
        for row, width in zip(block, widths):
            env = np.exp(-(labels**2) / (4.0 * width**2)).astype(complex)
            assert np.array_equal(row, env / float(np.linalg.norm(env)))

    def test_a_block_is_checked_row_by_row(self):
        amplitudes = np.ones((3, 4), dtype=complex) / 2.0
        LatticeState(amplitudes)
        amplitudes[2, 0] = 1.0
        with pytest.raises(ValueError, match="norm"):
            LatticeState(amplitudes)
        with pytest.raises(ValueError, match="zero state"):
            LatticeState.from_amplitudes(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_amplitudes_are_refused(self, bad):
        # a NaN norm used to pass the unit-norm check, and its report then
        # counted a Robertson violation
        with pytest.raises(ValueError, match="norm"):
            LatticeState(np.array([bad, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="norm"):
            LatticeState.from_amplitudes(np.array([[1.0, 0.0], [bad, 1.0]]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 120), st.sampled_from(("periodic", "open")), st.floats(0.5, 1.5),
           st.integers(0, 2**31 - 1), st.integers(1, 60), st.integers(1, 600))
    def test_cli_counts_equal_a_per_state_loop(self, size, boundary, l, seed, samples,
                                               block_amplitudes):
        config = {"kind": "gup", "sites": size, "scale": l, "boundary": boundary,
                  "samples": samples, "seed": seed, "widths": [size / 8]}
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "gup.json"
            config["out"] = str(path.with_name("out.json"))
            path.write_text(json.dumps(config))
            with unittest.mock.patch.object(gup, "BLOCK_AMPLITUDES", block_amplitudes), \
                    contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["gup", str(path)]) == 0
            doc = json.loads(path.with_name("out.json").read_text())
        rng = np.random.default_rng(seed)
        reports = [oracle_report(oracle_state(rng, size), l, boundary) for _ in range(samples)]
        assert doc["robertson_violations"] == sum(not r["robertson_holds"] for r in reports)
        assert doc["paper_bound_holds_fraction"] == (
            sum(r["satisfies_deformed_bound"] for r in reports) / samples)

    def test_memory_stays_per_block(self, tmp_path):
        # unblocked, one (1000, 4096) complex array alone is 65 MB
        with contextlib.redirect_stdout(io.StringIO()):
            tracemalloc.start()
            try:
                code = cli.main(["gup", "--sites", "4096", "--samples", "1000",
                                 "--out", str(tmp_path / "gup.json")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
