"""Spectral closed form, transfer polynomials, dispersion, continuum limit.

Exact iteration of the update rule (validated independently in
test_gaussian) is the oracle for both propagator routes.
"""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ontoca import gaussian
from ontoca.errors import CriticalSpectrum
from ontoca.gaussian import (
    CAPairState,
    GaussianInt,
    GaussianIntVector,
    build_hamiltonian,
    evolve,
    zero_model,
)
from ontoca.propagator import (
    DiscretenessScale,
    closed_form_state,
    continuum_deviation,
    continuum_limit_check,
    dispersion_omega,
    equal_initial_form,
    is_critical,
    phi_operator,
    transfer_sequence,
)
from ontoca.verify import random_model, random_subcritical_model, random_vector

SIGMA1 = ((0, 1), (1, 0))
ZERO2 = ((0, 0), (0, 0))


def sigma1_model():
    return build_hamiltonian(SIGMA1, ZERO2)


# =============================================================================
# Auxiliary angle
# =============================================================================


class TestPhiOperator:
    def test_sigma1_angles(self):
        dec = phi_operator(sigma1_model())
        assert dec.eigenvalues == pytest.approx((-1.0, 1.0))
        phis = sorted(p.real for p in dec.phi_eigenvalues)
        assert phis == pytest.approx([-math.pi / 6, math.pi / 6])
        assert not is_critical(sigma1_model())

    def test_zero_model(self):
        dec = phi_operator(zero_model(3))
        assert all(abs(p) == 0 for p in dec.phi_eigenvalues)

    def test_twice_sigma3_is_critical(self):
        model = build_hamiltonian(((2, 0), (0, -2)), ZERO2)
        dec = phi_operator(model)
        assert is_critical(model)
        assert dec.eigenvalues == pytest.approx((-2.0, 2.0))
        for phi in dec.phi_eigenvalues:
            assert abs(cmath.cos(phi)) < 1e-7

    def test_supercritical_angles_have_half_pi_real_part(self):
        model = build_hamiltonian(((0, 3), (3, 0)), ZERO2)
        dec = phi_operator(model)
        assert not is_critical(model)
        assert dec.eigenvalues == pytest.approx((-3.0, 3.0))
        for phi in dec.phi_eigenvalues:
            assert abs(abs(phi.real) - math.pi / 2) < 1e-12
            assert phi.imag != 0

    def test_reconstruction_quality(self):
        rng = random.Random(1)
        for _ in range(10):
            model = random_model(rng, rng.randint(2, 6))
            dec = phi_operator(model)
            h = model.as_complex_array()
            scale = max(1.0, float(np.max(np.abs(h))))
            assert dec.reconstruction_error <= 1e-10 * scale


class TestIsCritical:
    """is_critical is exact: det(4*1 - H^2) == 0 over the Gaussian integers."""

    @staticmethod
    def float_oracle(model):
        """det(2*1 - H) * det(2*1 + H) == 0 in floats; exact after rounding for
        the small entries drawn below."""
        h = model.as_complex_array()
        two = 2 * np.eye(model.dim)
        return round(np.linalg.det(two - h).real) == 0 or round(np.linalg.det(two + h).real) == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_small_determinants(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=4))
        entry = st.integers(min_value=-2, max_value=2)
        s = [[0] * dim for _ in range(dim)]
        a = [[0] * dim for _ in range(dim)]
        for r in range(dim):
            for c in range(r, dim):
                s[r][c] = s[c][r] = data.draw(entry)
                if c > r:
                    v = data.draw(entry)
                    a[r][c], a[c][r] = v, -v
        model = build_hamiltonian(s, a)
        assert is_critical(model) == self.float_oracle(model)

    def test_every_dim2_model_with_unit_entries(self):
        criticals = 0
        for s00, s01, s11, a01 in np.ndindex(3, 3, 3, 3):
            s00, s01, s11, a01 = s00 - 1, s01 - 1, s11 - 1, a01 - 1
            model = build_hamiltonian(((s00, s01), (s01, s11)), ((0, a01), (-a01, 0)))
            criticals += is_critical(model)
            assert is_critical(model) == self.float_oracle(model)
        assert criticals > 0

    @pytest.mark.parametrize("k", [1, 10**6, 10**8])
    def test_exact_eigenvalue_two_with_large_entries(self, k):
        """H = [[2+k, -k], [-k, 2+k]] has eigenvalue 2 for every k; float eigh
        misses it by roundoff at large k, the exact test does not."""
        model = build_hamiltonian(((2 + k, -k), (-k, 2 + k)), ZERO2)
        assert is_critical(model)
        with pytest.raises(CriticalSpectrum):
            closed_form_state(model, [1, 0], [0, 1], 3)
        with pytest.raises(CriticalSpectrum):
            continuum_deviation(model, [1, 0], 0.1, 10)

    def test_near_critical_large_model_is_not_critical(self):
        k = 10**6
        model = build_hamiltonian(((3 + k, -k), (-k, 3 + k)), ZERO2)
        assert not is_critical(model)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_det_raw_matches_numpy_on_small_matrices(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=5))
        entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        m = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                               min_size=dim, max_size=dim))
        det = np.linalg.det(np.array([[complex(re, im) for re, im in row] for row in m]))
        assert gaussian._det_raw(m) == (round(det.real), round(det.imag))


# =============================================================================
# Closed form
# =============================================================================


class TestClosedForm:
    def test_reproduces_initial_data(self):
        model = sigma1_model()
        psi0, psi1 = [1, 0], [0, 1]
        assert closed_form_state(model, psi0, psi1, 0) == pytest.approx([1, 0])
        assert closed_form_state(model, psi0, psi1, 1) == pytest.approx([0, 1])

    def test_second_state_value(self):
        got = closed_form_state(sigma1_model(), [1, 0], [0, 1], 2)
        assert got == pytest.approx([1 - 1j, 0], abs=1e-12)

    def test_period_twelve(self):
        got = closed_form_state(sigma1_model(), [1, 0], [0, 1], 12)
        assert got == pytest.approx([1, 0], abs=1e-9)

    def test_critical_spectrum_raises(self):
        model = build_hamiltonian(((2, 0), (0, -2)), ZERO2)
        with pytest.raises(CriticalSpectrum):
            closed_form_state(model, [1, 0], [0, 1], 3)

    def test_agrees_with_exact_iteration(self):
        rng = random.Random(20)
        for _ in range(20):
            dim = rng.randint(2, 6)
            model = random_subcritical_model(rng, dim)
            pair = CAPairState(random_vector(rng, dim, -2, 2), random_vector(rng, dim, -2, 2))
            traj = evolve(pair, model, steps=100)
            for n in (0, 1, 5, 17, 50, 100):
                exact = traj.state_at(n).as_complex()
                approx = closed_form_state(model, pair.psi_prev, pair.psi_curr, n)
                for e, ap in zip(exact, approx):
                    assert abs(e - ap) <= 1e-8 * max(1.0, abs(e))


# =============================================================================
# Transfer polynomials
# =============================================================================


class TestTransferPolynomial:
    def test_first_values(self):
        model = sigma1_model()
        seq = transfer_sequence(model, 3)
        ident = ((GaussianInt(1), GaussianInt(0)), (GaussianInt(0), GaussianInt(1)))
        zero = ((GaussianInt(0), GaussianInt(0)), (GaussianInt(0), GaussianInt(0)))
        assert seq[0].matrix == ident
        assert seq[1].matrix == zero
        assert seq[2].matrix == ident
        minus_i_h = tuple(
            tuple(e.times_minus_i() for e in row) for row in model.h_matrix
        )
        assert seq[3].matrix == minus_i_h

    def test_zero_hamiltonian_parity(self):
        model = zero_model(2)
        seq = transfer_sequence(model, 10)
        for k, poly in enumerate(seq):
            expected_diag = GaussianInt(1 if k % 2 == 0 else 0)
            assert poly.matrix[0][0] == expected_diag
            assert poly.matrix[0][1] == GaussianInt(0)

    def test_three_term_recursion_exact(self):
        rng = random.Random(7)
        for _ in range(5):
            dim = rng.randint(2, 5)
            model = random_model(rng, dim, -2, 2)
            seq = transfer_sequence(model, 51)
            h = model.h_matrix
            for k in range(1, 51):
                for r in range(dim):
                    for c in range(dim):
                        acc = GaussianInt(0)
                        for t in range(dim):
                            acc = acc + h[r][t] * seq[k].matrix[t][c]
                        assert seq[k + 1].matrix[r][c] == seq[k - 1].matrix[r][c] + acc.times_minus_i()

    def test_composition_against_iteration(self):
        model = sigma1_model()
        pair = CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1), index_n=1)
        traj = evolve(pair, model, steps=20)
        seq = transfer_sequence(model, 22)
        m = 3
        for n in range(4, 21):
            composed = seq[n - m + 1].apply(traj.state_at(m + 1)) + seq[n - m].apply(
                traj.state_at(m)
            )
            assert composed == traj.state_at(n)

    def test_composition_all_offsets_random_models(self):
        rng = random.Random(31)
        for _ in range(4):
            dim = rng.randint(2, 4)
            model = random_model(rng, dim, -2, 2)
            pair = CAPairState(random_vector(rng, dim, -2, 2), random_vector(rng, dim, -2, 2), index_n=1)
            traj = evolve(pair, model, steps=30)
            seq = transfer_sequence(model, 32)
            for m in range(0, 30):
                for n in range(m + 1, 31):
                    composed = seq[n - m + 1].apply(traj.state_at(m + 1)) + seq[n - m].apply(
                        traj.state_at(m)
                    )
                    assert composed == traj.state_at(n)

    def test_entry_k_is_order_k(self):
        assert [t.order for t in transfer_sequence(sigma1_model(), 7)] == list(range(8))


wide_int = st.integers(min_value=-(2**70), max_value=2**70)
sparse_wide_int = st.one_of(st.just(0), wide_int)


@st.composite
def wide_model(draw, max_dim=8):
    """Hermitian models with wide complex entries; some rows (and columns) are zero."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=dim - 1)))
    s = [[0] * dim for _ in range(dim)]
    a = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r, dim):
            if r in zero_rows or c in zero_rows:
                continue
            s[r][c] = s[c][r] = draw(sparse_wide_int)
            if c > r:
                v = draw(sparse_wide_int)
                a[r][c], a[c][r] = v, -v
    return build_hamiltonian(s, a)


def dense_product(m1, m2):
    """m1 @ m2 with boxed entries; m2 may be a single column."""
    return tuple(
        tuple(
            sum((m1[r][t] * m2[t][c] for t in range(len(m2))), GaussianInt(0))
            for c in range(len(m2[0]))
        )
        for r in range(len(m1))
    )


class TestTransferKernelAgainstDense:
    @given(wide_model(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_sequence_matches_dense_recursion(self, model, k_max):
        dim = model.dim
        ident = tuple(tuple(GaussianInt(int(r == c)) for c in range(dim)) for r in range(dim))
        zero = tuple(tuple(GaussianInt(0) for _ in range(dim)) for _ in range(dim))
        expected = [ident, zero]
        while len(expected) <= k_max:
            h_t = dense_product(model.h_matrix, expected[-1])
            expected.append(tuple(
                tuple(p + x.times_minus_i() for p, x in zip(prev_row, row))
                for prev_row, row in zip(expected[-2], h_t)
            ))
        seq = transfer_sequence(model, k_max)
        assert [t.order for t in seq] == list(range(k_max + 1))
        assert [t.matrix for t in seq] == expected[: k_max + 1]

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_apply_matches_dense_matvec(self, data):
        model = data.draw(wide_model())
        k = data.draw(st.integers(min_value=0, max_value=12))
        comps = data.draw(
            st.lists(st.tuples(wide_int, wide_int), min_size=model.dim, max_size=model.dim)
        )
        v = GaussianIntVector(GaussianInt(r, i) for r, i in comps)
        poly = transfer_sequence(model, k)[k]
        column = tuple((c,) for c in v)
        assert poly.apply(v) == GaussianIntVector(row[0] for row in dense_product(poly.matrix, column))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_sequence_and_apply_box_no_matrix(self, data):
        """T(k) stays raw rows and vectors stay raw pairs: with the construction
        of every GaussianInt made to raise, transfer_sequence and apply give the
        same vector."""
        model = data.draw(wide_model())
        k = data.draw(st.integers(min_value=0, max_value=12))
        j = data.draw(st.integers(min_value=0, max_value=k))
        comps = data.draw(
            st.lists(st.tuples(wide_int, wide_int), min_size=model.dim, max_size=model.dim)
        )
        v = GaussianIntVector(GaussianInt(r, i) for r, i in comps)
        expected = transfer_sequence(model, k)[j].apply(v)

        def refuse(*args):
            raise AssertionError("boxed inside transfer_sequence or apply")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gaussian.GaussianInt, "__init__", refuse)
            got = transfer_sequence(model, k)[j].apply(v)
        assert got == expected


@st.composite
def small_model(draw, max_dim=6):
    """Hermitian models with entries in [-3, 3]; supercritical ones included."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    entry = st.integers(min_value=-3, max_value=3)
    s = [[0] * dim for _ in range(dim)]
    a = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r, dim):
            s[r][c] = s[c][r] = draw(entry)
            if c > r:
                v = draw(entry)
                a[r][c], a[c][r] = v, -v
    return build_hamiltonian(s, a)


def dense_of(poly):
    return [[(z.re, z.im) for z in row] for row in poly.matrix]


class TestTransferParity:
    """transfer_sequence steps only the upper triangle and mirrors the rest by
    T(k)^dagger = (-1)^k T(k)."""

    @given(small_model(), st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_column_recursion(self, model, k_max):
        dim = model.dim
        h = [[(model.s_matrix[r][c], model.a_matrix[r][c]) for c in range(dim)]
             for r in range(dim)]

        def step(prev, curr):
            """prev - i H curr on one full column of (re, im) pairs."""
            out = []
            for r in range(dim):
                hre = sum(h[r][j][0] * curr[j][0] - h[r][j][1] * curr[j][1] for j in range(dim))
                him = sum(h[r][j][0] * curr[j][1] + h[r][j][1] * curr[j][0] for j in range(dim))
                out.append((prev[r][0] + him, prev[r][1] - hre))
            return out

        cols = [[[(int(r == c), 0) for r in range(dim)] for c in range(dim)],
                [[(0, 0)] * dim for _ in range(dim)]]
        while len(cols) <= k_max:
            cols.append([step(p, c) for p, c in zip(cols[-2], cols[-1])])
        expected = [[list(row) for row in zip(*t)] for t in cols[: k_max + 1]]
        seq = transfer_sequence(model, k_max)
        assert [dense_of(t) for t in seq] == expected

    @given(small_model(), st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_adjoint_is_parity_times_self(self, model, k_max):
        for k, poly in enumerate(transfer_sequence(model, k_max)):
            t = dense_of(poly)
            sign = 1 if k % 2 == 0 else -1
            for r in range(model.dim):
                for c in range(model.dim):
                    re, im = t[c][r]
                    assert t[r][c] == (sign * re, -sign * im)


class TestEqualInitialForm:
    def test_order_zero_is_identity(self):
        model = sigma1_model()
        psi0 = GaussianIntVector.basis(2, 0)
        assert equal_initial_form(model, psi0, 0) == psi0

    def test_two_steps_by_hand(self):
        # psi2 = psi0 - i H psi0 for equal initial states
        model = sigma1_model()
        got = equal_initial_form(model, GaussianIntVector.basis(2, 0), 2)
        assert got == GaussianIntVector([GaussianInt(1, 0), GaussianInt(0, -1)])

    def test_matches_evolve_with_equal_start(self):
        rng = random.Random(41)
        for _ in range(5):
            dim = rng.randint(2, 4)
            model = random_model(rng, dim, -2, 2)
            psi0 = random_vector(rng, dim, -3, 3)
            traj = evolve(CAPairState(psi0, psi0, index_n=1), model, steps=50)
            for n in (0, 1, 2, 9, 25, 50):
                assert equal_initial_form(model, psi0, n) == traj.state_at(n)


# =============================================================================
# Dispersion
# =============================================================================


class TestDispersion:
    def test_special_values(self):
        assert dispersion_omega(0) == 0
        assert dispersion_omega(1).real == pytest.approx(math.pi / 6)
        assert dispersion_omega(1).imag == 0
        assert dispersion_omega(2).real == pytest.approx(math.pi / 2)

    def test_supercritical_is_complex(self):
        omega = dispersion_omega(3)
        assert omega.imag != 0
        assert abs(2 * cmath.sin(omega) - 3) < 1e-12

    def test_defining_relation(self):
        for lam in (-1.7, -0.3, 0.0, 0.5, 1.99, 2.0, 2.5):
            omega = dispersion_omega(lam)
            assert abs(2 * cmath.sin(omega) - lam) < 1e-12

    def test_stationary_ansatz_residual(self):
        # plane-wave substitution into the update rule, eigenvector of sigma1
        model = sigma1_model()
        h = model.as_complex_array()
        vec = np.array([1.0, 1.0]) / math.sqrt(2)
        omega = dispersion_omega(1.0)
        worst = 0.0
        for n in range(1, 101):
            res = (
                np.exp(-1j * omega * (n + 1)) * vec
                - np.exp(-1j * omega * (n - 1)) * vec
                + 1j * (h @ (np.exp(-1j * omega * n) * vec))
            )
            worst = max(worst, float(np.max(np.abs(res))))
        assert worst <= 1e-10


# =============================================================================
# Continuum limit
# =============================================================================


class TestContinuumLimit:
    def test_zero_hamiltonian_no_deviation(self):
        assert continuum_deviation(zero_model(2), [1, 0], 0.1, 20) == 0.0

    def test_sweep_shrinks_monotonically(self):
        rows = continuum_limit_check(sigma1_model(), [1, 0], (0.2, 0.1, 0.05), 2.0)
        devs = [dev for _, _, dev in rows]
        assert devs[0] > devs[1] > devs[2] > 0

    def test_first_order_convergence(self):
        rows = continuum_limit_check(sigma1_model(), [1, 0], (0.2, 0.1, 0.05), 2.0)
        devs = [dev for _, _, dev in rows]
        for k in range(len(devs) - 1):
            assert devs[k] / devs[k + 1] >= 1.8

    def test_critical_model_rejected(self):
        model = build_hamiltonian(((2, 0), (0, -2)), ZERO2)
        with pytest.raises(CriticalSpectrum):
            continuum_deviation(model, [1, 0], 0.1, 10)

    def test_scale_type_validation(self):
        with pytest.raises(ValueError):
            DiscretenessScale(0.0)
        assert DiscretenessScale(0.5).l == 0.5

    @given(
        st.sampled_from(["sigma1", "subcritical"]),
        st.floats(min_value=0.01, max_value=0.5),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_list_based_route(self, kind, epsilon, n_max, seed):
        """The two-state sweep gives the very float of the route that keeps
        every state and compares afterwards."""
        rng = random.Random(seed)
        model = sigma1_model() if kind == "sigma1" else random_subcritical_model(rng, 3)
        psi0 = [complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(model.dim)]
        psi0[0] += 3  # never the zero vector

        h = epsilon * model.as_complex_array()
        start = np.asarray(psi0, dtype=complex)
        states = [start.copy(), start.copy()]
        for _ in range(n_max):
            states.append(states[-2] - 1j * (h @ states[-1]))
        evals, vecs = np.linalg.eigh(h)
        coeff0 = vecs.conj().T @ start
        worst = 0.0
        for n, state in enumerate(states):
            expected = vecs @ (np.exp(-1j * evals * n / 2.0) * coeff0)
            worst = max(worst, float(np.max(np.abs(state - expected))))

        assert continuum_deviation(model, psi0, epsilon, n_max) == worst

    def test_memory_does_not_grow_with_steps(self):
        import tracemalloc

        tracemalloc.start()
        try:
            continuum_deviation(sigma1_model(), [1, 0], 1e-4, 20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # keeping all 20002 states of dim 2 would take about 2.5 MB
        assert peak < 500_000
