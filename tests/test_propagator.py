"""Spectral closed form, transfer polynomials, dispersion, continuum limit.

Exact iteration of the update rule (validated independently in
test_gaussian) is the oracle for both propagator routes.
"""

import ast
import cmath
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ontoca import gaussian, propagator
from ontoca.errors import CriticalSpectrum, DimensionMismatch
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
from ontoca.ontology import preset_hamiltonian
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

    @staticmethod
    def dense_column_oracle(s, a):
        """det(4*1 - H^2) == 0 with column c of H^2 as H times column c of H,
        both read from the dense S and A."""
        dim = len(s)

        def h(r, c):
            return GaussianInt(s[r][c], a[r][c])

        h2 = [[sum((h(r, t) * h(t, c) for t in range(dim)), GaussianInt()) for c in range(dim)]
              for r in range(dim)]
        four_minus_h2 = [[(4 * (r == c) - h2[r][c].re, -h2[r][c].im) for c in range(dim)]
                         for r in range(dim)]
        return gaussian._det_raw(four_minus_h2) == (0, 0)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_small_determinants(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=5))
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
        assert is_critical(model) == self.float_oracle(model) == self.dense_column_oracle(s, a)

    @pytest.mark.parametrize("name", ["H2", "H3", "H4"])
    def test_presets_match_dense_columns(self, name):
        model = preset_hamiltonian(name)
        s = [[z.re for z in row] for row in model.h_matrix]
        a = [[z.im for z in row] for row in model.h_matrix]
        assert is_critical(model) == self.dense_column_oracle(s, a)
        assert is_critical(model) == (name == "H3")

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

    @pytest.mark.parametrize("k_max", [True, False, 2.0, np.int64(3), "3", None])
    def test_order_must_be_an_exact_int(self, k_max):
        with pytest.raises(TypeError, match="k_max must be an int"):
            transfer_sequence(sigma1_model(), k_max)

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="k_max must be >= 0"):
            transfer_sequence(sigma1_model(), -1)

    def test_apply_reads_its_vector_as_a_vector_does(self):
        poly = transfer_sequence(sigma1_model(), 3)[3]
        expected = poly.apply(GaussianIntVector([1, 0]))
        assert poly.apply([1, 0]) == poly.apply([(1, 0), GaussianInt(0)]) == expected
        assert expected == GaussianIntVector([0, GaussianInt(0, -1)])
        with pytest.raises(TypeError, match="must be an int"):
            poly.apply([1.0, 0])
        with pytest.raises(DimensionMismatch, match="vector length 3 vs matrix dim 2"):
            poly.apply([1, 0, 0])
        with pytest.raises(DimensionMismatch):
            poly.apply(GaussianIntVector([1]))


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


def column_recursion(model, k_max):
    """T(0) .. T(k_max) as dense rows of (re, im) pairs, from the update rule run
    on each full column of (re, im) pairs, starting from e_c and 0: the oracle
    of the packed recursion."""
    dim = model.dim
    h = [[(z.re, z.im) for z in row] for row in model.h_matrix]

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
    return [[list(row) for row in zip(*t)] for t in cols[: k_max + 1]]


def spectral_radius(model):
    return max(abs(np.linalg.eigvalsh(model.as_complex_array())))


def count_layouts(patch):
    """A list that grows by one entry, the slot width, each time the packed
    recursion lays out its slots."""
    widths = []
    pack_rows = propagator._pack_rows

    def spy(rows, width):
        widths.append(width)
        return pack_rows(rows, width)

    patch.setattr(propagator, "_pack_rows", spy)
    return widths


class TestTransferParity:
    """transfer_sequence against the per-column recursion, and the parity
    T(k)^dagger = (-1)^k T(k) of its matrices: T(k) = F_{k-1}(-iH) is a
    polynomial of parity k in the self-adjoint H."""

    @given(small_model(), st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_column_recursion(self, model, k_max):
        seq = transfer_sequence(model, k_max)
        assert [dense_of(t) for t in seq] == column_recursion(model, k_max)

    @given(small_model().filter(lambda m: spectral_radius(m) >= 3),
           st.integers(min_value=100, max_value=150), st.sampled_from([0, None]))
    @settings(max_examples=25, deadline=None)
    def test_supercritical_to_order_150(self, model, k_max, slack):
        """Parts grow by at least 1.3 bits an order, so the slots are laid out
        again several times; with no spare bits (slack 0) every layout is as
        narrow as the bound allows."""
        with pytest.MonkeyPatch.context() as patch:
            if slack is not None:
                patch.setattr(propagator, "_SLOT_SLACK_BITS", slack)
            layouts = count_layouts(patch)
            seq = transfer_sequence(model, k_max)
        # each layout is packed twice, T(k-1) and T(k)
        assert len(layouts) >= 2 * 3
        assert [dense_of(t) for t in seq] == column_recursion(model, k_max)

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


# Standard-library names added after Python 3.10, by module ("builtins" for
# names that need no import; None for a whole module).
POST_3_10_NAMES = {
    "builtins": {"ExceptionGroup", "BaseExceptionGroup"},
    "tomllib": None,
    "asyncio": {"TaskGroup"},
    "contextlib": {"chdir"},
    "enum": {"StrEnum"},
    "datetime": {"UTC"},
    "hashlib": {"file_digest"},
    "operator": {"call"},
    "math": {"cbrt", "exp2", "sumprod"},
    "itertools": {"batched"},
    "typing": {"Self", "LiteralString", "Never", "assert_never", "reveal_type", "Required",
               "NotRequired"},
    # in 3.10 only from 3.10.7, so used behind hasattr(sys, ...)
    "sys": {"set_int_max_str_digits", "get_int_max_str_digits"},
}


def post_3_10_uses(source: str) -> list[str]:
    """Each use in `source` of a name of POST_3_10_NAMES, and each `to_bytes`
    call that leaves its length to the default 3.11 gave it, as 'line: name'.
    A module that tests for a module's names with hasattr(module, ...) may use
    them."""
    nodes = list(ast.walk(ast.parse(source)))
    modules = {alias.asname or alias.name: alias.name  # local name -> imported module
               for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    guarded = {modules.get(node.args[0].id) for node in nodes
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr"
               and isinstance(node.args[0], ast.Name)}

    def added(module, name):
        names = POST_3_10_NAMES.get(module, ())
        return (names is None or name in names) and module not in guarded

    def uses(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names if added(alias.name, None)]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return [f"{node.module}.{alias.name}" for alias in node.names
                    if added(node.module, alias.name)]
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            module = modules[node.value.id]
            return [f"{module}.{node.attr}"] if added(module, node.attr) else []
        if isinstance(node, ast.Name):
            return [node.id] if added("builtins", node.id) else []
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "to_bytes"):
            unbound = getattr(node.func.value, "id", None) == "int"  # int.to_bytes(x, ...)
            if len(node.args) <= unbound and all(kw.arg != "length" for kw in node.keywords):
                return ["to_bytes without a length"]
        return []

    return [f"{node.lineno}: {use}" for node in nodes for use in uses(node)]


class TestPackedRecursion:
    """The slot format of the packed recursion, and the bound its slot width
    rests on."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_unpack_rows_inverts_pack(self, data):
        """At every whole-byte width, each packed int plus the offsets of
        `_pack` is the `_pack` of its parts, and `_unpack_rows` gives the parts
        back, compiled, for any parts with |part| < 2**(width - 1)."""
        width = 8 * data.draw(st.integers(min_value=1, max_value=40))
        dim = data.draw(st.integers(min_value=1, max_value=8))
        limit = (1 << (width - 1)) - 1
        part = st.one_of(st.just(0), st.sampled_from([limit, -limit, 1, -1]),
                         st.integers(min_value=-limit, max_value=limit))
        dense = data.draw(st.lists(st.lists(st.tuples(part, part), min_size=dim, max_size=dim),
                                   min_size=1, max_size=4))
        offsets = gaussian._pack([0] * dim, width)
        packed = [(gaussian._pack([re for re, _ in row], width) - offsets,
                   gaussian._pack([im for _, im in row], width) - offsets) for row in dense]
        compiled = tuple(tuple((c, re, im) for c, (re, im) in enumerate(row) if re or im)
                         for row in dense)
        assert gaussian._pack_rows(compiled, width) == packed
        assert gaussian._unpack_rows(packed, width, dim) == compiled

    def test_byte_conversions_name_their_byteorder(self):
        """int.to_bytes and int.from_bytes default their byteorder only from
        Python 3.11, and the package supports 3.10: every call in the package
        passes it, positionally or by keyword."""
        package = pathlib.Path(gaussian.__file__).parent
        unnamed = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if (name in ("to_bytes", "from_bytes") and len(node.args) < 2
                        and not any(kw.arg == "byteorder" for kw in node.keywords)):
                    unnamed.append(f"{path.name}:{node.lineno}")
        assert unnamed == []

    def test_no_library_api_past_python_3_10(self):
        """The package supports Python 3.10 even when the suite runs on a later
        interpreter: no module uses a standard-library name added after 3.10,
        or leaves `int.to_bytes`'s length to the default 3.11 gave it."""
        package = pathlib.Path(gaussian.__file__).parent
        found = [f"{path.name}:{use}" for path in sorted(package.rglob("*.py"))
                 for use in post_3_10_uses(path.read_text())]
        assert found == []

    @pytest.mark.parametrize("source", [
        "import tomllib", "from tomllib import loads", "raise ExceptionGroup('x', [])",
        "import asyncio\nasyncio.TaskGroup()", "from contextlib import chdir",
        "import enum as e\nclass C(e.StrEnum): pass", "from datetime import UTC",
        "import hashlib\nhashlib.file_digest", "import operator\noperator.call(f)",
        "import math\nmath.cbrt(8)", "from math import exp2", "import math\nmath.sumprod(a, b)",
        "from itertools import batched", "from typing import Self",
        "import typing\ntyping.LiteralString", "from typing import Never, assert_never",
        "from typing import reveal_type", "import typing as t\nt.Required[int]",
        "from typing import NotRequired", "(5).to_bytes()", "x.to_bytes(byteorder='big')",
        "int.to_bytes(x)", "import sys\nsys.set_int_max_str_digits(0)",
    ])
    def test_the_guard_sees_each_post_3_10_name(self, source):
        assert post_3_10_uses(source)

    @pytest.mark.parametrize("source", [
        "import sys\nif hasattr(sys, 'set_int_max_str_digits'):\n"
        "    sys.set_int_max_str_digits(0)",
        "x.to_bytes(4, 'big')", "x.to_bytes(length=4, byteorder='big')",
        "int.to_bytes(x, 4, 'big')", "import math\nmath.prod(a)", "from typing import Optional",
    ])
    def test_the_guard_passes_3_10_code(self, source):
        assert post_3_10_uses(source) == []

    def test_every_module_parses_as_python_3_10(self):
        """The package supports Python 3.10 even when the suite runs on a later
        interpreter: every module must parse with 3.10's grammar (no
        `except*`, no type parameter lists)."""
        package = pathlib.Path(gaussian.__file__).parent
        for path in sorted(package.rglob("*.py")):
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))

    @given(st.integers(min_value=1, max_value=2**70), st.sampled_from([1, -1]),
           st.integers(min_value=0, max_value=60), st.sampled_from([0, None]))
    @settings(max_examples=60, deadline=None)
    def test_one_by_one_models(self, a, sign, k_max, slack):
        """H = [[+-a]]: for a >= 2 the nonzero part of T(k+1) has size
        h M_k - M_(k-1), close to the bound M_(k-1) + h M_k that sets the slot
        width, and with a up to 2**70 the slots are laid out again at nearly
        every order."""
        model = build_hamiltonian([[sign * a]], [[0]])
        with pytest.MonkeyPatch.context() as patch:
            if slack is not None:
                patch.setattr(propagator, "_SLOT_SLACK_BITS", slack)
            seq = transfer_sequence(model, k_max)
        assert [dense_of(t) for t in seq] == column_recursion(model, k_max)


class TestEqualInitialForm:
    @pytest.mark.parametrize("n", [True, 2.0, np.int64(3)])
    def test_order_must_be_an_exact_int(self, n):
        with pytest.raises(TypeError, match="n must be an int"):
            equal_initial_form(sigma1_model(), [1, 0], n)

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            equal_initial_form(sigma1_model(), [1, 0], -1)

    def test_memory_does_not_grow_with_order(self):
        """Only the latest two transfer matrices are held: on a critical model,
        whose parts grow only linearly, the peak at n = 4000 is about that at
        n = 500."""
        import tracemalloc

        model = build_hamiltonian(((2, 0), (0, -2)), ZERO2)
        assert is_critical(model)
        peaks = []
        for n in (500, 4000):
            tracemalloc.start()
            try:
                equal_initial_form(model, [1, 1], n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

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
