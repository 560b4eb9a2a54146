"""Two-time propagation, synchronization modes, and product-rule diagnostics.

The product-solution residual is recomputed here from raw trajectory data
with an independently coded tensor product and stencil sum, so the field
machinery is checked against first principles.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ontoca.errors import (
    DimensionMismatch,
    DomainTooSmall,
    GeometryMismatch,
    LengthTooShort,
    MissingExtraPoint,
    NotSelfAdjoint,
)
from ontoca.gaussian import (
    CAPairState,
    GaussianInt,
    GaussianIntVector,
    GaussianRational,
    build_hamiltonian,
    evolve,
)
from ontoca.multitime import (
    MultiTimeField,
    TensorHamiltonian,
    equation_residual,
    interior_points,
    leibniz_identity_check,
    line_pair,
    norm_sq_exact,
    product_field,
    propagate_diagonal,
    propagate_line,
    schmidt_rank,
    sync_first_order,
    synchronized_states,
)
from ontoca.verify import random_model, random_vector

SIGMA1 = ((0, 1), (1, 0))
PAIR_FLIP = (  # sigma1 (x) sigma1 on the flattened 2x2 index
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, 1, 0, 0),
    (1, 0, 0, 0),
)


def exact(value):
    """A Gaussian rational; a complex literal is read from its integer parts."""
    if isinstance(value, complex):
        return GaussianRational(int(value.real), int(value.imag))
    return GaussianRational._coerce(value)


def digits(index, dims):
    """Row-major multi-index of a flattened component index."""
    out = []
    for d in reversed(dims):
        index, digit = divmod(index, d)
        out.append(digit)
    return out[::-1]


def dense_kron_sum(*factors):
    """H1 x 1 x ... + 1 x H2 x ... + ... as a dense GaussianRational matrix,
    written entry by entry from the factors' dense H."""
    dims = [m.dim for m in factors]
    dense = [m.h_matrix for m in factors]
    total = math.prod(dims)
    out = []
    for r in range(total):
        rd = digits(r, dims)
        row = []
        for c in range(total):
            cd = digits(c, dims)
            value = exact(0)
            for i, h in enumerate(dense):
                if all(rd[j] == cd[j] for j in range(len(dims)) if j != i):
                    value = value + h[rd[i]][cd[i]]
            row.append(value)
        out.append(row)
    return out


def dense_apply(matrix, vec):
    return tuple(
        sum((matrix[r][c] * exact(vec[c]) for c in range(len(vec))), exact(0))
        for r in range(len(matrix))
    )


def const_field(dims, points, value):
    length = dims[0] * dims[1]
    return MultiTimeField(dims, {p: [value] * length for p in points})


# =============================================================================
# Tensor Hamiltonians
# =============================================================================


class TestTensorHamiltonian:
    def test_separable_expansion_matches_kron(self):
        import numpy as np

        rng = random.Random(2)
        m1 = random_model(rng, 2, -2, 2)
        m2 = random_model(rng, 3, -2, 2)
        h = TensorHamiltonian.separable(m1, m2)
        expected = np.kron(m1.as_complex_array(), np.eye(3)) + np.kron(
            np.eye(2), m2.as_complex_array()
        )
        assert np.array_equal(h.as_complex_array(), expected)
        assert h.dims == (2, 3)

    def test_three_factor_separable(self):
        import numpy as np

        h = TensorHamiltonian.separable(SIGMA1, SIGMA1, SIGMA1)
        assert h.dims == (2, 2, 2)
        s = np.array(SIGMA1, dtype=complex)
        eye = np.eye(2)
        expected = (
            np.kron(np.kron(s, eye), eye)
            + np.kron(np.kron(eye, s), eye)
            + np.kron(np.kron(eye, eye), s)
        )
        assert np.array_equal(h.as_complex_array(), expected)

    def test_general_requires_self_adjoint(self):
        with pytest.raises(NotSelfAdjoint):
            TensorHamiltonian.general(((0, 1), (0, 0)), dims=(2, 1))

    def test_general_dims_must_match(self):
        with pytest.raises(DimensionMismatch):
            TensorHamiltonian.general(PAIR_FLIP, dims=(2, 3))

    def test_general_dims_must_be_integers(self):
        # (2.7, 1) is refused, not truncated to (2, 1)
        with pytest.raises(TypeError):
            TensorHamiltonian.general(PAIR_FLIP, dims=(2.7, 1))

    def test_apply_exact(self):
        h = TensorHamiltonian.general(PAIR_FLIP, dims=(2, 2))
        out = h.apply([1, 0, 0, 0])
        assert out == (exact(0), exact(0), exact(0), exact(1))


# =============================================================================
# Product solutions of the two-time equation
# =============================================================================


def independent_residual(t1, t2, h_matrix, n1, n2):
    """Stencil sum computed from raw trajectories with a locally coded kron."""

    def prod(na, nb):
        a = t1.state_at(na)
        b = t2.state_at(nb)
        return [exact(x) * exact(y) for x in a for y in b]

    center = prod(n1, n2)
    forced = dense_apply(h_matrix, center)
    out = []
    for k in range(len(center)):
        value = (
            prod(n1 + 1, n2)[k]
            - prod(n1 - 1, n2)[k]
            + prod(n1, n2 + 1)[k]
            - prod(n1, n2 - 1)[k]
            + forced[k].times_i()
        )
        out.append(value)
    return out


class TestProductSolution:
    def test_zero_residual_everywhere(self):
        rng = random.Random(9)
        for _ in range(5):
            m1 = random_model(rng, 2, -2, 2)
            m2 = random_model(rng, 2, -2, 2)
            t1 = evolve(CAPairState(random_vector(rng, 2), random_vector(rng, 2)), m1, 8)
            t2 = evolve(CAPairState(random_vector(rng, 2), random_vector(rng, 2)), m2, 8)
            h = TensorHamiltonian.separable(m1, m2)
            field = product_field(t1, t2)
            pts = interior_points(field)
            assert len(pts) == 8 * 8
            for point in pts:
                assert all(r.is_zero() for r in equation_residual(field, h, point))
                ind = independent_residual(t1, t2, dense_kron_sum(m1, m2), *point)
                assert all(r.is_zero() for r in ind)

    def test_residual_requires_full_stencil(self):
        field = const_field((1, 1), [(0, 0), (1, 0)], 1)
        h = TensorHamiltonian.general([[0]], dims=(1, 1))
        with pytest.raises(GeometryMismatch):
            equation_residual(field, h, (0, 0))


# =============================================================================
# Line propagation
# =============================================================================


class TestPropagateLine:
    def test_zero_coupling_constant_field(self):
        h = TensorHamiltonian.general([[0]], dims=(1, 1))
        field = const_field((1, 1), [(0, n2) for n2 in range(5)] + [(1, n2) for n2 in range(5)], 7)
        stepped = propagate_line(field, h, axis="n1", direction=1)
        new_points = [p for p in stepped.points() if p[0] == 2]
        assert [p[1] for p in new_points] == [1, 2, 3]
        for p in new_points:
            assert stepped.get(p) == (exact(7),)

    def test_reproduces_product_solution_both_directions(self):
        rng = random.Random(12)
        m1 = random_model(rng, 2, -2, 2)
        m2 = random_model(rng, 2, -2, 2)
        t1 = evolve(CAPairState(random_vector(rng, 2), random_vector(rng, 2)), m1, 8)
        t2 = evolve(CAPairState(random_vector(rng, 2), random_vector(rng, 2)), m2, 8)
        h = TensorHamiltonian.separable(m1, m2)
        field = product_field(t1, t2)
        mid = [(4, n2) for n2 in range(10)] + [(5, n2) for n2 in range(10)]
        base = field.restricted(mid)
        up = propagate_line(base, h, axis="n1", direction=1)
        for p in (q for q in up.points() if q[0] == 6):
            assert up.get(p) == field.get(p)
        down = propagate_line(base, h, axis="n1", direction=-1)
        for p in (q for q in down.points() if q[0] == 3):
            assert down.get(p) == field.get(p)

    def test_transverse_axis(self):
        rng = random.Random(13)
        m1 = random_model(rng, 2, -2, 2)
        m2 = random_model(rng, 2, -2, 2)
        t1 = evolve(CAPairState(random_vector(rng, 2), random_vector(rng, 2)), m1, 8)
        t2 = evolve(CAPairState(random_vector(rng, 2), random_vector(rng, 2)), m2, 8)
        h = TensorHamiltonian.separable(m1, m2)
        field = product_field(t1, t2)
        base = field.restricted([(n1, 3) for n1 in range(10)] + [(n1, 4) for n1 in range(10)])
        stepped = propagate_line(base, h, axis="n2", direction=1)
        for p in (q for q in stepped.points() if q[1] == 5):
            assert stepped.get(p) == field.get(p)

    def test_causal_shrinking_and_domain_exhaustion(self):
        h = TensorHamiltonian.general([[0]], dims=(1, 1))
        field = const_field((1, 1), [(0, n2) for n2 in range(3)] + [(1, n2) for n2 in range(3)], 1)
        stepped = propagate_line(field, h)
        assert [p for p in stepped.points() if p[0] == 2] == [(2, 1)]
        with pytest.raises(DomainTooSmall):
            propagate_line(stepped, h)

    def test_periodic_keeps_length(self):
        h = TensorHamiltonian.general([[0]], dims=(1, 1))
        field = const_field((1, 1), [(0, n2) for n2 in range(4)] + [(1, n2) for n2 in range(4)], 3)
        stepped = propagate_line(field, h, periodic=True)
        new_points = [p for p in stepped.points() if p[0] == 2]
        assert [p[1] for p in new_points] == [0, 1, 2, 3]
        for p in new_points:
            assert stepped.get(p) == (exact(3),)

    def test_geometry_validation(self):
        h = TensorHamiltonian.general([[0]], dims=(1, 1))
        three_lines = const_field((1, 1), [(n1, n2) for n1 in range(3) for n2 in range(3)], 1)
        with pytest.raises(GeometryMismatch):
            propagate_line(three_lines, h)
        gap = const_field((1, 1), [(0, 0), (0, 2), (1, 0), (1, 2)], 1)
        with pytest.raises(GeometryMismatch):
            propagate_line(gap, h)
        apart = const_field((1, 1), [(0, n2) for n2 in range(3)] + [(2, n2) for n2 in range(3)], 1)
        with pytest.raises(GeometryMismatch):
            propagate_line(apart, h)


LINE_CASES = [
    ([(n1, n2) for n1 in range(3) for n2 in range(3)], False, GeometryMismatch,
     "expected exactly 2 lines, found [0, 1, 2]"),
    ([(n1, n2) for n1 in (0, 2) for n2 in range(3)], False, GeometryMismatch,
     "lines 0 and 2 are not adjacent"),
    ([(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)], False, GeometryMismatch,
     "line has gaps; expected a contiguous extent"),
    ([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)], True, GeometryMismatch,
     "periodic propagation needs lines of equal extent"),
    ([(n1, n2) for n1 in (0, 1) for n2 in range(2)], False, DomainTooSmall,
     "no point on line 2 has a complete stencil; need a center line of length >= 3"),
]


class TestGeometryMessages:
    """The texts the CLI prints after `config error: initial_field:`."""

    H = TensorHamiltonian.general([[0]], dims=(1, 1))

    @pytest.mark.parametrize("points, periodic, error, text", LINE_CASES)
    def test_line(self, points, periodic, error, text):
        field = const_field((1, 1), points, 1)
        with pytest.raises(error) as info:
            propagate_line(field, self.H, periodic=periodic)
        assert str(info.value) == text

    @pytest.mark.parametrize("points, periodic, error, text", LINE_CASES)
    def test_line_pair_checks_the_geometry_without_stepping(self, points, periodic, error, text):
        field = const_field((1, 1), points, 1)
        if error is not GeometryMismatch:  # a field too short to step is well shaped
            lines = line_pair(field, "n1", periodic)
            assert {c: sorted(line) for c, line in lines.items()} == {0: [0, 1], 1: [0, 1]}
            return
        with pytest.raises(GeometryMismatch) as info:
            line_pair(field, "n1", periodic)
        assert str(info.value) == text

    @pytest.mark.parametrize("diagonals, extra_point, error, text", [
        ((4,), (0, 5), GeometryMismatch, "expected exactly 2 anti-diagonals, found n1+n2 in [4]"),
        ((3, 5), (0, 6), GeometryMismatch, "diagonals 3 and 5 are not adjacent"),
        ((3, 4), None, MissingExtraPoint, "a seed point on the next diagonal is required"),
        ((3, 4), (0, 3), MissingExtraPoint, "seed point (0, 3) is not on diagonal n1+n2 = 5"),
    ])
    def test_diagonal(self, diagonals, extra_point, error, text):
        field = const_field((1, 1), [(k, s - k) for s in diagonals for k in range(s + 1)], 0)
        with pytest.raises(error) as info:
            propagate_diagonal(field, self.H, extra_point, [0])
        assert str(info.value) == text


# =============================================================================
# Diagonal propagation
# =============================================================================


def two_diagonals(field, s):
    return field.restricted([p for p in field.points() if p[0] + p[1] in (s - 1, s)])


class TestPropagateDiagonal:
    def test_zero_everything(self):
        h = TensorHamiltonian.general([[0]], dims=(1, 1))
        pts = [(k, 3 - k) for k in range(4)] + [(k, 4 - k) for k in range(5)]
        field = const_field((1, 1), pts, 0)
        stepped = propagate_diagonal(field, h, (2, 3), [0])
        new = [p for p in stepped.points() if p[0] + p[1] == 5]
        assert len(new) >= 3
        for p in new:
            assert stepped.get(p) == (exact(0),)

    def test_reproduces_product_solution(self):
        rng = random.Random(21)
        m1 = random_model(rng, 2, -2, 2)
        m2 = random_model(rng, 2, -2, 2)
        t1 = evolve(CAPairState(random_vector(rng, 2), random_vector(rng, 2)), m1, 10)
        t2 = evolve(CAPairState(random_vector(rng, 2), random_vector(rng, 2)), m2, 10)
        h = TensorHamiltonian.separable(m1, m2)
        field = product_field(t1, t2)
        base = two_diagonals(field, 6)
        extra = (3, 4)
        stepped = propagate_diagonal(base, h, extra, field.get(extra))
        new = [p for p in stepped.points() if p[0] + p[1] == 7]
        assert len(new) > 3
        for p in new:
            assert stepped.get(p) == field.get(p)
        # substituting back: residual zero at every complete center on diagonal 6
        merged = base.union(stepped)
        centers = [p for p in interior_points(merged) if p[0] + p[1] == 6]
        assert centers
        for point in centers:
            assert all(r.is_zero() for r in equation_residual(merged, h, point))

    def test_seed_value_changes_everything(self):
        rng = random.Random(22)
        m1 = random_model(rng, 2, -2, 2)
        m2 = random_model(rng, 2, -2, 2)
        t1 = evolve(CAPairState(random_vector(rng, 2), random_vector(rng, 2)), m1, 10)
        t2 = evolve(CAPairState(random_vector(rng, 2), random_vector(rng, 2)), m2, 10)
        h = TensorHamiltonian.separable(m1, m2)
        field = product_field(t1, t2)
        base = two_diagonals(field, 6)
        extra = (3, 4)
        first = propagate_diagonal(base, h, extra, field.get(extra))
        shifted = tuple(c + 1 for c in field.get(extra))
        second = propagate_diagonal(base, h, extra, shifted)
        new = [p for p in first.points() if p[0] + p[1] == 7]
        for p in new:
            assert first.get(p) != second.get(p)

    def test_missing_extra_point(self):
        h = TensorHamiltonian.general([[0]], dims=(1, 1))
        pts = [(k, 3 - k) for k in range(4)] + [(k, 4 - k) for k in range(5)]
        field = const_field((1, 1), pts, 0)
        with pytest.raises(MissingExtraPoint):
            propagate_diagonal(field, h, None, [0])
        with pytest.raises(MissingExtraPoint):
            propagate_diagonal(field, h, (0, 3), [0])  # on diagonal s, not s+1

    def test_geometry_validation(self):
        h = TensorHamiltonian.general([[0]], dims=(1, 1))
        one_diag = const_field((1, 1), [(k, 4 - k) for k in range(5)], 0)
        with pytest.raises(GeometryMismatch):
            propagate_diagonal(one_diag, h, (0, 5), [0])


# =============================================================================
# Synchronized modes
# =============================================================================


class TestSyncSecondOrder:
    def test_zero_coupling(self):
        h = TensorHamiltonian.general([[0, 0], [0, 0]], dims=(2, 1))
        assert synchronized_states(([3, 4], [1, 1]), h, 1)[-1] == ((3, 0), (4, 0))

    def test_hand_expansion(self):
        h = TensorHamiltonian.general(PAIR_FLIP, dims=(2, 2))
        nxt = synchronized_states(([1, 0, 0, 0], [0, 0, 0, 1]), h, 1)[-1]
        assert nxt == ((1, -1), (0, 0), (0, 0), (0, 0))

    def test_matches_flattened_single_system(self):
        rng = random.Random(33)
        model = build_hamiltonian(PAIR_FLIP, tuple((0,) * 4 for _ in range(4)))
        h = TensorHamiltonian.general(PAIR_FLIP, dims=(2, 2))
        prev = random_vector(rng, 4)
        curr = random_vector(rng, 4)
        traj = evolve(CAPairState(prev, curr), model, steps=12)
        states = synchronized_states((prev, curr), h, 12)
        assert len(states) == len(traj) == 14
        for k, vec in enumerate(states):
            assert vec == traj[k].pairs


class TestSyncFirstOrder:
    def test_pair_flip_periods(self):
        h = TensorHamiltonian.general(PAIR_FLIP, dims=(2, 2))
        run = sync_first_order([1, 0, 0, 0], h, steps=4)
        e00 = (exact(1), exact(0), exact(0), exact(0))
        assert run[1] == (exact(0), exact(0), exact(0), exact(complex(0, -1)))
        assert run[2] == tuple(-c for c in e00)
        assert run[4] == e00
        rays = [schmidt_rank(s, (2, 2)) for s in run]
        assert rays == [1] * 5

    def test_identity_coupling_pure_phase(self):
        h = TensorHamiltonian.general(((1, 0), (0, 1)), dims=(2, 1))
        run = sync_first_order([1, 0], h, steps=3)
        assert run[1] == (exact(complex(0, -1)), exact(0))
        assert run[2] == (exact(-1), exact(0))

    def test_separable_coupling_generates_correlations(self):
        h = TensorHamiltonian.separable(SIGMA1, SIGMA1)
        run = sync_first_order([1, 0, 0, 0], h, steps=1)
        # -i (e10 + e01): two equal terms across the split
        assert run[1] == (
            exact(0),
            exact(complex(0, -1)),
            exact(complex(0, -1)),
            exact(0),
        )
        assert schmidt_rank(run[1], (2, 2)) == 2

    def test_permutation_coupling_preserves_norm(self):
        from ontoca.ising import GraphTopology, model_b_transfer

        topo = GraphTopology.fully_connected(2)
        transfer = model_b_transfer(topo).to_dense()
        # i * transfer is the self-adjoint generator; entries are exact 0/1
        h_matrix = [[int(round((1j * z).real)) for z in row] for row in transfer]
        h = TensorHamiltonian.general(h_matrix, dims=(2, 2, 2))
        state = [1, 2, 0, 0, 3, 0, 0, -1]
        run = sync_first_order(state, h, steps=9)
        n0 = norm_sq_exact(run[0])
        assert all(norm_sq_exact(s) == n0 for s in run)


# =============================================================================
# The Gaussian-integer kernel against the dense reference
# =============================================================================

BIG = 2**70


@st.composite
def models(draw, dim, bound=BIG):
    """Random self-adjoint H = S + iA with entries up to `bound`; zero rows happen."""
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    s = [[0] * dim for _ in range(dim)]
    a = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r, dim):
            s[r][c] = s[c][r] = draw(entry)
            if c > r:
                a[r][c] = draw(entry)
                a[c][r] = -a[r][c]
    return build_hamiltonian(s, a)


@st.composite
def couplings(draw, factors=2):
    """A general or separable coupling over dims 1..4 per factor, with its dense reference."""
    dims = tuple(draw(st.integers(1, 4)) for _ in range(factors))
    if draw(st.booleans()):
        parts = [draw(models(d)) for d in dims]
        return TensorHamiltonian.separable(*parts), dense_kron_sum(*parts)
    total = math.prod(dims)
    m = draw(models(total))
    rows = [list(row) for row in m.h_matrix]
    return TensorHamiltonian.general(rows, dims), [[exact(z) for z in row] for row in rows]


def vectors(length, rational):
    part = st.integers(-BIG, BIG)
    if rational:
        part = st.builds(Fraction, part, st.integers(1, 30))
    return st.lists(st.builds(GaussianRational, part, part), min_size=length, max_size=length)


def draw_field(data, dims, points, rational):
    length = dims[0] * dims[1]
    return MultiTimeField(dims, {p: data.draw(vectors(length, rational)) for p in points})


def dense_residual(field, h_dense, point, wrap=lambda p: p):
    """The two-time equation's residual from the dense reference; `wrap`
    maps a stencil point into a periodic domain."""
    n1, n2 = point

    def at(p):
        return field.get(wrap(p))

    forced = dense_apply(h_dense, at(point))
    return tuple(
        at((n1 + 1, n2))[k] - at((n1 - 1, n2))[k] + at((n1, n2 + 1))[k] - at((n1, n2 - 1))[k]
        + forced[k].times_i()
        for k in range(len(forced))
    )


class TestKernelAgainstDense:
    @given(couplings(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_apply_and_synchronized_updates(self, coupling, data):
        h, dense = coupling
        rational = data.draw(st.booleans())
        prev, curr = (data.draw(vectors(h.total_dim, rational)) for _ in range(2))
        assert h.apply(curr) == dense_apply(dense, curr)
        expected = tuple(p - f.times_i() for p, f in zip(prev, dense_apply(dense, curr)))
        assert synchronized_states((prev, curr), h, 1)[-1] == tuple((z.re, z.im) for z in expected)
        run = sync_first_order(curr, h, steps=3)
        state = tuple(curr)
        for k in range(4):
            assert run[k] == state
            state = tuple(-f.times_i() for f in dense_apply(dense, state))

    @given(couplings(factors=3), st.data())
    @settings(max_examples=15, deadline=None)
    def test_three_factor_apply(self, coupling, data):
        h, dense = coupling
        vec = data.draw(vectors(h.total_dim, data.draw(st.booleans())))
        assert h.apply(vec) == dense_apply(dense, vec)

    @given(couplings(), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equation_residual(self, coupling, rational, data):
        h, dense = coupling
        field = draw_field(data, h.dims, [(a, b) for a in range(3) for b in range(3)], rational)
        assert equation_residual(field, h, (1, 1)) == dense_residual(field, dense, (1, 1))

    @given(
        couplings(), st.booleans(), st.sampled_from(["n1", "n2"]), st.sampled_from([1, -1]),
        st.booleans(), st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_propagate_line(self, coupling, rational, axis, direction, periodic, data):
        h, dense = coupling
        # a periodic line of 1 or 2 points wraps onto the same or the other point
        length = data.draw(st.integers(1 if periodic else 3, 5))
        # lines at coordinate 0 and 1 along `axis`, transverse coordinates 0..length-1
        orient = (lambda c, o: (c, o)) if axis == "n1" else (lambda c, o: (o, c))
        field = draw_field(
            data, h.dims, [orient(c, o) for c in (0, 1) for o in range(length)], rational
        )
        stepped = propagate_line(field, h, axis=axis, direction=direction, periodic=periodic)
        new_coord = 2 if direction == 1 else -1
        center_coord = 1 if direction == 1 else 0
        new = [p for p in stepped.points() if p[0 if axis == "n1" else 1] == new_coord]
        transverse = range(length) if periodic else range(1, length - 1)
        assert new == sorted(orient(new_coord, o) for o in transverse)
        # every point solves the equation at its center, read from the dense reference
        merged = field.union(stepped)

        def wrap(p):
            c, o = orient(*p)
            return orient(c, o % length) if periodic else p

        for o in transverse:
            residual = dense_residual(merged, dense, orient(center_coord, o), wrap)
            assert all(r.is_zero() for r in residual)

    @given(couplings(), st.booleans(), st.integers(3, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_propagate_diagonal(self, coupling, rational, s, data):
        h, dense = coupling
        points = [(a, d - a) for d in (s - 1, s) for a in range(d + 1)]
        field = draw_field(data, h.dims, points, rational)
        seed_n1 = data.draw(st.integers(1, s))
        seed_value = data.draw(vectors(h.total_dim, rational))
        stepped = propagate_diagonal(field, h, (seed_n1, s + 1 - seed_n1), seed_value)
        assert stepped.get((seed_n1, s + 1 - seed_n1)) == tuple(seed_value)
        # the centers with both lower neighbours are (a, s - a) for a in 1..s-1;
        # together they determine n1 = 1..s on the next diagonal
        assert [p for p in stepped.points() if sum(p) == s + 1] == [
            (a, s + 1 - a) for a in range(1, s + 1)
        ]
        merged = field.union(stepped)
        for point in [(a, s - a) for a in range(1, s)]:
            assert all(r.is_zero() for r in dense_residual(merged, dense, point))


class TestSeparableRows:
    """separable writes the Kronecker-sum rows straight from the factor rows;
    build_hamiltonian of the dense sum, written entry by entry here, gives the
    same model, with the same hash."""

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=3).flatmap(
        lambda dims: st.tuples(*(models(d, bound=2) for d in dims))))
    @settings(max_examples=60, deadline=None)
    def test_small_entries_equal_dense_kronecker_sum(self, factors):
        self.check(factors)

    @given(st.lists(st.integers(1, 3), min_size=2, max_size=3).flatmap(
        lambda dims: st.tuples(*(models(d) for d in dims))))
    @settings(max_examples=30, deadline=None)
    def test_wide_entries_equal_dense_kronecker_sum(self, factors):
        self.check(factors)

    @staticmethod
    def check(factors):
        h = TensorHamiltonian.separable(*factors)
        dense = dense_kron_sum(*factors)
        s = [[int(z.re) for z in row] for row in dense]
        a = [[int(z.im) for z in row] for row in dense]
        expected = build_hamiltonian(s, a)
        assert h.dims == tuple(m.dim for m in factors)
        assert h.model == expected and hash(h.model) == hash(expected)
        assert h.model.h_rows == expected.h_rows
        matrix = [list(zip(srow, arow)) for srow, arow in zip(s, a)]
        assert TensorHamiltonian.general(matrix, h.dims) == h

    def test_diagonal_sums_that_cancel_leave_no_entry(self):
        sigma3 = ((1, 0), (0, -1))
        h = TensorHamiltonian.separable(sigma3, sigma3)
        # diag(1, -1) x 1 + 1 x diag(1, -1) = diag(2, 0, 0, -2)
        assert h.model.h_rows == (((0, 2, 0),), (), (), ((3, -2, 0),))


# =============================================================================
# Diagnostics
# =============================================================================


class TestSchmidtRank:
    def test_product_state(self):
        assert schmidt_rank([0, 1, 0, 0], (2, 2)) == 1

    def test_maximally_entangled(self):
        assert schmidt_rank([1, 0, 0, 1], (2, 2)) == 2

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            schmidt_rank([1, 0, 0], (2, 2))

    def test_wide_spread_of_magnitudes_is_full_rank(self):
        # diag(10**12, 1): a float SVD with a relative cutoff of 1e-10 read rank 1
        assert schmidt_rank([10**12, 0, 0, 1], (2, 2)) == 2

    def test_components_past_float_range(self):
        # complex(10**400) overflows a float
        assert schmidt_rank([10**400, 0, 0, 1], (2, 2)) == 2
        assert schmidt_rank([10**400, 10**400, 1, 1], (2, 2)) == 1

    def test_zero_state(self):
        assert schmidt_rank([0, 0, 0, 0, 0, 0], (2, 3)) == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_row_reduction(self, data):
        """Against an independent row reduction over Gaussian rationals, on
        shapes up to 4 x 4 of ints up to 2**70 and Fractions, with rank cut down
        by building the matrix as a sum of r outer products."""
        d1, d2 = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        part = st.one_of(st.just(0), st.integers(-2**70, 2**70),
                         st.fractions(-2**70, 2**70, max_denominator=2**20))
        entry = st.builds(GaussianRational, part, part)
        if data.draw(st.booleans()):
            rows = data.draw(st.lists(st.lists(entry, min_size=d2, max_size=d2),
                                      min_size=d1, max_size=d1))
        else:
            r = data.draw(st.integers(0, min(d1, d2)))
            left = data.draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                                      min_size=d1, max_size=d1))
            right = data.draw(st.lists(st.lists(entry, min_size=d2, max_size=d2),
                                       min_size=r, max_size=r))
            rows = [[sum((a * right[k][c] for k, a in enumerate(row)), GaussianRational(0))
                     for c in range(d2)] for row in left]
        state = [x for row in rows for x in row]
        assert schmidt_rank(state, (d1, d2)) == fraction_rank(rows)


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination on (re, im) pairs of Fractions."""
    m = [[(Fraction(x.re), Fraction(x.im)) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != (0, 0)), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pre, pim = m[rank][col]
        norm = pre * pre + pim * pim
        for r in range(rank + 1, len(m)):
            xre, xim = m[r][col]
            # factor = m[r][col] / pivot
            fre, fim = (xre * pre + xim * pim) / norm, (xim * pre - xre * pim) / norm
            m[r] = [(yre - (fre * zre - fim * zim), yim - (fre * zim + fim * zre))
                    for (yre, yim), (zre, zim) in zip(m[r], m[rank])]
        rank += 1
    return rank


class TestLeibniz:
    def test_constant_sequences(self):
        report = leibniz_identity_check([3] * 5, [7] * 5)
        assert report.modified_exact
        assert report.naive_exact

    def test_linear_sequences_satisfy_both(self):
        # the neighbour average of a linear sequence equals its centre value,
        # so even the naive rule closes here; quadratic growth breaks it
        seq = list(range(-3, 4))
        report = leibniz_identity_check(seq, seq)
        assert report.modified_exact
        assert report.naive_exact

    def test_quadratic_breaks_naive_rule(self):
        seq = [n * n for n in range(7)]
        report = leibniz_identity_check(seq, seq)
        assert report.modified_exact
        assert not report.naive_exact
        # residual of the naive form at interior n is 8n
        assert report.naive_residuals[0] == GaussianRational(8)
        assert report.naive_residuals[4] == GaussianRational(40)

    def test_rational_and_complex_inputs(self):
        seq1 = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2), Fraction(0)]
        seq2 = [GaussianInt(1, 1), GaussianInt(0, -2), GaussianInt(3, 0), GaussianInt(2, 2)]
        report = leibniz_identity_check(seq1, seq2)
        assert report.modified_exact

    def test_too_short(self):
        with pytest.raises(LengthTooShort):
            leibniz_identity_check([1, 2], [3, 4])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            leibniz_identity_check([1, 2, 3], [1, 2])

    @given(
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=3, max_size=8
        ),
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=3, max_size=8
        ),
    )
    @settings(max_examples=100)
    def test_modified_rule_is_an_identity(self, raw1, raw2):
        n = min(len(raw1), len(raw2))
        seq1 = [GaussianInt(r, i) for r, i in raw1[:n]]
        seq2 = [GaussianInt(r, i) for r, i in raw2[:n]]
        report = leibniz_identity_check(seq1, seq2)
        assert report.modified_exact
