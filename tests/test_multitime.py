"""Two-time propagation, synchronization modes, and product-rule diagnostics.

The product-solution residual is recomputed here from raw trajectory data
with an independently coded tensor product and stencil sum, so the field
machinery is checked against first principles.
"""

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
    FirstOrderRun,
    MultiTimeField,
    TensorHamiltonian,
    as_exact_vector,
    equation_residual,
    interior_points,
    leibniz_identity_check,
    norm_sq_exact,
    product_field,
    propagate_diagonal,
    propagate_line,
    schmidt_rank,
    sync_first_order,
    sync_second_order,
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
    return GaussianRational._coerce(value)


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
        assert h.kind == "separable"

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
    forced = [
        sum((h_matrix[r][c] * center[c] for c in range(len(center))), exact(0))
        for r in range(len(center))
    ]
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
                ind = independent_residual(t1, t2, h.matrix, *point)
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
        assert sync_second_order([3, 4], [1, 1], h) == (exact(3), exact(4))

    def test_hand_expansion(self):
        h = TensorHamiltonian.general(PAIR_FLIP, dims=(2, 2))
        nxt = sync_second_order([1, 0, 0, 0], [0, 0, 0, 1], h)
        assert nxt == (exact(complex(1, -1)), exact(0), exact(0), exact(0))

    def test_matches_flattened_single_system(self):
        rng = random.Random(33)
        model = build_hamiltonian(PAIR_FLIP, tuple((0,) * 4 for _ in range(4)))
        h = TensorHamiltonian.general(PAIR_FLIP, dims=(2, 2))
        prev = random_vector(rng, 4)
        curr = random_vector(rng, 4)
        traj = evolve(CAPairState(prev, curr), model, steps=12)
        states = [
            as_exact_vector(prev, 4),
            as_exact_vector(curr, 4),
        ]
        for _ in range(12):
            states.append(sync_second_order(states[-2], states[-1], h))
        for k, vec in enumerate(states):
            assert vec == as_exact_vector(traj.states[k], 4)


class TestSyncFirstOrder:
    def test_pair_flip_periods(self):
        h = TensorHamiltonian.general(PAIR_FLIP, dims=(2, 2))
        run = sync_first_order([1, 0, 0, 0], h, steps=4)
        e00 = as_exact_vector([1, 0, 0, 0], 4)
        assert run.states[1] == (exact(0), exact(0), exact(0), exact(complex(0, -1)))
        assert run.states[2] == tuple(-c for c in e00)
        assert run.states[4] == e00
        rays = [schmidt_rank(s, (2, 2)) for s in run.states]
        assert rays == [1] * 5

    def test_identity_coupling_pure_phase(self):
        h = TensorHamiltonian.general(((1, 0), (0, 1)), dims=(2, 1))
        run = sync_first_order([1, 0], h, steps=3)
        assert run.states[1] == (exact(complex(0, -1)), exact(0))
        assert run.states[2] == (exact(-1), exact(0))

    def test_separable_coupling_generates_correlations(self):
        h = TensorHamiltonian.separable(SIGMA1, SIGMA1)
        run = sync_first_order([1, 0, 0, 0], h, steps=1)
        # -i (e10 + e01): two equal terms across the split
        assert run.states[1] == (
            exact(0),
            exact(complex(0, -1)),
            exact(complex(0, -1)),
            exact(0),
        )
        assert schmidt_rank(run.states[1], (2, 2)) == 2

    def test_permutation_coupling_preserves_norm(self):
        from ontoca.ising import GraphTopology, model_b_transfer

        topo = GraphTopology.fully_connected(2)
        transfer = model_b_transfer(topo).to_dense()
        # i * transfer is the self-adjoint generator; entries are exact 0/1
        h_matrix = [[int(round((1j * z).real)) for z in row] for row in transfer]
        h = TensorHamiltonian.general(h_matrix, dims=(2, 2, 2))
        state = [1, 2, 0, 0, 3, 0, 0, -1]
        run = sync_first_order(state, h, steps=9)
        n0 = norm_sq_exact(run.states[0])
        assert all(norm_sq_exact(s) == n0 for s in run.states)

    def test_direction_metadata(self):
        h = TensorHamiltonian.general(((0, 1), (1, 0)), dims=(2, 1))
        run = sync_first_order([1, 0], h, steps=2, direction=-1)
        assert isinstance(run, FirstOrderRun)
        assert run.direction == -1


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
