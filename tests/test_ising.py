"""Phased-permutation spin models: driven pair flips and edge-gated transfer."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ontoca.errors import (
    DimensionMismatch,
    DimensionOverflow,
    EdgeNotInTopology,
    NotPermutation,
    ScheduleExhausted,
)
from ontoca import ising
from ontoca.ising import (
    GraphTopology,
    PhasedPermutation,
    Schedule,
    commutator_report,
    cyclic_pattern_rule,
    edge_pattern_masks,
    edge_update_compose,
    exponential_identity_holds,
    frozen_pattern_rule,
    generator_pair_counts,
    gauge_check,
    global_vertex_flip,
    lift_pattern_rule,
    model_a_composition_holds,
    model_a_evolve,
    model_a_step_operator,
    model_b_evolve,
    model_b_factor,
    model_b_transfer,
    projector_identity_check,
    seeded_pattern_rule,
    verify_exponential_form,
    vertex_sign_flip,
)


# =============================================================================
# Topologies and basis indices
# =============================================================================


class TestTopology:
    def test_presets(self):
        assert GraphTopology.fully_connected(4).n_edges == 6
        assert GraphTopology.ring(3).edges == ((0, 1), (0, 2), (1, 2))
        assert GraphTopology.ring(2).edges == ((0, 1),)
        assert GraphTopology.path(5).n_edges == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphTopology(2, ((0, 0),))
        with pytest.raises(ValueError):
            GraphTopology(2, ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            GraphTopology(2, ((0, 5),))
        with pytest.raises(ValueError):
            GraphTopology(1, ())

    def test_edge_lookup(self):
        topo = GraphTopology.path(3)
        assert topo.edge_number((1, 0)) == 0
        with pytest.raises(EdgeNotInTopology):
            topo.edge_number((0, 2))

    @pytest.mark.parametrize("bad", [1.7, Fraction(3, 2), "1"])
    def test_non_integer_labels_raise_instead_of_truncating(self, bad):
        with pytest.raises(TypeError):
            GraphTopology(3, ((0, bad),))
        with pytest.raises(TypeError):
            GraphTopology(bad, ())
        with pytest.raises(TypeError):
            Schedule.periodic([(0, bad, 1)])
        with pytest.raises(TypeError):
            Schedule.explicit([(0, 1, bad)])
        with pytest.raises(TypeError):
            Schedule.seeded_random(bad, [(0, 1)])
        with pytest.raises(TypeError):
            Schedule.seeded_random(3, [(0, bad)])

    @pytest.mark.parametrize("fields", [
        dict(kind="periodic", steps=((0, 1, True), (0, 1.0, 1))),
        dict(kind="explicit", steps=((0, 1, 1), (0, 1.0, 1))),
        dict(kind="explicit", steps=((0, 1, 1.0),)),
        dict(kind="seeded_random", seed=3.0, pool=((0, 1),)),
        dict(kind="seeded_random", seed=True, pool=((0, 1),)),
        dict(kind="seeded_random", seed=3, pool=((0, 1), (1, 2.0))),
    ])
    def test_constructor_applies_the_int_rule(self, fields):
        # a bad entry past the first step used to pass here and fail only
        # when model_a_evolve reached it
        with pytest.raises(TypeError):
            Schedule(**fields)

    def test_constructor_normalizes_like_the_classmethods(self):
        assert Schedule(kind="periodic", steps=[[1, 0], (2, 1, -1)]) == Schedule.periodic(
            [(0, 1), (1, 2, -1)])
        assert Schedule(kind="seeded_random", seed=7, pool=[[2, 1]]).pool == ((1, 2),)


class TestStartIndex:
    @pytest.mark.parametrize("bad", [True, False, 1.0, Fraction(1), "1", np.int64(1)])
    def test_non_int_start_raises(self, bad):
        topo = GraphTopology.path(3)
        with pytest.raises(TypeError):
            model_a_evolve(topo, bad, Schedule.periodic([(0, 1)]), 1)
        with pytest.raises(TypeError):
            model_b_evolve(topo, bad, frozen_pattern_rule(topo), 1)

    def test_out_of_range_start_raises(self):
        topo = GraphTopology.path(3)  # 3 vertex bits, 2 edge bits
        schedule = Schedule.periodic([(0, 1)])
        for start in (-1, 1 << 3):
            with pytest.raises(ValueError):
                model_a_evolve(topo, start, schedule, 1)
        assert model_a_evolve(topo, 7, schedule, 1) == [(7, 0), (4, 3)]
        for start in (-1, 1 << 5):
            with pytest.raises(ValueError):
                model_b_evolve(topo, start, frozen_pattern_rule(topo), 1)
        assert model_b_evolve(topo, 31, frozen_pattern_rule(topo), 0) == [(31, 0)]


# Exponents of 40 and more only: an unchecked 2**k table of that size fails at
# once with MemoryError, where one of 25 to 39 bits could take gigabytes.
WIDE_VERTICES = GraphTopology(40, ((0, 1),))  # V = 40, V + E = 41
WIDE_EDGES = GraphTopology.fully_connected(10)  # E = 45, V + E = 55
ONE_EDGE_RULE = PhasedPermutation.identity(2)  # the 2**E patterns of WIDE_VERTICES
OVERSIZE_TABLES = {
    # 2**V
    "model_a_step_operator": lambda: model_a_step_operator(WIDE_VERTICES, (0, 1)),
    "model_a_composition_holds": lambda: model_a_composition_holds(
        WIDE_VERTICES, Schedule.periodic([(0, 1)]), [(0, 0), (3, 3)]),
    "generator_pair_counts": lambda: generator_pair_counts(WIDE_VERTICES, np.array([0, 1])),
    # 2**E
    "edge_pattern_masks": lambda: edge_pattern_masks(WIDE_EDGES),
    "frozen_pattern_rule": lambda: frozen_pattern_rule(WIDE_EDGES),
    "cyclic_pattern_rule": lambda: cyclic_pattern_rule(WIDE_EDGES),
    "seeded_pattern_rule": lambda: seeded_pattern_rule(WIDE_EDGES, 7),
    # 2**(V + E)
    "model_b_transfer": lambda: model_b_transfer(WIDE_EDGES),
    "model_b_factor": lambda: model_b_factor(WIDE_EDGES, 0),
    "exponential_identity_holds": lambda: exponential_identity_holds(WIDE_EDGES),
    "global_vertex_flip": lambda: global_vertex_flip(WIDE_VERTICES),
    "vertex_sign_flip": lambda: vertex_sign_flip(WIDE_VERTICES, 0),
    "lift_pattern_rule": lambda: lift_pattern_rule(WIDE_VERTICES, ONE_EDGE_RULE),
    "verify_exponential_form": lambda: verify_exponential_form(WIDE_EDGES),
}


class TestTableSizeRule:
    """Every 2**k table builder refuses k past DEFAULT_MAX_BITS up front."""

    @pytest.mark.parametrize("builder", OVERSIZE_TABLES)
    def test_oversize_table_is_refused_before_it_is_built(self, builder, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        for name in ("arange", "zeros", "zeros_like", "full", "full_like", "empty"):
            monkeypatch.setattr(np, name, no_table)
        monkeypatch.setattr(ising, "range", no_table, raising=False)
        with pytest.raises(DimensionOverflow, match="exceed the 24-bit limit$"):
            OVERSIZE_TABLES[builder]()

    @pytest.mark.parametrize("part, topology, message", [
        ("vertices", WIDE_VERTICES, "40 vertices"),
        ("edges", WIDE_EDGES, "45 edges"),
        ("vertex + edge bits", WIDE_EDGES, "55 vertex + edge bits"),
    ])
    def test_the_refusal_names_the_counted_bits(self, part, topology, message):
        with pytest.raises(DimensionOverflow) as refused:
            ising._table_bits(topology, part)
        assert str(refused.value) == f"{message} exceed the 24-bit limit"

    def test_the_limit_itself_is_accepted(self):
        assert ising._table_bits(GraphTopology(24, ())) == 24
        assert ising._table_bits(GraphTopology(23, ((0, 1),)), "edges") == 1


# =============================================================================
# Phased permutations
# =============================================================================


class TestPhasedPermutation:
    @pytest.mark.parametrize("target", [(0, 0), (0, 5), (-1, 0), (2, 0, 2), (1, 1, 0),
                                        (0, 1, 2**64), (0, -2**70)])
    def test_rejects_non_bijection(self, target):
        # out of range, negative (a bare scatter would wrap -1 to the last
        # slot and accept (-1, 0)) and repeated targets
        with pytest.raises(NotPermutation):
            PhasedPermutation(target, [0] * len(target))

    def test_accepts_size_zero(self):
        for empty in ((), [], np.array([], dtype=np.intp), np.array([])):
            perm = PhasedPermutation(empty, empty)
            assert perm.size == 0 and perm == PhasedPermutation.identity(0)
            assert perm.target.dtype == np.intp and perm.phase_exponent.dtype == np.uint8

    @pytest.mark.parametrize("field, bad", [
        ("target", [0.0, 1.7]),
        ("target", np.array([0.0, 1.0])),
        ("target", [False, True]),
        ("target", np.array([1, 0], dtype=object) * 1.0),
        ("target", ["0", "1"]),
        ("phase_exponent", [1.5, 2.9]),
        ("phase_exponent", [True, False]),
        ("phase_exponent", [1 + 0j, 0]),
        ("phase_exponent", np.array([Fraction(1), 2], dtype=object)),
        ("phase_exponent", np.array([2**70, True], dtype=object)),
    ])
    def test_rejects_non_integer_input(self, field, bad):
        # these used to become target [0, 1] and phases [1, 2] silently
        fields = {"target": [0, 1], "phase_exponent": [0, 0], field: bad}
        with pytest.raises(TypeError, match=field):
            PhasedPermutation(**fields)

    @given(st.integers(0, 12).flatmap(
        lambda n: st.lists(st.integers(-3, n + 3), min_size=n, max_size=n)))
    def test_bijection_check_matches_the_sorted_definition(self, target):
        is_bijection = sorted(target) == list(range(len(target)))
        try:
            perm = PhasedPermutation(target, [0] * len(target))
        except NotPermutation:
            assert not is_bijection
        else:
            assert is_bijection and perm.target.tolist() == target

    def test_compose_and_inverse(self):
        rng = random.Random(4)
        size = 16
        targets = list(range(size))
        rng.shuffle(targets)
        a = PhasedPermutation(tuple(targets), tuple(rng.randrange(4) for _ in range(size)))
        ident = PhasedPermutation.identity(size)
        assert a.compose_after(a.inverse()) == ident
        assert a.inverse().compose_after(a) == ident
        assert a.is_unitary()

    def test_dense_matrix_has_unit_entries(self):
        perm = PhasedPermutation((1, 2, 0), (3, 0, 1))
        m = perm.to_dense()
        assert np.allclose(np.abs(m[m != 0]), 1.0)
        assert m[1, 0] == -1j
        assert np.allclose(m.conj().T @ m, np.eye(3))


@st.composite
def raw_phased_pairs(draw, phases=st.integers(-8, 8)):
    """Target and phase-exponent lists of two random phased permutations of
    one size between 1 and 64, the exponents drawn from `phases`."""
    size = draw(st.integers(1, 64))

    def one():
        return (draw(st.permutations(range(size))),
                draw(st.lists(phases, min_size=size, max_size=size)))

    return one(), one()


def phased_pairs(phases=st.integers(-8, 8)):
    """Two random phased permutations of one size between 1 and 64."""
    return raw_phased_pairs(phases).map(
        lambda raw: tuple(PhasedPermutation(*fields) for fields in raw))


# Phase exponents across the int64 range and past it (a numpy object array)
WIDE_PHASES = st.one_of(st.integers(-8, 8), st.integers(-2**63, 2**63 - 1),
                        st.integers(-2**200, 2**200))
INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


class TestPhaseMask:
    """Phases are reduced by & 3; every result must equal Python's % 4 of the
    unreduced exponents."""

    @given(st.sampled_from(INT_DTYPES), st.data())
    def test_every_integer_dtype_reduces_like_python(self, dtype, data):
        info = np.iinfo(dtype)
        phases = data.draw(st.lists(st.integers(int(info.min), int(info.max)),
                                    min_size=1, max_size=32))
        perm = PhasedPermutation(range(len(phases)), np.array(phases, dtype=dtype))
        assert perm.phase_exponent.tolist() == [k % 4 for k in phases]

    @given(raw_phased_pairs(WIDE_PHASES))
    def test_operations_reduce_like_python(self, raw):
        (ta, pa), (tb, pb) = raw
        a, b = PhasedPermutation(ta, pa), PhasedPermutation(tb, pb)
        size = len(ta)
        assert a.phase_exponent.tolist() == [p % 4 for p in pa]
        assert a.phase_exponent.dtype == np.uint8
        ab = a.compose_after(b)
        assert ab.target.tolist() == [ta[t] for t in tb]
        assert ab.phase_exponent.tolist() == [(pb[x] + pa[tb[x]]) % 4 for x in range(size)]
        inv_target, inv_phase = [0] * size, [0] * size
        for x, t in enumerate(ta):
            inv_target[t], inv_phase[t] = x, -pa[x]
        inv = a.inverse()
        assert inv.target.tolist() == inv_target
        assert inv.phase_exponent.tolist() == [p % 4 for p in inv_phase]


class TestArrayKernelAgainstDense:
    """The index/phase array operations against dense complex matrices."""

    @given(phased_pairs())
    def test_compose_is_matrix_product(self, pair):
        a, b = pair
        assert np.array_equal(a.compose_after(b).to_dense(), a.to_dense() @ b.to_dense())

    @given(phased_pairs())
    def test_inverse_is_conjugate_transpose(self, pair):
        a, _ = pair
        assert np.array_equal(a.inverse().to_dense(), a.to_dense().conj().T)

    @given(phased_pairs())
    def test_commutator_worst_is_dense_maximum(self, pair):
        a, b = pair
        da, db = a.to_dense(), b.to_dense()
        dense_worst = np.abs(da @ db - db @ da).max()
        commutes, worst = commutator_report(a, b)
        assert worst == dense_worst
        assert commutes == (dense_worst == 0.0)

    def test_arrays_are_read_only(self):
        perm = PhasedPermutation((1, 2, 0), (3, 0, 1))
        with pytest.raises(ValueError):
            perm.target[0] = 0
        with pytest.raises(ValueError):
            perm.phase_exponent[0] = 0


class TestUncheckedResults:
    """compose_after, inverse and identity skip the bijection check;
    their results must pass it anyway."""

    @staticmethod
    def check(perm):
        rebuilt = PhasedPermutation(perm.target, perm.phase_exponent)
        assert rebuilt == perm
        assert perm.target.dtype == np.intp and perm.phase_exponent.dtype == np.uint8
        assert perm.phase_exponent.max(initial=0) < 4
        assert not perm.target.flags.writeable and not perm.phase_exponent.flags.writeable

    @given(phased_pairs())
    def test_results_pass_the_public_constructor(self, pair):
        a, b = pair
        self.check(a.compose_after(b))
        self.check(a.inverse())
        self.check(PhasedPermutation.identity(a.size))

    def test_results_do_not_share_the_operands_arrays(self):
        a = PhasedPermutation((1, 2, 0), (3, 0, 1))
        for result in (a.compose_after(PhasedPermutation.identity(3)), a.inverse()):
            assert not np.shares_memory(result.target, a.target)
            assert not np.shares_memory(result.phase_exponent, a.phase_exponent)


# =============================================================================
# Externally driven pair flips
# =============================================================================


class TestDrivenModel:
    def test_single_step_dense_action(self):
        topo = GraphTopology.fully_connected(2)
        op = model_a_step_operator(topo, (0, 1), sign=1)
        m = op.to_dense()
        # |00> (index 0) -> -i |11> (index 3); |01> -> -i |10>
        assert m[3, 0] == -1j
        assert m[1, 2] == -1j
        assert np.count_nonzero(m) == 4

    def test_double_step_is_global_minus_one(self):
        topo = GraphTopology.fully_connected(2)
        op = model_a_step_operator(topo, (0, 1))
        twice = op.compose_after(op)
        assert np.array_equal(twice.target, PhasedPermutation.identity(4).target)
        assert set(twice.phase_exponent) == {2}

    def test_sign_flips_phase_only(self):
        topo = GraphTopology.fully_connected(2)
        plus = model_a_step_operator(topo, (0, 1), sign=1)
        minus = model_a_step_operator(topo, (0, 1), sign=-1)
        assert np.array_equal(plus.target, minus.target)
        assert set(plus.phase_exponent) == {3}
        assert set(minus.phase_exponent) == {1}

    @pytest.mark.parametrize("topo", [GraphTopology.path(3), GraphTopology.ring(5),
                                      GraphTopology.fully_connected(4)])
    def test_step_table_matches_validated_constructor(self, topo):
        """The table is built without the bijection check; the public
        constructor accepts it and builds the same map."""
        x = np.arange(1 << topo.n_vertices)
        for i, j in topo.edges:
            for sign in (1, -1):
                op = model_a_step_operator(topo, (j, i), sign)
                TestUncheckedResults.check(op)
                validated = PhasedPermutation(x ^ ((1 << i) | (1 << j)),
                                              np.full(x.size, 3 if sign == 1 else 1))
                assert op == validated

    def test_edge_must_exist(self):
        topo = GraphTopology.path(3)
        with pytest.raises(EdgeNotInTopology):
            model_a_step_operator(topo, (0, 2))
        with pytest.raises(EdgeNotInTopology):
            model_a_step_operator(topo, (1, 5))

    def test_coefficient_magnitude_restricted(self):
        topo = GraphTopology.fully_connected(2)
        for sign in (2, 0, -2):
            with pytest.raises(ValueError):
                model_a_step_operator(topo, (0, 1), sign=sign)

    def test_path_trajectory(self):
        topo = GraphTopology.path(3)
        schedule = Schedule.periodic([(0, 1), (1, 2)])
        run = model_a_evolve(topo, 0, schedule, 4)
        # vertex bits 000, 110, 101, 011, 000 with vertex k as bit k
        assert [index for index, _ in run] == [0b000, 0b011, 0b101, 0b110, 0b000]
        phases = [ph for _, ph in run]
        assert phases == [0, 3, 2, 1, 0]  # one extra -i per step

    def test_trajectory_matches_composed_operator(self):
        rng = random.Random(6)
        topo = GraphTopology.fully_connected(3)
        pool = topo.edges
        schedule = Schedule.seeded_random(99, pool)
        start = 0b010
        steps = 25
        run = model_a_evolve(topo, start, schedule, steps)
        composed = PhasedPermutation.identity(8)
        for n in range(steps):
            edge, sign = schedule.active(n)
            composed = model_a_step_operator(topo, edge, sign).compose_after(composed)
        assert composed.apply(start) == run[-1]

    @pytest.mark.parametrize("steps", [1, 2, 25])
    def test_composition_check_accepts_the_run_only(self, steps):
        topo = GraphTopology.fully_connected(3)
        schedule = Schedule.seeded_random(99, topo.edges)
        start = 0b010
        assert model_a_composition_holds(topo, schedule, model_a_evolve(topo, start, schedule, 0))
        run = model_a_evolve(topo, start, schedule, steps)
        assert model_a_composition_holds(topo, schedule, run)
        last, phase = run[-1]
        assert not model_a_composition_holds(topo, schedule, run[:-1] + [(last, (phase + 1) % 4)])
        assert not model_a_composition_holds(topo, schedule, run[:-1] + [(last ^ 1, phase)])

    def test_outputs_are_always_single_basis_states(self):
        topo = GraphTopology.ring(4)
        schedule = Schedule.seeded_random(3, topo.edges)
        run = model_a_evolve(topo, 0b1010, schedule, 50)
        for index, phase in run:
            assert type(index) is int and 0 <= index < 1 << 4
            assert type(phase) is int and phase in (0, 1, 2, 3)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            Schedule.periodic([])

    def test_explicit_schedule_exhausts(self):
        topo = GraphTopology.fully_connected(2)
        schedule = Schedule.explicit([(0, 1, 1)])
        with pytest.raises(ScheduleExhausted):
            model_a_evolve(topo, 0, schedule, 2)

    def test_bad_coefficient_rejected_at_validation(self):
        with pytest.raises(ValueError):
            Schedule.explicit([(0, 1, 2)])


# =============================================================================
# Edge-gated transfer
# =============================================================================


class TestTransferModel:
    def test_single_edge_action(self):
        topo = GraphTopology.fully_connected(2)
        transfer = model_b_transfer(topo)
        up = 0b100  # vertex bits 00, edge bit 1
        assert transfer.apply(up) == (0b111, 3)  # both vertices flipped, edge kept
        down = 0b000
        assert transfer.apply(down) == (down, 3)

    def test_dense_matrix_is_phased_permutation(self):
        topo = GraphTopology.fully_connected(3)
        m = model_b_transfer(topo).to_dense()
        assert m.shape == (64, 64)
        for axis in (0, 1):
            counts = np.count_nonzero(m, axis=axis)
            assert np.all(counts == 1)
        assert np.allclose(np.abs(m[m != 0]), 1.0)

    def test_zero_edges_subspace_is_identity(self):
        topo = GraphTopology.ring(3)
        transfer = model_b_transfer(topo)
        for v in range(8):  # vertex patterns with all edge bits 0
            assert transfer.apply(v) == (v, 3)

    def test_unitarity_exact(self):
        for topo in (GraphTopology.fully_connected(2), GraphTopology.ring(4)):
            assert model_b_transfer(topo).is_unitary()

    def test_factor_order_irrelevant(self):
        topo = GraphTopology.ring(4)
        size = 1 << topo.total_bits
        for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
            acc = PhasedPermutation(tuple(range(size)), (3,) * size)
            for e in order:
                acc = model_b_factor(topo, e).compose_after(acc)
            assert acc == model_b_transfer(topo)

    def test_dimension_overflow(self):
        with pytest.raises(DimensionOverflow, match="the 24-bit limit"):
            model_b_transfer(GraphTopology.fully_connected(7))  # 7 + 21 = 28 bits


class TestExponentialForm:
    def test_small_topologies(self):
        for topo in (
            GraphTopology.fully_connected(2),
            GraphTopology.ring(3),
            GraphTopology.path(4),
        ):
            assert verify_exponential_form(topo) <= 1e-9

    def test_no_edges_matches_up_to_phase(self):
        topo = GraphTopology(2, ())
        assert verify_exponential_form(topo) <= 1e-9

    def test_overflow_guard(self):
        with pytest.raises(DimensionOverflow, match="the 24-bit limit"):
            verify_exponential_form(GraphTopology.fully_connected(7))  # 7 + 21 = 28 bits

    def test_accepts_past_the_cli_gate(self):
        topo = GraphTopology.fully_connected(5)  # 5 + 10 = 15 bits
        assert topo.total_bits > ising.EXPONENTIAL_FORM_MAX_BITS
        assert verify_exponential_form(topo) == 0.0


@st.composite
def small_graphs(draw, max_bits=8):
    """Random graphs of at most `max_bits` vertex + edge bits."""
    n = draw(st.integers(2, max_bits))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_bits - n))
    return GraphTopology(n, tuple(edges))


NAMED_GRAPHS = [
    GraphTopology(2, ()),
    GraphTopology.ring(3),
    GraphTopology.ring(4),
    GraphTopology.path(4),
    GraphTopology.path(5),
    GraphTopology.fully_connected(3),
    GraphTopology.fully_connected(4),
]


def dense_generator(topo):
    """The sum of the gated pair flips as one dense 2**bits matrix (test oracle)."""
    size = 1 << topo.total_bits
    x = np.arange(size)
    g = np.zeros((size, size))
    for e in range(topo.n_edges):
        g[model_b_factor(topo, e).target, x] += 1.0
    return g


def dense_deviation(topo):
    """The exponential-form deviation by one dense eigh (test oracle)."""
    exact = model_b_transfer(topo).to_dense()
    evals, vecs = np.linalg.eigh(dense_generator(topo))
    u = (vecs * np.exp(-0.5j * np.pi * evals)) @ vecs.conj().T
    overlap = np.trace(exact.conj().T @ u)
    return np.abs(u - overlap / abs(overlap) * exact).max()


class TestBlockedExponentialForm:
    """The edge-pattern blocks against the dense generator and a dense eigh."""

    @staticmethod
    def check_blocks(topo):
        g = dense_generator(topo)
        width = 1 << topo.n_vertices
        counts = generator_pair_counts(topo, np.arange(1 << topo.n_edges))
        assert counts.shape == (1 << topo.n_edges, width)
        v = np.arange(width)
        on_block = np.zeros_like(g, dtype=bool)
        for p, row in enumerate(counts):
            window = slice(p * width, (p + 1) * width)
            assert np.array_equal(row[v[:, None] ^ v], g[window, window])
            on_block[window, window] = True
        assert not g[~on_block].any()

    @staticmethod
    def check_deviation(topo):
        blocked = verify_exponential_form(topo)
        assert blocked <= 1e-9
        assert abs(blocked - dense_deviation(topo)) <= 1e-12

    # the oracles build dense 2**bits matrices (and an eigh), so no per-example deadline
    @given(small_graphs())
    @settings(deadline=None)
    def test_counts_give_the_dense_diagonal_blocks(self, topo):
        self.check_blocks(topo)

    @given(small_graphs())
    @settings(deadline=None)
    def test_deviation_matches_dense_eigh(self, topo):
        self.check_deviation(topo)

    @pytest.mark.parametrize("topo", NAMED_GRAPHS, ids=str)
    def test_named_graphs(self, topo):
        self.check_blocks(topo)
        self.check_deviation(topo)

    @pytest.mark.parametrize("topo", NAMED_GRAPHS, ids=str)
    def test_corrupted_transfer_deviates_by_one(self, topo, monkeypatch):
        masks = edge_pattern_masks(topo)
        masks[0] ^= 1  # the all-down edge block now flips vertex 0
        monkeypatch.setattr(ising, "edge_pattern_masks", lambda t: masks)
        assert abs(verify_exponential_form(topo) - 1.0) <= 1e-9

    @pytest.mark.parametrize("topo", NAMED_GRAPHS, ids=str)
    def test_builds_no_transfer_table(self, topo, monkeypatch):
        expected = verify_exponential_form(topo)
        monkeypatch.setattr(ising, "model_b_transfer", None)
        assert verify_exponential_form(topo) == expected


def characters(n_vertices):
    """W[s][v] = (-1)**popcount(s & v), written out (test oracle)."""
    size = 1 << n_vertices
    return np.array([[(-1) ** bin(s & v).count("1") for v in range(size)] for s in range(size)])


class TestExactExponentialForm:
    """The butterfly route reads exactly 0 on a valid generator, and a raised
    pair count fails the 1e-9 gate."""

    @pytest.mark.parametrize("n", range(0, 7))
    def test_butterflies_are_the_character_matrix(self, n):
        rows = np.random.default_rng(n).integers(-50, 50, (3, 1 << n))
        transformed = ising._walsh_hadamard(rows.copy())
        assert np.array_equal(transformed, rows @ characters(n))
        assert np.array_equal(ising._walsh_hadamard(transformed), rows << n)

    @pytest.mark.parametrize("topo", NAMED_GRAPHS, ids=str)
    def test_named_graphs_read_exactly_zero(self, topo):
        assert verify_exponential_form(topo) == 0.0

    @given(small_graphs())
    def test_random_graphs_read_exactly_zero(self, topo):
        assert verify_exponential_form(topo) == 0.0

    @pytest.mark.parametrize("topo", [GraphTopology(10, ((0, 1), (3, 7))),
                                      GraphTopology(11, ((0, 1),)),
                                      GraphTopology.ring(10)], ids=str)
    def test_twelve_and_twenty_bits_read_exactly_zero(self, topo):
        assert verify_exponential_form(topo) == 0.0

    @pytest.mark.parametrize("block", [1, 4, 1 << 10])
    def test_block_size_changes_nothing(self, block, monkeypatch):
        monkeypatch.setattr(ising, "EXPONENTIAL_FORM_BLOCK", block)
        for topo in NAMED_GRAPHS:
            assert verify_exponential_form(topo) == 0.0
        assert self.raised(GraphTopology.ring(4), monkeypatch, 5, 0) == pytest.approx(
            self.one_block_off(16))

    def test_memory_stays_per_block(self):
        topo = GraphTopology.ring(10)  # 20 bits
        tracemalloc.start()
        try:
            assert verify_exponential_form(topo) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one int64 table of all 2**20 entries would take 8 MiB
        assert peak < 8 << 20 >> 1

    @staticmethod
    def one_block_off(n_patterns):
        """The deviation when one of `n_patterns` blocks is off by a factor -i:
        the fitted phase is that of (n_patterns - 1) - i, and the worst entry
        is the off block's."""
        return abs(-1 + (1 + 1j * (n_patterns - 1)) / abs(n_patterns - 1 - 1j))

    @staticmethod
    def raised(topo, monkeypatch, pattern, mask):
        """The deviation with pair count c_pattern[mask] raised by 1."""
        real_counts = generator_pair_counts

        def counts(t, patterns):
            out = real_counts(t, patterns)
            out[patterns == pattern, mask] += 1
            return out

        monkeypatch.setattr(ising, "generator_pair_counts", counts)
        return verify_exponential_form(topo)

    RAISED_GRAPHS = [GraphTopology.ring(4), GraphTopology.path(4),
                     GraphTopology.fully_connected(3), GraphTopology(10, ((0, 1), (3, 7)))]

    @pytest.mark.parametrize("topo", RAISED_GRAPHS, ids=str)
    @pytest.mark.parametrize("last", [False, True])
    def test_raised_down_edge_count_fails(self, topo, last, monkeypatch):
        # every lam of one block moves by 1: that block is off by a factor -i
        pattern = (1 << topo.n_edges) - 1 if last else 0
        deviation = self.raised(topo, monkeypatch, pattern, 0)
        assert deviation > 1.0
        assert deviation == pytest.approx(self.one_block_off(1 << topo.n_edges))

    def test_raised_down_edge_count_fails_at_twenty_bits(self, monkeypatch):
        assert self.raised(GraphTopology.ring(10), monkeypatch, 77, 0) > 1.0

    def test_raised_down_edge_count_of_one_edge(self, monkeypatch):
        # two blocks, one off by -i: the fitted phase splits the difference
        topo = GraphTopology.fully_connected(2)
        deviation = self.raised(topo, monkeypatch, 1, 0)
        assert deviation == pytest.approx(2 * np.sin(np.pi / 8)) == self.one_block_off(2)

    @pytest.mark.parametrize("topo", [t for t in NAMED_GRAPHS if t.n_edges], ids=str)
    def test_raised_mask_count_fails(self, topo, monkeypatch):
        # lam moves by the character of the mask: the block's -i moves to another entry
        for pattern in (0, (1 << topo.n_edges) - 1):
            for mask in (1, (1 << topo.n_vertices) - 1):
                assert self.raised(topo, monkeypatch, pattern, mask) == 1.0

    def test_no_edges_with_raised_down_edge_count_is_a_phase(self, monkeypatch):
        # one block only: a shifted spectrum is the overall phase the check fits
        assert self.raised(GraphTopology(3, ()), monkeypatch, 0, 0) == 0.0


class TestExponentialIdentity:
    @pytest.mark.parametrize("topo", NAMED_GRAPHS, ids=str)
    def test_holds_on_named_graphs(self, topo):
        assert exponential_identity_holds(topo)

    @given(small_graphs())
    def test_holds_on_random_graphs(self, topo):
        assert exponential_identity_holds(topo)

    @pytest.mark.parametrize(
        "mask, phase",
        [
            (0b001, 0),  # one vertex only: still an involution that commutes, wrong product
            (0b011 | 1 << 4, 0),  # also flips the next edge bit: no longer commutes
            (0b011, 1),  # right mask, phase i: squares to -1
        ],
    )
    def test_fails_on_an_altered_factor(self, mask, phase, monkeypatch):
        topo = GraphTopology.ring(3)  # edges (0,1), (0,2), (1,2); edge bits 3, 4, 5
        real_factor = model_b_factor

        def altered(t, e):
            if e != 0:
                return real_factor(t, e)
            x = np.arange(1 << t.total_bits)
            gate = (x >> t.n_vertices) & 1
            return PhasedPermutation(x ^ (gate * mask), np.full_like(x, phase))

        monkeypatch.setattr(ising, "model_b_factor", altered)
        assert not exponential_identity_holds(topo)


class TestProjectorIdentity:
    def test_small_orders(self):
        for k in (1, 2, 7):
            assert projector_identity_check(k)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            projector_identity_check(0)


class TestGauge:
    def test_global_vertex_flip_commutes(self):
        topo = GraphTopology.ring(3)
        commutes, worst = gauge_check(global_vertex_flip(topo), topo)
        assert commutes
        assert worst == 0.0

    def test_single_vertex_sign_does_not_commute(self):
        topo = GraphTopology.fully_connected(2)
        commutes, worst = gauge_check(vertex_sign_flip(topo, 0), topo)
        assert not commutes
        assert worst >= 1.0

    def test_identity_commutes(self):
        topo = GraphTopology.fully_connected(2)
        commutes, worst = gauge_check(PhasedPermutation.identity(8), topo)
        assert commutes and worst == 0.0

    def test_size_mismatch(self):
        topo = GraphTopology.fully_connected(2)
        with pytest.raises(DimensionMismatch):
            gauge_check(PhasedPermutation.identity(4), topo)


class TestEdgeRules:
    def test_identity_rule_returns_transfer(self):
        topo = GraphTopology.ring(3)
        transfer = model_b_transfer(topo)
        frozen = lift_pattern_rule(topo, frozen_pattern_rule(topo))
        assert edge_update_compose(transfer, frozen, topo) == transfer

    def test_cyclic_shift_keeps_phases(self):
        topo = GraphTopology.ring(3)
        transfer = model_b_transfer(topo)
        cyclic = lift_pattern_rule(topo, cyclic_pattern_rule(topo))
        combined = edge_update_compose(transfer, cyclic, topo)
        assert combined.is_unitary()
        assert set(combined.phase_exponent) == {3}

    def test_seeded_rule_is_reproducible(self):
        topo = GraphTopology.ring(3)
        assert seeded_pattern_rule(topo, 5) == seeded_pattern_rule(topo, 5)
        assert seeded_pattern_rule(topo, 5) != seeded_pattern_rule(topo, 6)

    def test_frozen_single_edge_period_four(self):
        topo = GraphTopology.fully_connected(2)
        frozen = lift_pattern_rule(topo, frozen_pattern_rule(topo))
        combined = edge_update_compose(model_b_transfer(topo), frozen, topo)
        for start_vertices in range(4):
            start = start_vertices | 0b100  # the one edge up
            index, phase = start, 0
            period = None
            for k in range(1, 9):
                index, ph = combined.apply(index)
                phase = (phase + ph) % 4
                if index == start and phase == 0:
                    period = k
                    break
            assert period == 4

    def test_vertex_moving_rule_rejected(self):
        topo = GraphTopology.fully_connected(2)
        transfer = model_b_transfer(topo)
        with pytest.raises(NotPermutation):
            edge_update_compose(transfer, global_vertex_flip(topo), topo)


def old_full_size_rule(topo, rule_name, seed):
    """The 2**bits edge rules as written before the edge-pattern rules (test oracle)."""
    n, n_edges = topo.n_vertices, topo.n_edges
    x = np.arange(1 << topo.total_bits)
    if rule_name == "frozen" or (rule_name == "cyclic" and n_edges < 2):
        return PhasedPermutation(x, np.zeros_like(x))
    pattern = x >> n
    if rule_name == "cyclic":
        shifted = ((pattern << 1) | (pattern >> (n_edges - 1))) & ((1 << n_edges) - 1)
    else:
        patterns = list(range(1 << n_edges))
        random.Random(seed).shuffle(patterns)
        shifted = np.array(patterns)[pattern]
    return PhasedPermutation((x & ((1 << n) - 1)) | (shifted << n), np.zeros_like(x))


def pattern_and_lifted(topo, rule_name, seed):
    if rule_name == "frozen":
        pattern = frozen_pattern_rule(topo)
    elif rule_name == "cyclic":
        pattern = cyclic_pattern_rule(topo)
    else:
        pattern = seeded_pattern_rule(topo, seed)
    return pattern, lift_pattern_rule(topo, pattern)


class TestEdgePatternRoute:
    """The bit-operation orbit and the 2**E rules against the 2**bits tables."""

    RULES = st.sampled_from(["frozen", "cyclic", "seeded"])

    @given(small_graphs(max_bits=16), st.sampled_from(["frozen", "cyclic", "seeded", "phased"]),
           st.integers(-2**40, 2**40), st.data())
    def test_orbit_matches_the_combined_table(self, topo, rule_name, seed, data):
        if rule_name == "phased":  # a random phased permutation of the edge patterns
            rng = np.random.default_rng(seed % 2**32)
            size = 1 << topo.n_edges
            pattern = PhasedPermutation(rng.permutation(size), rng.integers(0, 4, size))
            lifted = lift_pattern_rule(topo, pattern)
        else:
            pattern, lifted = pattern_and_lifted(topo, rule_name, seed)
        combined = edge_update_compose(model_b_transfer(topo), lifted, topo)
        start = data.draw(st.integers(0, combined.size - 1))
        steps = data.draw(st.integers(0, 40))
        orbit = model_b_evolve(topo, start, pattern, steps)
        assert len(orbit) == steps + 1
        index, phase = start, 0
        for entry in orbit:
            assert entry == (index, phase)
            assert all(type(x) is int for x in entry)
            index, step_phase = combined.apply(index)
            phase = (phase + step_phase) % 4

    @given(small_graphs(max_bits=16), RULES, st.integers(-2**40, 2**40))
    def test_lifted_rules_equal_the_full_size_formula(self, topo, rule_name, seed):
        pattern, lifted = pattern_and_lifted(topo, rule_name, seed)
        assert lifted == old_full_size_rule(topo, rule_name, seed)
        combined = edge_update_compose(model_b_transfer(topo), lifted, topo)
        assert pattern.is_unitary() == combined.is_unitary()

    @given(small_graphs(max_bits=12))
    def test_masks_are_the_transfer_map_translations(self, topo):
        transfer = model_b_transfer(topo)
        x = np.arange(transfer.size)
        masks = edge_pattern_masks(topo)
        assert masks.shape == (1 << topo.n_edges,)
        assert np.array_equal(transfer.target ^ x, masks[x >> topo.n_vertices])

    def test_orbit_builds_no_full_size_table(self, monkeypatch):
        topo = GraphTopology.ring(12)  # 24 bits; edges (0,1), (0,11), (1,2), (2,3), ...
        for name in ("model_b_transfer", "lift_pattern_rule"):
            monkeypatch.setattr(ising, name, None)
        orbit = model_b_evolve(topo, 1 | 1 << 12, cyclic_pattern_rule(topo), 3)
        # vertex k is bit k and edge e bit 12 + e: (vertex bits, edge bits) read
        # (100000000000, 100000000000), (010000000000, 010000000000),
        # (110000000001, 001000000000), (101000000001, 000100000000)
        assert orbit == [
            (0b000000000001 | 0b000000000001 << 12, 0),
            (0b000000000010 | 0b000000000010 << 12, 3),
            (0b100000000011 | 0b000000000100 << 12, 2),
            (0b100000000101 | 0b000000001000 << 12, 1),
        ]

    def test_orbit_rejects_mismatched_sizes(self):
        topo = GraphTopology.ring(3)
        with pytest.raises(DimensionMismatch):
            model_b_evolve(topo, 0, PhasedPermutation.identity(4), 1)
        with pytest.raises(ValueError):
            model_b_evolve(topo, 0, frozen_pattern_rule(topo), -1)
        with pytest.raises(DimensionMismatch):
            lift_pattern_rule(topo, PhasedPermutation.identity(4))


class TestCompositionSoundness:
    def test_repeated_composition_equals_iteration(self):
        topo = GraphTopology.ring(3)  # 6 bits, 64 states
        transfer = model_b_transfer(topo)
        composed = PhasedPermutation.identity(transfer.size)
        for k in range(1, 101):
            composed = transfer.compose_after(composed)
            if k in (1, 7, 50, 100):
                for x in range(transfer.size):
                    index, phase = x, 0
                    for _ in range(k):
                        index, ph = transfer.apply(index)
                        phase = (phase + ph) % 4
                    assert composed.apply(x) == (index, phase)

    def test_commutator_report_exact_zero(self):
        topo = GraphTopology.ring(3)
        transfer = model_b_transfer(topo)
        cube = PhasedPermutation.identity(transfer.size)
        for _ in range(3):
            cube = transfer.compose_after(cube)
        same, worst = commutator_report(transfer, cube)
        assert same and worst == 0.0
