"""Exact-arithmetic core: scalars, vectors, models, and the update rule.

The reference oracle here iterates the coordinate/momentum form

    x[n+1] = x[n-1] + S p[n] + A x[n]
    p[n+1] = p[n-1] - S x[n] + A p[n]

directly from the integer S and A matrices, independently of the library's
complex-form stepping, so agreement between the two is a real check.
"""

import dataclasses
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ontoca import gaussian, gup, ising, multitime, ontology, propagator
from ontoca.ising import GraphTopology, Schedule
from ontoca.propagator import DiscretenessScale
from ontoca.errors import DimensionMismatch, SymmetryViolation, ZeroVector
from ontoca.gaussian import (
    CAPairState,
    GaussianInt,
    GaussianIntVector,
    GaussianRational,
    HamiltonianModel,
    Trajectory,
    build_hamiltonian,
    evolve,
    format_exact_complex,
    from_xp,
    step,
    stream,
    to_xp,
    two_time_correlation,
    zero_model,
)

SIGMA1 = ((0, 1), (1, 0))
ZERO2 = ((0, 0), (0, 0))


def xp_iterate(s, a, x0, p0, x1, p1, steps):
    """Reference evolution in coordinate/momentum form, plain integer sums."""
    dim = len(s)
    states = [(list(x0), list(p0)), (list(x1), list(p1))]
    for _ in range(steps):
        (xp, pp), (xc, pc) = states[-2], states[-1]
        xn = [
            xp[al]
            + sum(s[al][b] * pc[b] for b in range(dim))
            + sum(a[al][b] * xc[b] for b in range(dim))
            for al in range(dim)
        ]
        pn = [
            pp[al]
            - sum(s[al][b] * xc[b] for b in range(dim))
            + sum(a[al][b] * pc[b] for b in range(dim))
            for al in range(dim)
        ]
        states.append((xn, pn))
    return states


def random_model_matrices(rng, dim, lo=-3, hi=3):
    s = [[0] * dim for _ in range(dim)]
    a = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r, dim):
            s[r][c] = s[c][r] = rng.randint(lo, hi)
            if c > r:
                v = rng.randint(lo, hi)
                a[r][c], a[c][r] = v, -v
    return s, a


def gvec(*pairs):
    return GaussianIntVector(GaussianInt(r, i) for r, i in pairs)


# =============================================================================
# Scalars
# =============================================================================


class TestGaussianInt:
    def test_arithmetic_closure(self):
        a = GaussianInt(3, -2)
        b = GaussianInt(-1, 5)
        assert a + b == GaussianInt(2, 3)
        assert a - b == GaussianInt(4, -7)
        # (3 - 2i)(-1 + 5i) = -3 + 15i + 2i + 10 = 7 + 17i
        assert a * b == GaussianInt(7, 17)

    def test_times_i_maps_re_im(self):
        assert GaussianInt(2, 7).times_i() == GaussianInt(-7, 2)
        assert GaussianInt(2, 7).times_minus_i() == GaussianInt(7, -2)

    def test_conjugate_and_norm(self):
        z = GaussianInt(3, 4)
        assert z.conjugate() == GaussianInt(3, -4)
        assert z.norm_sq() == 25

    def test_int_coercion(self):
        assert GaussianInt(2, 0) == 2
        assert 3 * GaussianInt(1, 1) == GaussianInt(3, 3)
        assert 1 - GaussianInt(0, 1) == GaussianInt(1, -1)

    def test_no_floats_allowed(self):
        with pytest.raises(TypeError):
            GaussianInt(1.5, 0)

    def test_big_integers_stay_exact(self):
        big = 10**40
        z = GaussianInt(big, -big) * GaussianInt(big, big)
        assert z == GaussianInt(2 * big * big, 0)

    @given(st.integers(), st.integers())
    def test_i_squared_is_minus_one(self, re, im):
        z = GaussianInt(re, im)
        assert z.times_i().times_i() == -z


# =============================================================================
# Vectors and conversions
# =============================================================================


class TestVectors:
    def test_to_xp_definition(self):
        x, p = to_xp(gvec((1, -1), (0, 0)))
        assert x == (1, 0)
        assert p == (-1, 0)

    def test_from_xp_round_trip(self):
        rng = random.Random(11)
        for _ in range(20):
            v = GaussianIntVector(
                GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(4)
            )
            assert from_xp(*to_xp(v)) == v

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gvec((1, 0)) + gvec((1, 0), (0, 0))

    def test_norm_sq(self):
        assert gvec((1, -1), (0, 0)).norm_sq() == 2

    @pytest.mark.parametrize("components", [
        [(1.5, 0), [2.7, True]],
        [(1, 0), [2.0, 1]],
        [(1, "2")],
        [[1, None]],
    ])
    def test_pair_components_must_be_ints(self, components):
        """A non-int pair component is refused, not truncated with int()."""
        with pytest.raises(TypeError):
            GaussianIntVector(components)

    def test_int_pairs_are_read_as_re_im(self):
        assert GaussianIntVector([(1, -2), [3, 0]]) == gvec((1, -2), (3, 0))


BAD_COMPONENTS = [True, False, 2.0, 1.5, 2 + 0j, 1.5 + 0j, "2"]
COMPONENT_POSITIONS = {
    "GaussianInt re": lambda bad: GaussianInt(bad, 0),
    "GaussianInt im": lambda bad: GaussianInt(0, bad),
    "operand +": lambda bad: GaussianInt(1, 1) + bad,
    "operand + (reflected)": lambda bad: bad + GaussianInt(1, 1),
    "operand -": lambda bad: GaussianInt(1, 1) - bad,
    "operand - (reflected)": lambda bad: bad - GaussianInt(1, 1),
    "operand *": lambda bad: GaussianInt(1, 1) * bad,
    "operand * (reflected)": lambda bad: bad * GaussianInt(1, 1),
    "vector scalar": lambda bad: GaussianIntVector([1, bad]),
    "vector pair re": lambda bad: GaussianIntVector([(1, 0), (bad, 0)]),
    "vector pair im": lambda bad: GaussianIntVector([(1, 0), [0, bad]]),
    "vector scaled": lambda bad: gvec((1, 1)).scaled(bad),
    "from_xp": lambda bad: from_xp([1, bad], [0, 0]),
}


class TestOneInputRule:
    """A Gaussian-integer component is an exact int; bool, float, complex and
    str are refused with TypeError wherever a component is read."""

    @pytest.mark.parametrize("bad", BAD_COMPONENTS, ids=repr)
    @pytest.mark.parametrize("position", COMPONENT_POSITIONS)
    def test_refused(self, position, bad):
        with pytest.raises(TypeError):
            COMPONENT_POSITIONS[position](bad)

    @pytest.mark.parametrize("bad", BAD_COMPONENTS, ids=repr)
    def test_never_equal(self, bad):
        assert GaussianInt(1, 0) != bad
        assert GaussianInt(2, 0) != bad

    def test_ints_still_read(self):
        assert GaussianIntVector([2, (1, -1), [0, 3], GaussianInt(4, 5)]) == gvec(
            (2, 0), (1, -1), (0, 3), (4, 5)
        )
        assert GaussianInt(1, 1) * 2 == 2 * GaussianInt(1, 1) == GaussianInt(2, 2)


PAIR_FLIP = multitime.TensorHamiltonian.general(
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], (2, 2)
)
BAD_RATIONAL_COMPONENTS = [True, 0.5, 0.25 + 0j, "1/3"]
RATIONAL_POSITIONS = {
    "GaussianRational re": lambda bad: GaussianRational(bad, 0),
    "GaussianRational im": lambda bad: GaussianRational(0, bad),
    "operand +": lambda bad: GaussianRational(1, 1) + bad,
    "operand + (reflected)": lambda bad: bad + GaussianRational(1, 1),
    "operand -": lambda bad: GaussianRational(1, 1) - bad,
    "operand - (reflected)": lambda bad: bad - GaussianRational(1, 1),
    "operand *": lambda bad: GaussianRational(1, 1) * bad,
    "operand * (reflected)": lambda bad: bad * GaussianRational(1, 1),
    "operand /": lambda bad: GaussianRational(1, 1) / bad,
    "operand / (reflected)": lambda bad: bad / GaussianRational(1, 1),
    "_coerce": lambda bad: GaussianRational._coerce(bad),
    "multitime._pair": lambda bad: multitime._pair(bad),
    "TensorHamiltonian.apply": lambda bad: PAIR_FLIP.apply([bad, 0, 0, 0]),
    "MultiTimeField values": lambda bad: multitime.MultiTimeField((2, 1), {(0, 0): [1, bad]}),
    "synchronized_states prev":
        lambda bad: multitime.synchronized_states(([bad, 0, 0, 0], [0, 0, 0, 1]), PAIR_FLIP, 1),
    "synchronized_states curr":
        lambda bad: multitime.synchronized_states(([1, 0, 0, 0], [0, 0, bad, 0]), PAIR_FLIP, 1),
    "sync_first_order": lambda bad: multitime.sync_first_order([0, bad, 0, 0], PAIR_FLIP, 1),
    "norm_sq_exact": lambda bad: multitime.norm_sq_exact([1, bad]),
    "schmidt_rank": lambda bad: multitime.schmidt_rank([1, 0, 0, bad], (2, 2)),
    "leibniz_identity_check phi1":
        lambda bad: multitime.leibniz_identity_check([1, bad, 2], [1, 2, 3]),
    "leibniz_identity_check phi2":
        lambda bad: multitime.leibniz_identity_check([1, 2, 3], [1, 2, bad]),
}


class TestOneRationalInputRule:
    """A Gaussian-rational component is an exact int or Fraction, and a rational
    scalar input is one of those or a GaussianInt or GaussianRational; bool,
    float, complex and str are refused with TypeError in every position."""

    @pytest.mark.parametrize("bad", BAD_RATIONAL_COMPONENTS, ids=repr)
    @pytest.mark.parametrize("position", RATIONAL_POSITIONS)
    def test_refused(self, position, bad):
        with pytest.raises(TypeError):
            RATIONAL_POSITIONS[position](bad)

    @pytest.mark.parametrize("bad", BAD_RATIONAL_COMPONENTS, ids=repr)
    def test_never_equal(self, bad):
        assert GaussianRational(1, 0) != bad
        assert GaussianRational(Fraction(1, 4), 0) != bad

    @pytest.mark.parametrize("good", [3, Fraction(3), GaussianInt(3, 0), GaussianRational(3)],
                             ids=repr)
    def test_exact_inputs_read(self, good):
        value = GaussianRational._coerce(good)
        assert type(value) is GaussianRational and value == 3
        assert type(value.re) is Fraction and type(value.im) is Fraction
        assert multitime.norm_sq_exact([good, 1]) == 10
        assert GaussianRational(1, 1) + good == good + GaussianRational(1, 1) == GaussianRational(4, 1)


# Constructor positions that read an integer; each lambda puts `one`, a
# stand-in for the int 1, where a 1 would be read.
BAD_ONES = [True, 1.0, "1", np.int64(1)]
INT_POSITIONS = {
    "build_hamiltonian S": lambda one: build_hamiltonian([[one, 1], [1, 0]], ZERO2),
    "build_hamiltonian A": lambda one: build_hamiltonian(ZERO2, [[0, one], [-1, 0]]),
    "GraphTopology n_vertices": lambda one: GraphTopology(one, ()),
    "GraphTopology edge": lambda one: GraphTopology(3, ((0, one), (one, 2))),
    "Schedule edge": lambda one: Schedule.periodic([(0, one)]),
    "Schedule sign": lambda one: Schedule.periodic([(0, 1, one)]),
    "Schedule.seeded_random seed": lambda one: Schedule.seeded_random(one, [(0, 1)]),
    "Schedule.seeded_random pool": lambda one: Schedule.seeded_random(3, [(0, one)]),
    "TensorHamiltonian.general dims":
        lambda one: multitime.TensorHamiltonian.general(PAIR_FLIP.model, (one, 4)),
    "MultiTimeField point n1": lambda one: multitime.MultiTimeField((1, 1), {(one, 0): [1]}),
    "MultiTimeField point n2": lambda one: multitime.MultiTimeField((1, 1), {(0, one): [1]}),
    "CAPairState index_n": lambda one: CAPairState(
        GaussianIntVector([1]), GaussianIntVector([0]), index_n=one),
}


class TestOneConstructorIntRule:
    """Library constructors read integers by the exact-int rule: bool, float,
    str and numpy ints raise TypeError instead of being read as ints."""

    @pytest.mark.parametrize("one", BAD_ONES, ids=repr)
    @pytest.mark.parametrize("position", INT_POSITIONS)
    def test_refused(self, position, one):
        with pytest.raises(TypeError):
            INT_POSITIONS[position](one)

    @pytest.mark.parametrize("flag", [True, False], ids=repr)
    def test_discreteness_scale_refuses_a_bool(self, flag):
        with pytest.raises(ValueError, match="positive number, got "):
            DiscretenessScale(flag)
        assert DiscretenessScale(1).l == 1 and DiscretenessScale(0.5).l == 0.5


RING3 = GraphTopology.ring(3)
PAIR_FLIP_LINES = multitime.MultiTimeField(
    (2, 2), {(n1, n2): [1, 0, 0, 0] for n1 in (0, 1) for n2 in range(3)})
SIGMA1_MODEL = build_hamiltonian(SIGMA1, ZERO2)
# Every integer argument read by gaussian._exact_int: (call, name, minimum or None).
NAMED_INT_ARGUMENTS = {
    "CAPairState index_n": (lambda v: CAPairState(
        GaussianIntVector([1]), GaussianIntVector([0]), index_n=v), "index_n", None),
    "evolve steps": (lambda v: evolve(CAPairState(
        GaussianIntVector([1, 0]), GaussianIntVector([0, 1])), SIGMA1_MODEL, v), "steps", 1),
    "transfer_sequence k_max":
        (lambda v: propagator.transfer_sequence(SIGMA1_MODEL, v), "k_max", 0),
    "equal_initial_form n":
        (lambda v: propagator.equal_initial_form(SIGMA1_MODEL, [1, 0], v), "n", 0),
    "detect_phased_permutation max_steps": (lambda v: ontology.detect_phased_permutation(
        SIGMA1_MODEL, [1, 0], [0, 1], ontology.standard_basis_rays(2), v), "max_steps", 1),
    "TensorHamiltonian dims": (lambda v: multitime.TensorHamiltonian.general(
        PAIR_FLIP.model, (v, 2)), "dims", 1),
    "MultiTimeField point": (lambda v: multitime.MultiTimeField(
        (1, 1), {(0, v): [1]}), "point", None),
    "sync_first_order steps": (lambda v: multitime.sync_first_order(
        [1, 0, 0, 0], PAIR_FLIP, v), "steps", 1),
    "propagate_line direction": (lambda v: multitime.propagate_line(
        PAIR_FLIP_LINES, PAIR_FLIP, direction=v), "direction", None),
    "GraphTopology n_vertices": (lambda v: GraphTopology(v, ()), "n_vertices", 2),
    "GraphTopology edge endpoint": (lambda v: GraphTopology(3, ((0, v),)), "edge endpoint", None),
    "model_a_evolve start": (lambda v: ising.model_a_evolve(
        RING3, v, Schedule.periodic([(0, 1)]), 1), "start", None),
    "Schedule seed": (lambda v: Schedule.seeded_random(v, [(0, 1)]), "seed", None),
    "Schedule sign": (lambda v: Schedule.periodic([(0, 1, v)]), "sign", None),
    "model_a_step_operator sign": (lambda v: ising.model_a_step_operator(
        RING3, (0, 1), v), "sign", None),
    "model_a_step_operator edge endpoint": (lambda v: ising.model_a_step_operator(
        RING3, (0, v)), "edge endpoint", None),
    "model_a_evolve steps": (lambda v: ising.model_a_evolve(
        RING3, 0, Schedule.periodic([(0, 1)]), v), "steps", 0),
    "model_b_evolve steps": (lambda v: ising.model_b_evolve(
        RING3, 0, ising.frozen_pattern_rule(RING3), v), "steps", 0),
    "model_b_factor edge_number": (lambda v: ising.model_b_factor(RING3, v), "edge_number", None),
    "vertex_sign_flip vertex": (lambda v: ising.vertex_sign_flip(RING3, v), "vertex", None),
    "PhasedPermutation.apply index":
        (lambda v: ising.PhasedPermutation.identity(4).apply(v), "index", 0),
    "projector_identity_check k": (lambda v: ising.projector_identity_check(v), "k", 1),
    "single_site_state site": (lambda v: gup.single_site_state(8, v), "site", None),
    "random_states size": (lambda v: gup.random_states(v, 1, 0), "size", 1),
    "random_states count": (lambda v: gup.random_states(4, v, 0), "count", 0),
    "random_states seed": (lambda v: gup.random_states(4, 1, v), "seed", 0),
    "LatticeOperator size": (lambda v: gup.momentum_operator(v, DiscretenessScale(1)), "size", 1),
    "GaussianIntVector.basis dim": (lambda v: GaussianIntVector.basis(v, 0), "dim", 1),
    "GaussianIntVector.basis index": (lambda v: GaussianIntVector.basis(3, v), "index", None),
    "seeded_pattern_rule seed": (lambda v: ising.seeded_pattern_rule(RING3, v), "seed", None),
}


class TestNamedIntArguments:
    """One reader checks every integer argument: anything but an exact int is
    a TypeError and a value below the minimum a ValueError, each naming the
    argument."""

    @pytest.mark.parametrize("bad", [True, 2.0, np.int64(2)], ids=repr)
    @pytest.mark.parametrize("position", NAMED_INT_ARGUMENTS)
    def test_a_non_int_is_refused_by_name(self, position, bad):
        call, name, _ = NAMED_INT_ARGUMENTS[position]
        with pytest.raises(TypeError) as refused:
            call(bad)
        assert str(refused.value).startswith(f"{name} must be an int, got ")

    @pytest.mark.parametrize("position", [p for p, row in NAMED_INT_ARGUMENTS.items()
                                          if row[2] is not None])
    def test_a_value_below_the_minimum_is_refused_by_name(self, position):
        call, name, minimum = NAMED_INT_ARGUMENTS[position]
        with pytest.raises(ValueError) as refused:
            call(minimum - 1)
        assert str(refused.value) == f"{name} must be >= {minimum}, got {minimum - 1}"

    @pytest.mark.parametrize("index", [-1, 3, 5])
    def test_a_basis_index_outside_the_dimension_is_refused(self, index):
        # these used to give the zero vector
        with pytest.raises(ValueError, match=rf"^index must be in \[0, 3\), got {index}$"):
            GaussianIntVector.basis(3, index)
        assert GaussianIntVector.basis(3, 2).pairs == ((0, 0), (0, 0), (1, 0))


def _ref(op, a, b):
    """The componentwise reference: a op b on (re, im) pairs of int | Fraction."""
    (ar, ai), (br, bi) = a, b
    if op == "+":
        return ar + br, ai + bi
    if op == "-":
        return ar - br, ai - bi
    if op == "*":
        return ar * br - ai * bi, ar * bi + ai * br
    denom = br * br + bi * bi
    return Fraction(ar * br + ai * bi) / denom, Fraction(ai * br - ar * bi) / denom


def _parts(x):
    if isinstance(x, (GaussianInt, GaussianRational)):
        return x.re, x.im
    return x, 0


small_fraction = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
gaussian_scalars = st.one_of(
    st.builds(GaussianInt, st.integers(-40, 40), st.integers(-40, 40)),
    st.builds(GaussianRational, st.one_of(st.integers(-40, 40), small_fraction),
              st.one_of(st.integers(-40, 40), small_fraction)),
)
gaussian_operands = st.one_of(gaussian_scalars, st.integers(-40, 40), small_fraction)
OPERATORS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y,
             "/": lambda x, y: x / y}


class TestScalarsAgainstComponentwise:
    """GaussianInt and GaussianRational arithmetic, mixed operands in both
    orders, against the componentwise pair reference."""

    @given(gaussian_scalars, gaussian_operands, st.sampled_from(sorted(OPERATORS)),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_binary(self, scalar, operand, op, reflected):
        x, y = (operand, scalar) if reflected else (scalar, operand)
        if GaussianRational in (type(x), type(y)):
            expected_type = GaussianRational
        elif type(x) is Fraction or type(y) is Fraction or op == "/":
            expected_type = None  # GaussianInt reads only ints and has no division
        else:
            expected_type = GaussianInt
        if expected_type is None:
            with pytest.raises(TypeError):
                OPERATORS[op](x, y)
            return
        if op == "/" and _parts(y) == (0, 0):
            with pytest.raises(ZeroDivisionError):
                OPERATORS[op](x, y)
            return
        result = OPERATORS[op](x, y)
        assert type(result) is expected_type
        component = Fraction if expected_type is GaussianRational else int
        assert type(result.re) is component and type(result.im) is component
        assert (result.re, result.im) == _ref(op, _parts(x), _parts(y))

    @given(gaussian_scalars)
    @settings(max_examples=100, deadline=None)
    def test_unary(self, z):
        re, im = z.re, z.im
        cls = type(z)
        assert {type(re), type(im)} == {Fraction if cls is GaussianRational else int}
        for result, expected in ((-z, (-re, -im)), (z.times_i(), (-im, re)),
                                 (z.times_minus_i(), (im, -re)), (z.conjugate(), (re, -im))):
            assert type(result) is cls and (result.re, result.im) == expected
        assert z.norm_sq() == re * re + im * im
        assert z.is_zero() == (re == 0 and im == 0)
        assert complex(z) == complex(float(re), float(im))
        assert str(z) == format_exact_complex(re, im)
        assert eval(repr(z)) == z
        other = GaussianRational(re, im) if cls is GaussianInt else z
        assert z == other and hash(z) == hash(other)
        if all(type(c) is int or c.denominator == 1 for c in (re, im)):
            assert z == GaussianInt(int(re), int(im))
            assert hash(z) == hash(GaussianInt(int(re), int(im)))

    def test_immutable(self):
        for z in (GaussianInt(1, 2), GaussianRational(1, 2)):
            with pytest.raises(AttributeError):
                z.re = 5


small_rational = st.one_of(st.integers(-2, 2),
                           st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2])))
# a narrow range of every exact number type, so that equal pairs are frequent
exact_numbers = st.one_of(
    small_rational,
    st.builds(GaussianInt, st.integers(-2, 2), st.sampled_from([0, 0, 1])),
    st.builds(GaussianRational, small_rational, st.one_of(st.just(0), small_rational)),
)


class TestHashContract:
    """Values that compare equal hash equal, across int, Fraction, GaussianInt
    and GaussianRational."""

    @given(exact_numbers, exact_numbers)
    @settings(max_examples=300)
    def test_equal_values_hash_equal(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    def test_real_scalars_join_their_numbers_in_a_set(self):
        assert len({2, GaussianInt(2, 0), GaussianRational(2)}) == 1
        assert len({Fraction(1, 2), GaussianRational(Fraction(1, 2))}) == 1
        assert len({GaussianInt(2, 1), GaussianRational(2, 1)}) == 1


@st.composite
def vector_pairs(draw):
    """Two equally long lists of wide (re, im) pairs, the second often a copy."""
    entry = st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70))
    dim = draw(st.integers(min_value=1, max_value=6))
    u = draw(st.lists(st.one_of(st.just((0, 0)), entry), min_size=dim, max_size=dim))
    v = draw(st.one_of(st.just(list(u)), st.lists(entry, min_size=dim, max_size=dim)))
    return u, v


class TestVectorAgainstComponentwise:
    """Every vector operation against a tuple of GaussianInt components."""

    @given(vector_pairs(), st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
           st.integers(-8, 8), st.integers(-8, 8), st.sampled_from([None, 1, 2, -1]))
    @settings(max_examples=150, deadline=None)
    def test_operations(self, pairs, scalar, start, stop, stride):
        ru = tuple(GaussianInt(a, b) for a, b in pairs[0])
        rv = tuple(GaussianInt(a, b) for a, b in pairs[1])
        u, v = GaussianIntVector(pairs[0]), GaussianIntVector(pairs[1])
        s = GaussianInt(*scalar)

        assert (u + v).components == tuple(a + b for a, b in zip(ru, rv))
        assert (u - v).components == tuple(a - b for a, b in zip(ru, rv))
        assert (-u).components == tuple(-a for a in ru)
        assert u.scaled(s).components == tuple(s * a for a in ru)
        assert u.scaled(scalar[0]).components == tuple(scalar[0] * a for a in ru)
        assert u.norm_sq() == sum(a.norm_sq() for a in ru)
        assert u.is_zero() == all(a.is_zero() for a in ru)
        assert (u == v) == (ru == rv)
        assert (u != v) == (ru != rv)
        assert u == GaussianIntVector(ru) and hash(u) == hash(GaussianIntVector(ru))
        assert len(u) == len(ru)
        assert list(u) == list(ru)
        assert all(type(c) is GaussianInt for c in u.components)
        assert u.components == ru
        for k in range(-len(ru), len(ru)):
            assert u[k] == ru[k]
        assert u[start:stop:stride] == ru[start:stop:stride]
        assert to_xp(u) == (tuple(a.re for a in ru), tuple(a.im for a in ru))
        assert from_xp(*to_xp(u)) == u
        assert u.as_complex() == [complex(a) for a in ru]
        assert repr(u) == f"GaussianIntVector([{', '.join(str(a) for a in ru)}])"

    def test_dimension_mismatch_and_bad_index(self):
        u = gvec((1, 0), (0, 1))
        for op in (u.__add__, u.__sub__):
            with pytest.raises(DimensionMismatch):
                op(gvec((1, 0)))
        with pytest.raises(IndexError):
            u[2]


# =============================================================================
# Model validation
# =============================================================================


class TestBuildHamiltonian:
    def test_sigma1_model(self):
        model = build_hamiltonian(SIGMA1, ZERO2)
        assert model.dim == 2
        assert model.h_matrix[0][1] == GaussianInt(1, 0)
        assert model.h_matrix[1][0] == GaussianInt(1, 0)

    def test_zero_model(self):
        model = build_hamiltonian(ZERO2, ZERO2)
        assert all(e.is_zero() for row in model.h_matrix for e in row)

    def test_symmetry_violation_reports_first_pair(self):
        with pytest.raises(SymmetryViolation) as exc:
            build_hamiltonian(((0, 1), (0, 0)), ZERO2)
        assert exc.value.index_pair == (0, 1)
        assert exc.value.matrix_name == "S"

    def test_first_pair_whose_upper_entry_is_zero(self):
        # (0, 3) is seen only at its nonzero S[3][0], after (1, 2) is seen in row 1
        s = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 2, 0, 0], [1, 0, 0, 0]]
        with pytest.raises(SymmetryViolation) as exc:
            build_hamiltonian(s, [[0] * 4 for _ in range(4)])
        assert (exc.value.matrix_name, exc.value.index_pair) == ("S", (0, 3))

    @pytest.mark.parametrize("name", ["S", "A"])
    def test_a_lower_entry_whose_mirror_is_zero_is_the_only_fault(self, name):
        # every entry on and above the diagonal matches its mirror; only the count sees (2, 0)
        fault = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        fault[2][0] = 5
        ring = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        s, a = (fault, [[0] * 3 for _ in range(3)]) if name == "S" else (ring, fault)
        with pytest.raises(SymmetryViolation) as exc:
            build_hamiltonian(s, a)
        assert (exc.value.matrix_name, exc.value.index_pair) == (name, (0, 2))

    def test_antisymmetry_violation(self):
        with pytest.raises(SymmetryViolation) as exc:
            build_hamiltonian(ZERO2, ((1, 0), (0, 0)))
        assert exc.value.matrix_name == "A"

    def test_hermiticity_of_accepted_models(self):
        rng = random.Random(5)
        for _ in range(20):
            dim = rng.randint(1, 6)
            model = build_hamiltonian(*random_model_matrices(rng, dim))
            h = model.h_matrix
            for r in range(dim):
                for c in range(dim):
                    assert h[r][c] == h[c][r].conjugate()

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_hamiltonian(((0, 1),), ZERO2)

    def test_non_integer_entries_refused(self):
        # an entry such as 1.5 is refused, not truncated to 1
        with pytest.raises(TypeError):
            build_hamiltonian([[1.5]], [[0]])
        with pytest.raises(TypeError):
            build_hamiltonian([[0]], [[Fraction(0)]])


@st.composite
def dense_s_and_a(draw, entry):
    """Symmetric S and antisymmetric A of a random dim in 1..6."""
    dim = draw(st.integers(min_value=1, max_value=6))
    s = [[0] * dim for _ in range(dim)]
    a = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r, dim):
            s[r][c] = s[c][r] = draw(entry)
            if c > r:
                a[r][c] = draw(entry)
                a[c][r] = -a[r][c]
    return s, a


class TestModelIsItsRows:
    """A model holds only its rows; the dense views give back the S and A it
    was built from, and equality and hash compare the rows."""

    @given(dense_s_and_a(st.one_of(st.just(0), st.integers(-(2**70), 2**70))))
    @settings(max_examples=60, deadline=None)
    def test_views_give_back_s_and_a(self, matrices):
        s, a = matrices
        dim = len(s)
        model = build_hamiltonian(s, a)
        assert model.dim == dim
        assert model.h_rows == tuple(
            tuple((c, s[r][c], a[r][c]) for c in range(dim) if s[r][c] or a[r][c])
            for r in range(dim)
        )
        assert model.dense_pairs() == [[(s[r][c], a[r][c]) for c in range(dim)] for r in range(dim)]
        assert model.h_matrix == tuple(
            tuple(GaussianInt(s[r][c], a[r][c]) for c in range(dim)) for r in range(dim)
        )
        assert all(type(z) is GaussianInt for row in model.h_matrix for z in row)
        again = HamiltonianModel(model.h_rows)
        assert again == model and hash(again) == hash(model)

    @given(dense_s_and_a(st.integers(-(2**20), 2**20)))
    @settings(max_examples=60, deadline=None)
    def test_complex_array_gives_back_s_and_a(self, matrices):
        s, a = matrices
        h = build_hamiltonian(s, a).as_complex_array()
        assert h.dtype == np.complex128 and h.shape == (len(s), len(s))
        assert np.array_equal(h.real, np.array(s)) and np.array_equal(h.imag, np.array(a))

    def test_fields_and_zero_model(self):
        assert [f.name for f in dataclasses.fields(HamiltonianModel)] == ["h_rows"]
        assert zero_model(3) == build_hamiltonian([[0] * 3] * 3, [[0] * 3] * 3)
        assert zero_model(3).h_rows == ((), (), ())
        assert build_hamiltonian(SIGMA1, ZERO2) != build_hamiltonian(ZERO2, ZERO2)


# =============================================================================
# Stepping
# =============================================================================


class TestStep:
    def test_pair_flip_first_step(self):
        model = build_hamiltonian(SIGMA1, ZERO2)
        pair = CAPairState(gvec((1, 0), (0, 0)), gvec((0, 0), (1, 0)))
        after = step(pair, model, "forward")
        assert after.psi_curr == gvec((1, -1), (0, 0))
        assert after.index_n == 2

    def test_zero_hamiltonian_alternates(self):
        model = zero_model(3)
        pair = CAPairState(gvec((1, 0), (2, 0), (0, 3)), gvec((0, 1), (0, 0), (5, 0)))
        after = step(pair, model, "forward")
        assert after.psi_curr == pair.psi_prev

    def test_forward_backward_identity(self):
        rng = random.Random(3)
        for _ in range(30):
            dim = rng.randint(1, 5)
            model = build_hamiltonian(*random_model_matrices(rng, dim))
            pair = CAPairState(
                GaussianIntVector(
                    GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(dim)
                ),
                GaussianIntVector(
                    GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(dim)
                ),
                index_n=rng.randint(-5, 5),
            )
            assert step(step(pair, model, "forward"), model, "backward") == pair
            assert step(step(pair, model, "backward"), model, "forward") == pair

    def test_dimension_mismatch(self):
        model = build_hamiltonian(SIGMA1, ZERO2)
        pair = CAPairState(gvec((1, 0),), gvec((0, 1),))
        with pytest.raises(DimensionMismatch):
            step(pair, model)


# =============================================================================
# Evolution against the coordinate/momentum oracle
# =============================================================================


class TestEvolve:
    def test_published_two_state_sequence(self):
        model = build_hamiltonian(SIGMA1, ZERO2)
        pair = CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1))
        traj = evolve(pair, model, steps=11)
        assert len(traj) == 13
        expected = [
            gvec((1, 0), (0, 0)),
            gvec((0, 0), (1, 0)),
            gvec((1, -1), (0, 0)),
            gvec((0, 0), (0, -1)),
            gvec((0, -1), (0, 0)),
            gvec((0, 0), (-1, -1)),
            gvec((-1, 0), (0, 0)),
            gvec((0, 0), (-1, 0)),
        ]
        for n, want in enumerate(expected):
            assert traj.state_at(n) == want
        assert traj.state_at(12) == traj.state_at(0)

    def test_zero_hamiltonian_alternation(self):
        model = zero_model(2)
        pair = CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1))
        traj = evolve(pair, model, steps=4)
        for n in range(6):
            assert traj.state_at(n) == traj.state_at(n % 2)

    def test_matches_xp_oracle(self):
        rng = random.Random(17)
        for _ in range(10):
            dim = rng.randint(1, 5)
            s, a = random_model_matrices(rng, dim)
            model = build_hamiltonian(s, a)
            x0 = [rng.randint(-4, 4) for _ in range(dim)]
            p0 = [rng.randint(-4, 4) for _ in range(dim)]
            x1 = [rng.randint(-4, 4) for _ in range(dim)]
            p1 = [rng.randint(-4, 4) for _ in range(dim)]
            steps = 25
            traj = evolve(CAPairState(from_xp(x0, p0), from_xp(x1, p1)), model, steps)
            reference = xp_iterate(s, a, x0, p0, x1, p1, steps)
            for k, (xr, pr) in enumerate(reference):
                assert to_xp(traj.states[k]) == (tuple(xr), tuple(pr))

    def test_long_run_residuals_exact(self):
        rng = random.Random(23)
        s, a = random_model_matrices(rng, 5)
        model = build_hamiltonian(s, a)
        pair = CAPairState(
            GaussianIntVector(GaussianInt(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(5)),
            GaussianIntVector(GaussianInt(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(5)),
        )
        traj = evolve(pair, model, steps=1000)
        assert traj.verify()

    def test_stream_matches_evolve(self):
        model = build_hamiltonian(SIGMA1, ZERO2)
        pair = CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1))
        traj = evolve(pair, model, steps=10)
        walker = stream(pair, model)
        for n in range(2, 12):
            assert next(walker).psi_curr == traj.state_at(n)

    def test_steps_must_be_positive(self):
        model = zero_model(2)
        pair = CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1))
        with pytest.raises(ValueError):
            evolve(pair, model, steps=0)


# =============================================================================
# Two-time correlation
# =============================================================================


class TestTwoTimeCorrelation:
    def test_orthogonal_start_gives_zero(self):
        model = build_hamiltonian(SIGMA1, ZERO2)
        pair = CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1))
        assert two_time_correlation(pair) == 0
        walker = stream(pair, model)
        for _ in range(30):
            assert two_time_correlation(next(walker)) == 0

    def test_equal_start_gives_two(self):
        model = build_hamiltonian(SIGMA1, ZERO2)
        pair = CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 0))
        assert two_time_correlation(pair) == 2
        walker = stream(pair, model)
        for _ in range(30):
            assert two_time_correlation(next(walker)) == 2

    def test_zero_states(self):
        pair = CAPairState(GaussianIntVector.zero(3), GaussianIntVector.zero(3))
        assert two_time_correlation(pair) == 0

    def test_conserved_on_random_models(self):
        rng = random.Random(29)
        for _ in range(15):
            dim = rng.randint(2, 8)
            model = build_hamiltonian(*random_model_matrices(rng, dim))
            pair = CAPairState(
                GaussianIntVector(
                    GaussianInt(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(dim)
                ),
                GaussianIntVector(
                    GaussianInt(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(dim)
                ),
            )
            q0 = two_time_correlation(pair)
            walker = stream(pair, model)
            for _ in range(100):
                assert two_time_correlation(next(walker)) == q0


# =============================================================================
# Property tests
# =============================================================================

small_int = st.integers(min_value=-4, max_value=4)


@st.composite
def model_and_pair(draw, max_dim=4):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    s = [[0] * dim for _ in range(dim)]
    a = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r, dim):
            s[r][c] = s[c][r] = draw(small_int)
            if c > r:
                v = draw(small_int)
                a[r][c], a[c][r] = v, -v
    comps = st.tuples(small_int, small_int)
    prev = GaussianIntVector(GaussianInt(*draw(comps)) for _ in range(dim))
    curr = GaussianIntVector(GaussianInt(*draw(comps)) for _ in range(dim))
    return build_hamiltonian(s, a), CAPairState(prev, curr)


class TestProperties:
    @given(model_and_pair())
    @settings(max_examples=60, deadline=None)
    def test_reversibility(self, case):
        model, pair = case
        assert step(step(pair, model, "forward"), model, "backward") == pair

    @given(model_and_pair())
    @settings(max_examples=60, deadline=None)
    def test_conservation(self, case):
        model, pair = case
        q0 = two_time_correlation(pair)
        walker = stream(pair, model)
        for _ in range(12):
            assert two_time_correlation(next(walker)) == q0

    @given(st.lists(st.tuples(small_int, small_int), min_size=1, max_size=5))
    def test_xp_round_trip(self, pairs):
        v = GaussianIntVector(GaussianInt(r, i) for r, i in pairs)
        assert from_xp(*to_xp(v)) == v


# =============================================================================
# The raw kernel against a dense reference built from h_matrix
# =============================================================================

wide_int = st.integers(min_value=-(2**70), max_value=2**70)
sparse_wide_int = st.one_of(st.just(0), wide_int)


def dense_h_times(model, v):
    """H @ v with the boxed dense h_matrix, entry by entry."""
    h = model.h_matrix
    return GaussianIntVector(
        sum((h[a][b] * v[b] for b in range(model.dim)), GaussianInt(0, 0))
        for a in range(model.dim)
    )


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


def wide_vector(dim):
    return st.lists(st.tuples(wide_int, wide_int), min_size=dim, max_size=dim).map(
        lambda pairs: GaussianIntVector(GaussianInt(r, i) for r, i in pairs)
    )


class TestKernelAgainstDense:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_tensor_apply(self, data):
        model = data.draw(wide_model())
        v = data.draw(wide_vector(model.dim))
        h = multitime.TensorHamiltonian((model.dim,), model)
        assert h.apply(v) == tuple(dense_h_times(model, v))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_forward_and_backward_step(self, data):
        model = data.draw(wide_model())
        pair = CAPairState(
            data.draw(wide_vector(model.dim)), data.draw(wide_vector(model.dim)), index_n=3
        )
        fwd = step(pair, model, "forward")
        forced = dense_h_times(model, pair.psi_curr)
        assert fwd.psi_curr == pair.psi_prev - GaussianIntVector(c.times_i() for c in forced)
        assert fwd.psi_prev == pair.psi_curr and fwd.index_n == 4
        back = step(pair, model, "backward")
        forced = dense_h_times(model, pair.psi_prev)
        assert back.psi_prev == pair.psi_curr + GaussianIntVector(c.times_i() for c in forced)
        assert back.psi_curr == pair.psi_prev and back.index_n == 2
        assert step(fwd, model, "backward") == pair
        assert step(back, model, "forward") == pair

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_residuals_locate_a_corrupted_state(self, data):
        model = data.draw(wide_model())
        pair = CAPairState(data.draw(wide_vector(model.dim)), data.draw(wide_vector(model.dim)))
        traj = evolve(pair, model, steps=6)
        interior = range(traj.start_index + 1, traj.start_index + len(traj) - 1)
        assert all(traj.residual_at(n).is_zero() for n in interior)
        assert traj.verify()

        bad = data.draw(st.integers(min_value=0, max_value=len(traj) - 1))
        delta = data.draw(wide_vector(model.dim).filter(lambda v: not v.is_zero()))
        states = list(traj.states)
        states[bad] = states[bad] + delta
        broken = Trajectory(tuple(tuple((c.re, c.im) for c in state) for state in states),
                            traj.start_index, model)
        m = traj.start_index + bad
        # psi[m] enters residual m-1 and m+1 directly, and residual m through i H psi[m].
        moved_by_h = not dense_h_times(model, delta).is_zero()
        for n in interior:
            expect_zero = not (abs(n - m) == 1 or (n == m and moved_by_h))
            assert broken.residual_at(n).is_zero() == expect_zero
        assert not broken.verify()


class TestRawTrajectory:
    """A Trajectory holds raw pairs; every reader agrees with the boxed states
    that `stream` rebuilds one step at a time."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_readers_match_streamed_states(self, data):
        from ontoca.ontology import norm_trace
        from ontoca.serialize import trajectory_rows

        model = data.draw(wide_model(max_dim=5))
        pair = CAPairState(data.draw(wide_vector(model.dim)), data.draw(wide_vector(model.dim)),
                           index_n=data.draw(st.integers(min_value=-3, max_value=3)))
        steps = data.draw(st.integers(min_value=1, max_value=8))
        traj = evolve(pair, model, steps)
        walker = stream(pair, model)
        boxed = [pair.psi_prev, pair.psi_curr] + [next(walker).psi_curr for _ in range(steps)]
        start = pair.index_n - 1

        assert traj.start_index == start and len(traj) == len(boxed)
        assert traj.states == tuple(boxed) and traj[1:3] == tuple(boxed[1:3])
        for k, state in enumerate(boxed):
            assert traj.state_at(start + k) == state and traj[k] == state
        for k in range(1, len(boxed) - 1):
            n = start + k
            forced = GaussianIntVector(c.times_i() for c in dense_h_times(model, boxed[k]))
            assert traj.residual_at(n) == boxed[k + 1] - boxed[k - 1] + forced
            assert traj.correlation_at(n) == two_time_correlation(
                CAPairState(traj.state_at(n - 1), traj.state_at(n), index_n=n))
        assert traj.verify()
        assert norm_trace(traj) == tuple(state.norm_sq() for state in boxed)
        # on states that are no trajectory, Q differs from pair to pair
        loose = [data.draw(wide_vector(model.dim)) for _ in range(4)]
        raw = Trajectory(tuple(tuple((c.re, c.im) for c in v) for v in loose), start, model)
        for k in range(1, 4):
            assert raw.correlation_at(start + k) == two_time_correlation(
                CAPairState(loose[k - 1], loose[k]))
        assert trajectory_rows(traj) == [
            (start + k, alpha, c.re, c.im) for k, state in enumerate(boxed)
            for alpha, c in enumerate(state)
        ]


# =============================================================================
# The slot-packed residual check against a per-n oracle
# =============================================================================


def residuals_zero_per_n(traj):
    """The per-n oracle of Trajectory.verify: psi[n+1] - psi[n-1] + i H psi[n]
    from the boxed dense H, one interior n at a time."""
    states = traj.states
    for k in range(1, len(states) - 1):
        forced = GaussianIntVector(c.times_i() for c in dense_h_times(traj.model, states[k]))
        if not (states[k + 1] - states[k - 1] + forced).is_zero():
            return False
    return True


def with_part_moved(traj, k, alpha, part, delta):
    """`traj` with part `part` (0: re, 1: im) of component alpha of state k moved by delta."""
    states = [list(state) for state in traj.raw_states]
    pair = list(states[k][alpha])
    pair[part] += delta
    states[k][alpha] = tuple(pair)
    return Trajectory(tuple(map(tuple, states)), traj.start_index, traj.model)


def unpack(packed, width, count):
    """The parts of gaussian._pack(parts, width), read back slot by slot."""
    offset = 1 << (width - 1)
    return [(packed >> (width * i) & (1 << width) - 1) - offset for i in range(count)]


def assert_blocks_tile_the_interior(traj):
    blocks = traj.check_blocks()
    edges = [first for first, _, _ in blocks] + [blocks[-1][1]] if blocks else [1, 1]
    assert edges[0] == 1 and edges[-1] == max(len(traj) - 1, 1)
    assert all(stop == nxt for (_, stop, _), nxt in zip(blocks, edges[1:]))
    h = max(sum(abs(x.re) + abs(x.im) for x in row) for row in traj.model.h_matrix)
    for first, stop, width in blocks:
        assert width % 8 == 0 and first < stop
        assert stop - first == 1 or (stop - first) * width <= gaussian.VERIFY_BLOCK_BITS
        m = max(abs(x) for state in traj.raw_states[first - 1:stop + 1]
                for pair in state for x in pair)
        assert (2 + h) * m < 2 ** (width - 1) <= max(2**7, 2**8 * (2 + h) * m)


BLOCK_BITS = st.sampled_from([8, 256, 2048, 8192, gaussian.VERIFY_BLOCK_BITS])


class TestPackedVerify:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_per_n_oracle(self, data):
        model = data.draw(wide_model(max_dim=5))
        pair = CAPairState(data.draw(wide_vector(model.dim)), data.draw(wide_vector(model.dim)),
                           index_n=data.draw(st.integers(min_value=-3, max_value=3)))
        traj = evolve(pair, model, data.draw(st.integers(min_value=1, max_value=12)))
        k = data.draw(st.integers(min_value=0, max_value=len(traj) - 1))
        alpha = data.draw(st.integers(min_value=0, max_value=model.dim - 1))
        part = data.draw(st.integers(min_value=0, max_value=1))
        delta = data.draw(st.one_of(st.sampled_from([1, -1]), wide_int.filter(bool),
                                    st.integers(min_value=1, max_value=3000).map(lambda b: 1 << b)))
        broken = with_part_moved(traj, k, alpha, part, delta)
        with mock.patch.object(gaussian, "VERIFY_BLOCK_BITS", data.draw(BLOCK_BITS)):
            assert traj.verify() and residuals_zero_per_n(traj)
            assert broken.verify() == residuals_zero_per_n(broken)
            if k >= 2 or k <= len(traj) - 3:  # psi[k] is psi[n + 1] or psi[n - 1] of a residual
                assert not broken.verify()
            assert_blocks_tile_the_interior(broken)

    @pytest.mark.parametrize("block_bits", [8, 32, 96])
    def test_a_corruption_on_each_block_edge(self, block_bits, monkeypatch):
        monkeypatch.setattr(gaussian, "VERIFY_BLOCK_BITS", block_bits)
        rng = random.Random(block_bits)
        s, a = random_model_matrices(rng, 3, -1, 1)
        pair = CAPairState(gvec((1, 0), (0, 1), (-1, 1)), gvec((0, 0), (1, -1), (1, 0)))
        traj = evolve(pair, build_hamiltonian(s, a), 40)
        blocks = traj.check_blocks()
        assert len(blocks) > 3
        assert traj.verify()
        for first, stop, _ in blocks:
            for k in (first - 1, first, stop - 1, stop):
                for delta in (1, -1):
                    broken = with_part_moved(traj, k, k % 3, k % 2, delta)
                    assert not broken.verify()
                    assert not residuals_zero_per_n(broken)

    def test_first_and_last_state(self):
        rng = random.Random(31)
        s, a = random_model_matrices(rng, 4)
        pair = CAPairState(gvec((2, -1), (0, 3), (1, 1), (-2, 0)),
                           gvec((0, 1), (-1, 2), (3, 0), (1, -1)))
        traj = evolve(pair, build_hamiltonian(s, a), 20)
        for k in (0, len(traj) - 1):
            for alpha in range(4):
                for part in (0, 1):
                    for delta in (1, -1):
                        assert not with_part_moved(traj, k, alpha, part, delta).verify()

    def test_a_unit_move_of_a_500_bit_part(self):
        rng = random.Random(5)
        s, a = random_model_matrices(rng, 12, -2, 2)
        vec = lambda: GaussianIntVector((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(12))
        traj = evolve(CAPairState(vec(), vec()), build_hamiltonian(s, a), 150)
        bits = [max(x.bit_length() for pair in state for x in pair) for state in traj.raw_states]
        k = next(k for k, b in enumerate(bits) if b >= 500)
        alpha, part = next((alpha, part) for alpha, pair in enumerate(traj.raw_states[k])
                           for part in (0, 1) if pair[part].bit_length() >= 500)
        assert traj.verify()
        for delta in (1, -1):
            assert not with_part_moved(traj, k, alpha, part, delta).verify()

    def test_a_corruption_wider_than_every_part_widens_its_block(self):
        model = build_hamiltonian(SIGMA1, ZERO2)
        traj = evolve(CAPairState(gvec((1, 0), (0, 0)), gvec((0, 0), (1, 0))), model, 30)
        assert max(width for _, _, width in traj.check_blocks()) == 8
        broken = with_part_moved(traj, 17, 1, 0, 1 << 4000)
        widths = {(first, stop): width for first, stop, width in broken.check_blocks()}
        assert any(first - 1 <= 17 <= stop and width > 4000
                   for (first, stop), width in widths.items())
        assert not broken.verify()
        # a move by 2**(width - 1) of the old slot width: exactly what a fixed width would miss
        for delta in (1 << 7, -(1 << 7), 1 << 8):
            assert not with_part_moved(traj, 17, 1, 0, delta).verify()

    @pytest.mark.parametrize("count", [1, 2])
    def test_one_and_two_states_have_no_residual(self, count):
        model = build_hamiltonian(SIGMA1, ZERO2)
        traj = Trajectory(((((3, 1), (0, -7)),) * count), 5, model)
        assert traj.check_blocks() == [] and traj.verify()

    def test_all_zero_trajectory(self):
        zero = GaussianIntVector.zero(3)
        rng = random.Random(2)
        traj = evolve(CAPairState(zero, zero), build_hamiltonian(*random_model_matrices(rng, 3)), 9)
        assert all(x == 0 for state in traj.raw_states for pair in state for x in pair)
        assert traj.check_blocks() == [(1, 10, 8)]
        assert traj.verify()
        assert not with_part_moved(traj, 4, 2, 1, -1).verify()

    @pytest.mark.parametrize("width", [8, 16, 64, 520, 4096])
    def test_pack_round_trips_at_the_slot_bounds(self, width):
        top = (1 << (width - 1)) - 1
        rng = random.Random(width)
        parts = [top, -top, 0, 1, -1] + [rng.randint(-top, top) for _ in range(20)] + [-top, top]
        packed = gaussian._pack(parts, width)
        assert packed.bit_length() <= width * len(parts)
        assert unpack(packed, width, len(parts)) == parts
        assert unpack(gaussian._pack([top], width), width, 1) == [top]
        with pytest.raises(OverflowError):
            gaussian._pack([top + 1], width)

    def test_verify_memory_is_one_block(self):
        import tracemalloc

        rng = random.Random(19)
        s, a = random_model_matrices(rng, 12, -2, 2)
        vec = lambda: GaussianIntVector((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(12))
        traj = evolve(CAPairState(vec(), vec()), build_hamiltonian(s, a), 1000)
        tracemalloc.start()
        try:
            assert traj.verify()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
