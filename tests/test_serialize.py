"""Deterministic emission and input-file schemas."""

import csv
import io
import json
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ontoca import cli, serialize
from ontoca.errors import ConfigInvalid, DimensionMismatch, NotSelfAdjoint, SymmetryViolation
from ontoca.gaussian import (
    CAPairState,
    GaussianIntVector,
    GaussianRational,
    HamiltonianModel,
    Trajectory,
    _exact_int,
    build_hamiltonian,
    evolve,
    zero_model,
)
from ontoca.multitime import MultiTimeField, TensorHamiltonian
from ontoca.ontology import preset_hamiltonian
from ontoca.serialize import (
    atomic_write_text,
    dumps_json,
    field_csv,
    format_float,
    model_from_mapping,
    model_to_mapping,
    parse_field_csv,
    schedule_from_mapping,
    topology_from_mapping,
    trajectory_csv,
    trajectory_json,
    trajectory_rows,
    vector_from_config,
)


class TestJsonEmission:
    def test_float_seventeen_significant_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert float(format_float(1 / 3)) == 1 / 3

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_field_order_preserved(self):
        text = dumps_json({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')
        assert json.loads(text) == {"b": 1, "a": 2}

    def test_empty_containers(self):
        assert dumps_json([]) == "[]\n"
        assert dumps_json({}) == "{}\n"

    def test_round_trips_through_stdlib(self):
        doc = {"x": [1, 2.5, None, True, "s"], "y": {"z": -7}}
        assert json.loads(dumps_json(doc)) == doc

    def test_deterministic(self):
        doc = {"values": [0.1 * k for k in range(20)], "flag": False}
        assert dumps_json(doc) == dumps_json(doc)

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            dumps_json({"x": object()})


class TestAtomicWrite:
    def test_write_and_replace(self, tmp_path):
        target = tmp_path / "sub" / "report.json"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        assert list(target.parent.iterdir()) == [target]


class TestTrajectoryCsv:
    def test_row_count_and_values(self):
        model = preset_hamiltonian("H2")
        pair = CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1))
        traj = evolve(pair, model, steps=5)
        rows = trajectory_rows(traj)
        assert len(rows) == (5 + 2) * 2
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "n,alpha,re,im"
        assert lines[1] == "0,0,1,0"
        # psi2 = (1-i, 0)
        assert "2,0,1,-1" in lines


def csv_module_text(header, rows):
    """What csv.writer makes of the header and rows, with the writers' line ending."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def same_bytes_as_csv_module(write, *args):
    """The writer's text, checked against csv.writer on the rows it passed on."""
    seen = []

    def spy(header, rows):
        rows = list(rows)
        seen.append((header, rows))
        return joined(header, rows)

    joined = serialize._csv_text
    with mock.patch.object(serialize, "_csv_text", spy):
        text = write(*args)
    (header, rows), = seen
    assert text.encode() == csv_module_text(header, rows).encode()
    return text


wide = st.integers(-(2**80), 2**80)


wide_part = st.one_of(st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=-(2**600), max_value=2**600))


class TestTrajectoryJson:
    """The rows writer of `evolve --format json` against dumps_json of the
    whole document, the route it replaced."""

    @given(st.integers(min_value=1, max_value=4).flatmap(lambda dim: st.tuples(
        st.lists(st.lists(st.tuples(wide_part, wide_part), min_size=dim, max_size=dim),
                 min_size=1, max_size=6),
        st.integers(min_value=-40, max_value=40), st.just(dim))), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_dumps_json_of_the_document(self, case, conserved):
        states, start, dim = case
        traj = Trajectory(tuple(map(tuple, states)), start, zero_model(dim))
        head = {"schema_version": 1, "kind": "evolve", "dim": dim, "steps": len(states) - 2,
                "start_index": start, "two_time_correlation": -(2**601), "conserved": conserved}
        doc = {**head, "rows": [list(row) for row in trajectory_rows(traj)]}
        assert trajectory_json(head, traj) == dumps_json(doc)

    def test_dim_one_and_no_rows(self):
        one = Trajectory((((-(2**600), 7),),), 3, zero_model(1))
        empty = Trajectory((), 0, zero_model(1))
        for traj in (one, empty):
            doc = {"kind": "evolve", "rows": [list(row) for row in trajectory_rows(traj)]}
            assert trajectory_json({"kind": "evolve"}, traj) == dumps_json(doc)


class TestCsvWritersMatchCsvModule:
    """The CSV writers join fields with commas; no field needs quoting, so the
    bytes equal csv.writer's for every writer."""

    @given(st.lists(st.lists(st.tuples(wide, wide), min_size=3, max_size=3), min_size=1,
                    max_size=5), st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_trajectory(self, states, start):
        from ontoca.gaussian import Trajectory, zero_model

        traj = Trajectory(tuple(map(tuple, states)), start, zero_model(3))
        same_bytes_as_csv_module(serialize.trajectory_csv, traj)

    @given(st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.lists(st.builds(GaussianRational, st.fractions(), st.fractions()), min_size=2,
                 max_size=2),
        max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_field(self, values):
        same_bytes_as_csv_module(field_csv, MultiTimeField((1, 2), values))

    @given(st.integers(1, 6), st.integers(0, 4), st.lists(st.integers(0, 3), max_size=6),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_spin(self, n_vertices, n_edges, phases, data):
        bits = n_vertices + n_edges
        run = [(data.draw(st.integers(0, (1 << bits) - 1)), p) for p in phases]
        text = same_bytes_as_csv_module(serialize.spin_trajectory_csv, run, n_vertices, n_edges)
        if n_edges == 0 and run:
            assert text.split("\n")[1].split(",")[2] == ""

    @given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                    max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_dispersion(self, rows):
        same_bytes_as_csv_module(serialize.dispersion_csv, rows)


class TestFieldCsv:
    def test_round_trip_with_fractions(self):
        field = MultiTimeField(
            (1, 2),
            {
                (0, 0): [GaussianRational(Fraction(1, 2), Fraction(-3, 2)), GaussianRational(2)],
                (1, -1): [GaussianRational(0), GaussianRational(Fraction(7, 3), 1)],
            },
        )
        text = field_csv(field)
        parsed = parse_field_csv(text, (1, 2))
        assert parsed.values == field.values

    def test_partial_point_rejected(self):
        text = "n1,n2,component,re,im\n0,0,0,1,0\n"
        with pytest.raises(ConfigInvalid):
            parse_field_csv(text, (1, 2))

    def test_bad_header_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_field_csv("a,b\n", (1, 1))


class TestModelSchema:
    def test_mapping_round_trip(self):
        model = preset_hamiltonian("H3")
        again = model_from_mapping(model_to_mapping(model))
        assert again == model

    def test_preset_shortcut(self):
        assert model_from_mapping({"preset": "H4"}).dim == 4

    def test_preset_conflict_detected(self):
        with pytest.raises(ConfigInvalid):
            model_from_mapping(
                {"preset": "H2", "S": [[0, 0], [0, 0]], "A": [[0, 0], [0, 0]]}
            )

    @pytest.mark.parametrize("s, a", [
        ([[0, 0], [0, 0]], [[0, 0], [0, 0]]),
        ([[0, 1], [0, 0]], [[0, 0], [0, 0]]),  # not symmetric: still a disagreement
        ([[0, 1, 0], [1, 0, 0]], [[0, 0, 0], [0, 0, 0]]),  # a zero column too many
        ([[0, 1], [1, 0]], [[0, 0], [0, 0], [0, 0]]),  # a zero row too many in A
    ])
    def test_preset_disagreement_message(self, s, a):
        with pytest.raises(ConfigInvalid) as exc:
            model_from_mapping({"preset": "H2", "S": s, "A": a}, "model")
        assert str(exc.value) == "model: S/A entries disagree with preset 'H2'"

    @pytest.mark.parametrize("name", ["H2", "H3", "H4"])
    def test_preset_with_its_own_matrices_accepted(self, name):
        model = preset_hamiltonian(name)
        mapping = model_to_mapping(model)
        assert mapping["S"] == [[z.re for z in row] for row in model.h_matrix]
        assert mapping["A"] == [[z.im for z in row] for row in model.h_matrix]
        assert model_from_mapping({"preset": name, "S": mapping["S"], "A": mapping["A"]}) == model

    def test_symmetry_error_surfaces_as_config_error(self):
        with pytest.raises(ConfigInvalid):
            model_from_mapping({"S": [[0, 1], [0, 0]], "A": [[0, 0], [0, 0]]})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            serialize.config_document(str(tmp_path / "missing.json"), "model",
                                      model_from_mapping)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        model = preset_hamiltonian("H4")
        atomic_write_text(path, dumps_json(model_to_mapping(model)))
        assert serialize.config_document(str(path), "model", model_from_mapping) == model

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ConfigInvalid):
            model_from_mapping({"dim": 3, "S": [[0, 1], [1, 0]], "A": [[0, 0], [0, 0]]})


class TestTopologyAndSchedule:
    def test_topology_mapping(self):
        topo = topology_from_mapping({"n_vertices": 3, "edges": [[0, 1], [1, 2]]})
        assert topo.edges == ((0, 1), (1, 2))

    def test_topology_preset(self):
        topo = topology_from_mapping({"preset": "ring", "n_vertices": 4})
        assert topo.n_edges == 4

    def test_topology_file(self, tmp_path):
        path = tmp_path / "topo.json"
        atomic_write_text(path, dumps_json({"n_vertices": 2, "edges": [[0, 1]]}))
        topo = serialize.config_document(str(path), "topology", topology_from_mapping)
        assert topo.n_edges == 1

    def test_bad_topology(self):
        with pytest.raises(ConfigInvalid):
            topology_from_mapping({"n_vertices": 2, "edges": [[0, 0]]})

    @pytest.mark.parametrize("data", [
        {"n_vertices": 3.9, "edges": [[0, 1], [1, 2]]},
        {"n_vertices": 3, "edges": [[0, 1.7], [1, 2]]},
        {"preset": "ring", "n_vertices": 4.0},
    ])
    def test_non_integer_topology_refused(self, data):
        with pytest.raises(ConfigInvalid, match="must be an integer"):
            topology_from_mapping(data)

    def test_schedule_kinds(self, tmp_path):
        periodic = schedule_from_mapping({"kind": "periodic", "steps": [[0, 1, 1]]})
        assert periodic.active(5) == ((0, 1), 1)
        seeded = schedule_from_mapping(
            {"kind": "seeded_random", "seed": 3, "pool": [[0, 1], [1, 2]]}
        )
        assert seeded.active(0) == seeded.active(0)
        path = tmp_path / "sched.json"
        atomic_write_text(
            path, dumps_json({"kind": "explicit", "steps": [[0, 1, -1]]})
        )
        explicit = serialize.config_document(str(path), "schedule", schedule_from_mapping)
        assert explicit.active(0) == ((0, 1), -1)

    def test_bad_schedule(self):
        with pytest.raises(ConfigInvalid):
            schedule_from_mapping({"kind": "periodic", "steps": []})
        with pytest.raises(ConfigInvalid):
            schedule_from_mapping({"kind": "nope"})

    @pytest.mark.parametrize("data", [
        {"kind": "periodic", "steps": [[0, 1.5, 1]]},
        {"kind": "explicit", "steps": [[0, 1, "-1"]]},
        {"kind": "seeded_random", "seed": 2.5, "pool": [[0, 1]]},
        {"kind": "seeded_random", "seed": 2, "pool": [[0, 1.0]]},
    ])
    def test_non_integer_schedule_refused(self, data):
        with pytest.raises(ConfigInvalid, match="must be an integer"):
            schedule_from_mapping(data)


class TestVectorConfig:
    def test_pairs_and_ints(self):
        v = vector_from_config([[1, -1], 2, [0, 3]])
        assert v == GaussianIntVector([(1, -1), (2, 0), (0, 3)])

    def test_garbage_rejected(self):
        with pytest.raises(ConfigInvalid):
            vector_from_config([[1, 2, 3]])


class TestConfigReaders:
    """Each reader returns a valid value unchanged and names its path on a bad one."""

    @pytest.mark.parametrize("reader, options, value", [
        ("config_int", {"minimum": 1}, 3),
        ("config_positive", {}, 0.5),
        ("config_positive", {"low": 1e-3, "high": 10.0}, 10),
        ("config_choice", {"choices": (1, -1)}, -1),
        ("config_choice", {"choices": ("n1", "n2")}, "n2"),
        ("config_choice", {"choices": (False, True)}, False),
        ("config_list", {}, [0]),
        ("config_list", {"length": 2}, [0, 1]),
        ("config_path", {}, "a.json"),
        ("config_mapping", {"keys": ("a", "b")}, {"b": 1}),
    ])
    def test_valid_value_passes(self, reader, options, value):
        assert getattr(serialize, reader)(value, "p", **options) == value

    @pytest.mark.parametrize("reader, options, value, path", [
        ("config_int", {}, True, "p"),
        ("config_int", {}, 2.0, "p"),
        ("config_int", {"minimum": 1}, 0, "p"),
        ("config_positive", {}, 0, "p"),
        ("config_positive", {}, float("inf"), "p"),
        ("config_positive", {}, float("nan"), "p"),
        ("config_positive", {}, 10**400, "p"),
        ("config_positive", {}, "1", "p"),
        ("config_positive", {"low": 1e-3, "high": 10.0}, 11, "p"),
        ("config_choice", {"choices": (1, -1)}, True, "p"),
        ("config_choice", {"choices": (1, -1)}, 1.0, "p"),
        ("config_choice", {"choices": ("n1", "n2")}, "n3", "p"),
        ("config_choice", {"choices": (False, True)}, 0, "p"),
        ("config_list", {}, [], "p"),
        ("config_list", {}, (1,), "p"),
        ("config_list", {"length": 2}, [0], "p"),
        ("config_path", {}, "", "p"),
        ("config_path", {}, 3, "p"),
        ("config_mapping", {}, [], "p"),
        ("config_mapping", {"keys": ("a",)}, {"a": 1, "c": 2}, "p.c"),
        ("config_document", {"from_mapping": model_from_mapping}, 3, "p"),
        ("vector_from_config", {"length": 2}, [1, 0, 0], "p"),
        ("vector_from_config", {}, None, "p"),
        ("vector_from_config", {}, [[1, 2, 3]], "p"),
    ])
    def test_bad_value_names_its_path(self, reader, options, value, path):
        with pytest.raises(ConfigInvalid) as info:
            getattr(serialize, reader)(value, "p", **options)
        assert info.value.path == path

    def test_top_level_unknown_key_is_named_alone(self):
        with pytest.raises(ConfigInvalid) as info:
            serialize.config_mapping({"c": 2}, "", ("a",))
        assert info.value.path == "c"

    def test_document_from_file_or_inline(self, tmp_path):
        model = preset_hamiltonian("H2")
        path = tmp_path / "m.json"
        atomic_write_text(path, dumps_json(model_to_mapping(model)))
        for value in (str(path), {"preset": "H2"}):
            assert serialize.config_document(value, "model", model_from_mapping) == model


# =============================================================================
# One read of a dense H, against a two-pass reference reader
# =============================================================================
#
# The reference reads a model the long way: every S and A entry is checked at
# the JSON edge and again in a pass of its own, S and A are checked for
# squareness apart, and symmetry is scanned pair by pair (r <= c, S before A)
# before the rows are compiled.  The one-pass readers must agree with it on
# every input: equal models with equal hashes, or the same exception type,
# with the same first pair for a symmetry fault.


def ref_int_rows(matrix, name):
    rows = tuple(tuple(_exact_int(x) for x in row) for row in matrix)
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DimensionMismatch(f"{name} must be a nonempty square matrix")
    return rows


def ref_build_hamiltonian(s_dense, a_dense):
    s, a = ref_int_rows(s_dense, "S"), ref_int_rows(a_dense, "A")
    dim = len(s)
    if len(a) != dim:
        raise DimensionMismatch(f"S is {dim}x{dim} but A is {len(a)}x{len(a)}")
    for r in range(dim):
        for c in range(r, dim):
            if s[r][c] != s[c][r]:
                raise SymmetryViolation("S", r, c)
            if a[r][c] != -a[c][r]:
                raise SymmetryViolation("A", r, c)
    return HamiltonianModel(tuple(
        tuple((c, re, im) for c, (re, im) in enumerate(zip(sr, ar)) if re or im)
        for sr, ar in zip(s, a)))


def ref_model_from_mapping(data, origin="model"):
    """The S and A route, and the preset route with S and A given."""
    matrices = []
    for key in ("S", "A"):
        matrices.append(tuple(
            tuple(x if type(x) is int else serialize.config_int(x, origin, what=f"{key}[{r}][{c}]")
                  for c, x in enumerate(row))
            for r, row in enumerate(data[key])))
    if "preset" in data:
        model = preset_hamiltonian(data["preset"])
        dense = model.dense_pairs()
        if tuple(matrices) != (tuple(tuple(re for re, _ in row) for row in dense),
                               tuple(tuple(im for _, im in row) for row in dense)):
            raise ConfigInvalid(origin, f"S/A entries disagree with preset {data['preset']!r}")
        return model
    try:
        return ref_build_hamiltonian(*matrices)
    except Exception as exc:
        raise ConfigInvalid(origin, str(exc)) from None


def ref_coupling_model(matrix):
    """The coupling route: rows read as vectors, split into S and A, built."""
    rows = [GaussianIntVector(row).pairs for row in matrix]
    try:
        return ref_build_hamiltonian([[re for re, _ in row] for row in rows],
                                     [[im for _, im in row] for row in rows])
    except SymmetryViolation as exc:
        raise NotSelfAdjoint(str(exc)) from None


def outcome(call, *args):
    """What call(*args) returns, or the exception it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return exc


def assert_same_outcome(got, want, same_message=False):
    assert type(got) is type(want), (got, want)
    if not isinstance(want, Exception):
        assert got == want and hash(got) == hash(want)
    elif isinstance(want, SymmetryViolation):
        assert (got.matrix_name, got.index_pair) == (want.matrix_name, want.index_pair)
    if same_message:
        assert str(got) == str(want)


BAD_ENTRIES = [1.0, 0.5, True, False, "1"]
FAULTS = ["none", "entry", "ragged", "symmetry", "dims"]


def self_adjoint_s_and_a(draw, dim):
    entry = st.integers(-3, 3)
    s = [[0] * dim for _ in range(dim)]
    a = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r, dim):
            s[r][c] = s[c][r] = draw(entry)
            if c > r:
                a[r][c] = draw(entry)
                a[c][r] = -a[r][c]
    return s, a


@st.composite
def dense_input(draw, base=None):
    """(S, A, fault, entry): a self-adjoint S + iA of dim 1-6 with entries in
    [-3, 3] (or `base`), then at most one kind of fault; `entry` names the
    entry of an entry fault, as in S[r][c]."""
    if base is None:
        s, a = self_adjoint_s_and_a(draw, draw(st.integers(1, 6)))
    else:
        s, a = ([list(row) for row in m] for m in base)
    dim = len(s)
    index = st.integers(0, dim - 1)
    fault = draw(st.sampled_from(FAULTS))
    named = None
    if fault == "entry":
        key, r, c = draw(st.sampled_from("SA")), draw(index), draw(index)
        (s if key == "S" else a)[r][c] = draw(st.sampled_from(BAD_ENTRIES))
        named = f"{key}[{r}][{c}]"
    elif fault == "ragged":
        row = draw(st.sampled_from([s, a]))[draw(index)]
        row.append(0) if draw(st.booleans()) else row.pop()
    elif fault == "symmetry":
        for _ in range(draw(st.integers(1, 3))):
            draw(st.sampled_from([s, a]))[draw(index)][draw(index)] = draw(st.integers(-3, 3))
    elif fault == "dims":
        other = [[0] * (dim + 1) for _ in range(dim + 1)]
        if dim > 1 and draw(st.booleans()):
            other = [[0] * (dim - 1) for _ in range(dim - 1)]
        s, a = (other, a) if draw(st.booleans()) else (s, other)
    return s, a, fault, named


@st.composite
def coupling_input(draw):
    """Rows of [re, im] entries of a self-adjoint H of dim 1-6, then at most one
    kind of fault: a bad component or a bad bare entry, a ragged row, or
    entries that break self-adjointness."""
    s, a = self_adjoint_s_and_a(draw, draw(st.integers(1, 6)))
    rows = [[[x, y] for x, y in zip(sr, ar)] for sr, ar in zip(s, a)]
    index = st.integers(0, len(rows) - 1)
    fault = draw(st.sampled_from(FAULTS[:4]))
    if fault == "entry":
        r, c, bad = draw(index), draw(index), draw(st.sampled_from(BAD_ENTRIES))
        part = draw(st.sampled_from([0, 1, None]))
        if part is None:
            rows[r][c] = bad
        else:
            rows[r][c][part] = bad
    elif fault == "ragged":
        row = rows[draw(index)]
        row.append([0, 0]) if draw(st.booleans()) else row.pop()
    elif fault == "symmetry":
        for _ in range(draw(st.integers(1, 3))):
            rows[draw(index)][draw(index)] = [draw(st.integers(-3, 3)), draw(st.integers(-3, 3))]
    return rows, fault


class TestOneReadOfDenseH:
    """build_hamiltonian, model_from_mapping and the coupling.matrix route
    against the two-pass reference, on valid and faulty inputs."""

    @given(dense_input())
    @settings(max_examples=300, deadline=None)
    def test_build_hamiltonian(self, case):
        s, a, fault, named = case
        got = outcome(build_hamiltonian, s, a)
        assert_same_outcome(got, outcome(ref_build_hamiltonian, s, a))
        assert fault in ("none", "symmetry") or isinstance(got, Exception)
        if named:
            assert str(got).startswith(f"{named} must be an integer, got ")

    @given(dense_input())
    @settings(max_examples=300, deadline=None)
    def test_model_from_json(self, case):
        s, a, fault, named = case
        data = json.loads(json.dumps({"S": s, "A": a}))
        got = outcome(model_from_mapping, data)
        want = outcome(ref_model_from_mapping, data)
        symmetry = isinstance(outcome(ref_build_hamiltonian, s, a), SymmetryViolation)
        assert_same_outcome(got, want, same_message=symmetry or fault == "entry")
        if named:
            assert str(got).startswith(f"model: {named} must be an integer, got ")

    @given(st.sampled_from(["H2", "H3", "H4"]).flatmap(
        lambda name: st.tuples(st.just(name), dense_input(base=(
            [[re for re, _ in row] for row in preset_hamiltonian(name).dense_pairs()],
            [[im for _, im in row] for row in preset_hamiltonian(name).dense_pairs()])))))
    @settings(max_examples=200, deadline=None)
    def test_preset_with_matrices(self, case):
        name, (s, a, fault, named) = case
        data = json.loads(json.dumps({"preset": name, "S": s, "A": a}))
        got = outcome(model_from_mapping, data)
        want = outcome(ref_model_from_mapping, data)
        assert_same_outcome(got, want, same_message=True)
        if named:
            assert str(got).startswith(f"model: {named} must be an integer, got ")

    @given(coupling_input())
    @settings(max_examples=300, deadline=None)
    def test_coupling_matrix(self, case):
        rows, fault = case
        got = outcome(TensorHamiltonian.general, rows, (len(rows), 1))
        want = outcome(ref_coupling_model, rows)
        got = got if isinstance(got, Exception) else got.model
        assert_same_outcome(got, want, same_message=isinstance(want, NotSelfAdjoint))
        assert fault in ("none", "symmetry") or isinstance(got, Exception)

    @given(coupling_input())
    @settings(max_examples=150, deadline=None)
    def test_coupling_matrix_config(self, case):
        rows, _ = case
        config = {"coupling": {"matrix": rows, "dims": [len(rows), 1]}}
        got = outcome(cli._resolve_coupling, config)
        want = outcome(lambda: ref_coupling_model(
            [vector_from_config(row, "coupling.matrix") for row in rows]))
        if isinstance(got, Exception):
            assert type(got) is ConfigInvalid and got.path == "coupling.matrix"
            assert isinstance(want, Exception)
            if isinstance(want, ConfigInvalid):
                assert str(got) == str(want)
            elif isinstance(want, NotSelfAdjoint):
                assert str(got) == f"coupling.matrix: {want}"
        else:
            assert_same_outcome(got.model, want)


FIELD_VALUES = ["0", "3", "-2", "-0", "3/2", "-4/2", "10/5", "7/3", "1.5", "-0.25", "2.0"]


def ref_parse_field_csv(text, dims):
    """Each value boxed as a GaussianRational, then read by MultiTimeField."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    staged = {}
    for row in reader:
        n1, n2, k, re, im = row
        staged.setdefault((int(n1), int(n2)), [None] * (dims[0] * dims[1]))[int(k)] = (
            GaussianRational(Fraction(re), Fraction(im)))
    return MultiTimeField(dims, staged)


class TestFieldCsvReadOnce:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_values_and_text_match_reference(self, data):
        dims = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
        points = data.draw(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                   min_size=1, max_size=4))
        value = st.sampled_from(FIELD_VALUES)
        rows = [f"{n1},{n2},{k},{data.draw(value)},{data.draw(value)}"
                for n1, n2 in points for k in range(dims[0] * dims[1])]
        text = "\n".join(["n1,n2,component,re,im", *data.draw(st.permutations(rows))]) + "\n"
        got, want = parse_field_csv(text, dims), ref_parse_field_csv(text, dims)
        assert got.dims == want.dims and got.values.keys() == want.values.keys()
        for point, vec in want.values.items():
            assert [(type(x), x) for pair in got.values[point] for x in pair] == \
                [(type(x), x) for pair in vec for x in pair]
        assert field_csv(got) == field_csv(want)

    def test_second_row_for_a_component_refused(self):
        text = "n1,n2,component,re,im\n0,0,0,1,0\n0,0,0,5,0\n"
        with pytest.raises(ConfigInvalid, match="line 3: point \\(0, 0\\) component 0"):
            parse_field_csv(text, (1, 1))


# =============================================================================
# Exact decimals past Python's int<->str digit limit
# =============================================================================


def decimal(n):
    """Exact decimal of an int by repeated division by 10**18 (test oracle)."""
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while True:
        n, chunk = divmod(n, 10**18)
        chunks.append(chunk)
        if not n:
            break
    return sign + str(chunks[-1]) + "".join(f"{c:018d}" for c in reversed(chunks[:-1]))


@pytest.fixture
def default_digit_limit():
    """Python's default int<->str limit of 4300 digits, whatever the environment
    set; the interpreter's own setting comes back after the test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    assert sys.get_int_max_str_digits() == 4300  # nothing under test changed it
    sys.set_int_max_str_digits(limit)


HUGE = 3**9500  # 15057 bits, 4533 digits
assert HUGE.bit_length() >= 15000


@pytest.mark.usefixtures("default_digit_limit")
class TestDecimalsOfAnyLength:
    def test_the_limit_is_in_force(self):
        with pytest.raises(ValueError):
            str(HUGE)

    def trajectory(self):
        states = (((HUGE, -HUGE - 1), (7, 0)), ((0, -(2**15001) + 5), (HUGE * 3, 1)),
                  ((1, 2), (-3, HUGE)))
        return Trajectory(states, -1, zero_model(2))

    def test_trajectory_csv(self):
        traj = self.trajectory()
        expected = "n,alpha,re,im\n" + "".join(
            ",".join(map(decimal, row)) + "\n" for row in trajectory_rows(traj))
        assert trajectory_csv(traj) == expected

    def test_trajectory_json(self):
        traj = self.trajectory()
        head = {"kind": "evolve", "two_time_correlation": -HUGE}
        text = trajectory_json(head, traj)
        doc = {**head, "rows": [list(row) for row in trajectory_rows(traj)]}
        assert text == dumps_json(doc)
        rows = text[text.index('"rows"'):]
        assert re.findall(r"-?\d+", rows) == [decimal(x) for row in trajectory_rows(traj)
                                              for x in row]
        assert f'"two_time_correlation": {decimal(-HUGE)},' in text

    def test_field_csv_and_its_reader(self):
        big = Fraction(-HUGE, 2**15001)  # in lowest terms
        field = MultiTimeField((1, 2), {(0, 0): [GaussianRational(big, HUGE), GaussianRational(1)],
                                        (2, -1): [GaussianRational(0, -big), 5]})
        text = field_csv(field)
        assert text == (
            "n1,n2,component,re,im\n"
            f"0,0,0,{decimal(big.numerator)}/{decimal(big.denominator)},{decimal(HUGE)}\n"
            "0,0,1,1,0\n"
            f"2,-1,0,0,{decimal(HUGE)}/{decimal(big.denominator)}\n"
            "2,-1,1,5,0\n"
        )
        assert parse_field_csv(text, (1, 2)).values == field.values

    def test_field_reader_still_refuses_a_bad_long_value(self):
        text = f"n1,n2,component,re,im\n0,0,0,{decimal(HUGE)}/0,0\n"
        with pytest.raises(ConfigInvalid, match="bad row"):
            parse_field_csv(text, (1, 1))
        with pytest.raises(ConfigInvalid, match="bad row"):
            parse_field_csv(f"n1,n2,component,re,im\n0,0,0,1/{decimal(HUGE)}x,0\n", (1, 1))

    def test_json_file_with_a_long_integer(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"a": [1, -%s, 2.5], "b": %s}' % (decimal(HUGE), decimal(10**5000)))
        assert serialize.load_json_file(path) == {"a": [1, -HUGE, 2.5], "b": 10**5000}
        path.write_text('{"a": %s' % decimal(HUGE))
        with pytest.raises(ConfigInvalid, match="invalid JSON"):
            serialize.load_json_file(path)
