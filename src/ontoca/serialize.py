"""File schemas and deterministic emission of reports and trajectories.

All emitters are byte-deterministic: dictionary insertion order is the field
order, floats are printed with 17 significant digits, integers in exact
decimal, and exact rationals as fraction strings that round-trip through
Fraction().  Integers of any length are written and read in full, past
Python's default limit of 4300 digits for int<->str conversion, and that
interpreter-wide limit is left as it is.  Files are written atomically (temp
file + rename).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from .errors import ConfigInvalid, OntocaError
from .gaussian import GaussianIntVector, HamiltonianModel, Trajectory, build_hamiltonian
from .ising import GraphTopology, Schedule
from .multitime import MultiTimeField, _exact
from .ontology import preset_hamiltonian, preset_names

SCHEMA_VERSION = 1
JSON_INDENT = 2


# =============================================================================
# Exact decimals of any length
# =============================================================================


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift Python's limit on int<->str conversion (4300 decimal digits by
    default, where the interpreter has one) and restore it on exit.

    Exact coefficients grow without bound, and a config may hold long ones, so
    every int is written and read in full.  The limit is interpreter-wide, and
    callers may share the process, so it is lifted for one conversion only.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# =============================================================================
# Deterministic JSON
# =============================================================================


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize {x}")
    return format(float(x), ".17g")


def dumps_json(obj) -> str:
    out: list[str] = []
    with _int_digits_unlimited():
        _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list[str], level: int):
    if type(obj).__module__ == "numpy":
        obj = obj.item()
    pad = " " * (JSON_INDENT * (level + 1))
    closing = " " * (JSON_INDENT * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            out.append(pad + json.dumps(key) + ": ")
            _emit(value, out, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for k, value in enumerate(obj):
            out.append(pad)
            _emit(value, out, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def atomic_write_text(path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# =============================================================================
# CSV emitters
# =============================================================================


def _csv_text(header: list[str], rows) -> str:
    """The header and each row (a tuple) as comma-joined str fields.

    No field needs quoting: each is an int, an exact fraction, a bit string
    (empty when there are no edges) or a format_float string.
    """
    line = ",".join(["%s"] * len(header)) + "\n"
    with _int_digits_unlimited():
        return line % tuple(header) + "".join([line % row for row in rows])


def trajectory_rows(traj: Trajectory) -> list[tuple[int, int, int, int]]:
    return [(traj.start_index + k, alpha, re, im)
            for k, state in enumerate(traj.raw_states) for alpha, (re, im) in enumerate(state)]


def trajectory_csv(traj: Trajectory) -> str:
    return _csv_text(["n", "alpha", "re", "im"], trajectory_rows(traj))


def trajectory_json(head: dict, traj: Trajectory) -> str:
    """dumps_json(head | {"rows": rows}) for a nonempty `head` and the rows
    [n, alpha, re, im] of `trajectory_rows`, each row written by one %d template."""
    pad = " " * JSON_INDENT
    row = f"{pad * 2}[\n{pad * 3}%d,\n{pad * 3}%d,\n{pad * 3}%d,\n{pad * 3}%d\n{pad * 2}]"
    with _int_digits_unlimited():
        rows = ",\n".join([row % fields for fields in trajectory_rows(traj)])
    body = f"[\n{rows}\n{pad}]" if rows else "[]"
    return f'{dumps_json(head)[:-3]},\n{pad}"rows": {body}\n}}\n'


def field_csv(field: MultiTimeField) -> str:
    # the raw components are ints or Fractions, printed as the exact fractions they are
    rows = [(n1, n2, k, re, im) for n1, n2 in field.points()
            for k, (re, im) in enumerate(field.values[n1, n2])]
    return _csv_text(["n1", "n2", "component", "re", "im"], rows)


def parse_field_csv(text: str, dims: tuple[int, int], origin: str = "field csv") -> MultiTimeField:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["n1", "n2", "component", "re", "im"]:
        raise ConfigInvalid(origin, f"unexpected header {header}")
    length = dims[0] * dims[1]
    staged: dict[tuple[int, int], list] = {}
    for line, row in enumerate(reader, 2):
        if not row:
            continue
        try:
            with _int_digits_unlimited():
                n1, n2, k, re, im = row
                point, k = (int(n1), int(n2)), int(k)
                value = (_exact(Fraction(re)), _exact(Fraction(im)))
        except (ValueError, ZeroDivisionError):
            raise ConfigInvalid(origin, f"line {line}: bad row {row}") from None
        vec = staged.setdefault(point, [None] * length)
        if not 0 <= k < length:
            raise ConfigInvalid(origin, f"component index {k} out of range for dims {dims}")
        if vec[k] is not None:
            raise ConfigInvalid(origin, f"line {line}: point {point} component {k} given twice")
        vec[k] = value
    for point, vec in staged.items():
        if any(v is None for v in vec):
            raise ConfigInvalid(origin, f"point {point} is missing components")
    return MultiTimeField._of(dims, {point: tuple(vec) for point, vec in staged.items()})


def _bit_string(bits: int, length: int) -> str:
    """`length` low bits of `bits` as '0'/'1' characters, bit k as character k."""
    # a sentinel 1 above the top bit keeps the leading zeros, and length 0 gives ""
    return format(bits & ((1 << length) - 1) | 1 << length, "b")[:0:-1]


def spin_trajectory_csv(run, n_vertices: int, n_edges: int = 0) -> str:
    """An Ising orbit of (basis index, phase exponent) pairs as rows of
    (step, vertex_bits, edge_bits, phase_exponent).  Bit k of an index is
    character k of vertex_bits and bit n_vertices + e character e of
    edge_bits; an index with bits beyond those raises ValueError."""
    bits = n_vertices + n_edges
    rows = []
    for n, (index, phase) in enumerate(run):
        if not 0 <= index < 1 << bits:
            raise ValueError(f"basis index {index} out of range for {bits} bits")
        rows.append((n, _bit_string(index, n_vertices),
                     _bit_string(index >> n_vertices, n_edges), phase))
    return _csv_text(["step", "vertex_bits", "edge_bits", "phase_exponent"], rows)


def dispersion_csv(rows) -> str:
    formatted = [
        (format_float(lam), format_float(re_o), format_float(im_o))
        for lam, re_o, im_o in rows
    ]
    return _csv_text(["lambda", "re_omega", "im_omega"], formatted)


# =============================================================================
# Config readers
# =============================================================================
#
# Each reader takes a config value and the path that names it, and returns the
# value or raises ConfigInvalid(path, ...).  Nothing is coerced: a float, bool
# or string is never read as an integer, and a number never as a string.


def config_int(value, path: str, minimum: int | None = None, what: str = "value") -> int:
    """A JSON integer, at least `minimum` when one is given."""
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigInvalid(path, f"{what} must be an integer{bound}, got {value!r}")
    return value


def config_positive(value, path: str, low: float = 0.0,
                    high: float = sys.float_info.max) -> float:
    """A JSON number in (low, high]; by default any positive finite one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not low < value <= high:
        span = ("a positive finite number" if (low, high) == (0.0, sys.float_info.max)
                else f"a number in ({low:g}, {high:g}]")
        raise ConfigInvalid(path, f"expected {span}, got {value!r}")
    return float(value)


def config_choice(value, path: str, choices: tuple):
    """One of `choices`, of the same JSON type (`true` is not `1`, nor `1.0`)."""
    if not any(type(value) is type(c) and value == c for c in choices):
        listed = ", ".join(json.dumps(c) for c in choices)
        raise ConfigInvalid(path, f"expected one of {listed}, got {value!r}")
    return value


def config_list(value, path: str, length: int | None = None) -> list:
    """A nonempty JSON list, of exactly `length` entries when one is given."""
    fits = isinstance(value, list) and (len(value) > 0 if length is None else len(value) == length)
    if not fits:
        size = "nonempty" if length is None else f"{length}-entry"
        raise ConfigInvalid(path, f"expected a {size} list, got {value!r}")
    return value


def config_path(value, path: str) -> str:
    """A nonempty string naming a file."""
    if not isinstance(value, str) or not value:
        raise ConfigInvalid(path, f"expected a file path, got {value!r}")
    return value


def config_mapping(value, path: str, keys: tuple | None = None) -> dict:
    """A JSON object; with `keys`, any other key is refused, named by its own path."""
    if not isinstance(value, dict):
        raise ConfigInvalid(path, f"expected an object, got {value!r}")
    if keys is not None:
        for key in value:
            if key not in keys:
                where = f"{path}.{key}" if path else key
                raise ConfigInvalid(where, f"unknown key; expected one of {', '.join(keys)}")
    return value


def config_document(value, path: str, from_mapping):
    """A schema given inline as an object or as the path of a JSON file holding one."""
    if isinstance(value, str):
        return from_mapping(load_json_file(value), value)
    if isinstance(value, dict):
        return from_mapping(value, path)
    raise ConfigInvalid(path, f"expected an object or a file path, got {value!r}")


def vector_from_config(entry, origin: str = "vector", length: int | None = None) -> GaussianIntVector:
    """Vectors are lists of components; each component is [re, im] or a bare int.

    With `length`, a vector of any other length is refused.
    """
    if not isinstance(entry, (list, tuple)):
        raise ConfigInvalid(origin, f"expected a list of components, got {entry!r}")
    if length is not None and len(entry) != length:
        raise ConfigInvalid(origin, f"expected {length} components, got {len(entry)}")
    if not entry:
        raise ConfigInvalid(origin, "expected at least one component")
    pairs = []
    for k, item in enumerate(entry):
        pair = item if isinstance(item, (list, tuple)) else (item, 0)
        if len(pair) != 2:
            raise ConfigInvalid(origin, f"bad vector entry [{k}]: expected an integer or [re, im]")
        re, im = pair  # a plain int skips the reader call: a coupling row has dim entries
        re = re if type(re) is int else config_int(re, origin, what=f"[{k}] re")
        im = im if type(im) is int else config_int(im, origin, what=f"[{k}] im")
        pairs.append((re, im))
    return GaussianIntVector._of(pairs)


# =============================================================================
# Input file schemas
# =============================================================================


def read_text_file(path) -> str:
    """The text of a file named in a config; a missing or unreadable file is a
    config error naming `path` as given."""
    if not os.path.exists(path):
        raise ConfigInvalid(str(path), "file does not exist")
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable or not text
        raise ConfigInvalid(str(path), f"cannot read: {exc}") from None


def load_json_file(path) -> dict:
    """A JSON object from a file; its integers are read in full at any length."""
    path = Path(path)
    text = read_text_file(path)
    try:
        with _int_digits_unlimited():
            data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigInvalid(str(path), "top level must be an object")
    return data


def model_from_mapping(data: dict, origin: str = "model") -> HamiltonianModel:
    """Model schema: {dim, S: rows, A: rows} and/or {preset: name}, and schema_version.
    Each S and A entry is read once, by `build_hamiltonian`."""
    config_mapping(data, origin, ("schema_version", "dim", "preset", "S", "A"))
    if "schema_version" in data:
        config_choice(data["schema_version"], f"{origin}.schema_version", (SCHEMA_VERSION,))
    preset = None
    if "preset" in data:
        name = data["preset"]
        if name not in preset_names():
            raise ConfigInvalid(origin, f"unknown preset {name!r}; available {preset_names()}")
        preset = model = preset_hamiltonian(name)
    if preset is None or "S" in data or "A" in data:
        for key in ("S", "A"):
            rows = data.get(key)
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise ConfigInvalid(origin, f"matrix {key!r} must be given as a list of rows")
        try:
            model = build_hamiltonian(data["S"], data["A"])
        except (TypeError, OntocaError) as exc:
            # given with a preset, a matrix of the wrong shape or symmetry disagrees with it
            if preset is None or isinstance(exc, TypeError):
                raise ConfigInvalid(origin, str(exc)) from None
            model = None
        if preset is not None and model != preset:
            raise ConfigInvalid(origin, f"S/A entries disagree with preset {name!r}")
    if "dim" in data and config_int(data["dim"], origin, what="dim") != model.dim:
        raise ConfigInvalid(origin, f"declared dim {data['dim']} but the model has dim {model.dim}")
    return model


def model_to_mapping(model: HamiltonianModel) -> dict:
    dense = model.dense_pairs()
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": model.dim,
        "S": [[re for re, _ in row] for row in dense],
        "A": [[im for _, im in row] for row in dense],
    }


def topology_from_mapping(data: dict, origin: str = "topology") -> GraphTopology:
    """Topology schema: {n_vertices, edges: [[i, j], ...]} or {preset, n_vertices}."""
    config_mapping(data, origin, ("preset", "n_vertices") if "preset" in data
                   else ("n_vertices", "edges"))
    try:
        n_vertices = config_int(data["n_vertices"], origin, what="n_vertices")
        if "preset" in data:
            preset = data["preset"]
            if preset not in ("fully_connected", "ring", "path"):
                raise ConfigInvalid(origin, f"unknown topology preset {preset!r}")
            return getattr(GraphTopology, preset)(n_vertices)
        edges = tuple(
            (config_int(i, origin, what=f"edges[{k}]"), config_int(j, origin, what=f"edges[{k}]"))
            for k, (i, j) in enumerate(data["edges"])
        )
        return GraphTopology(n_vertices=n_vertices, edges=edges)
    except ConfigInvalid:
        raise
    except Exception as exc:
        raise ConfigInvalid(origin, str(exc)) from None


def schedule_from_mapping(data: dict, origin: str = "schedule") -> Schedule:
    """Schedule schema: {kind, steps: [[i, j, sign], ...]} or {kind, seed, pool}."""
    try:
        kind = data["kind"]
        if kind in ("periodic", "explicit"):
            config_mapping(data, origin, ("kind", "steps"))
            steps = [tuple(config_int(x, origin, what=f"steps[{k}]") for x in entry)
                     for k, entry in enumerate(data["steps"])]
            return Schedule.periodic(steps) if kind == "periodic" else Schedule.explicit(steps)
        if kind == "seeded_random":
            config_mapping(data, origin, ("kind", "seed", "pool"))
            pool = [tuple(config_int(x, origin, what=f"pool[{k}]") for x in e)
                    for k, e in enumerate(data["pool"])]
            return Schedule.seeded_random(config_int(data["seed"], origin, what="seed"), pool)
        raise ConfigInvalid(origin, f"unknown schedule kind {kind!r}")
    except ConfigInvalid:
        raise
    except Exception as exc:
        raise ConfigInvalid(origin, str(exc)) from None
