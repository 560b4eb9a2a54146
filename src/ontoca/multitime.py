"""Bipartite multi-time propagation and its synchronized single-time forms.

Each subsystem carries its own integer time counter, so a bipartite wave
function lives on the (n1, n2) lattice and obeys

    (psi[n1+1,n2] - psi[n1-1,n2]) + (psi[n1,n2+1] - psi[n1,n2-1])
        = -i H psi[n1,n2],

with H acting on the flattened component index.  The equation can be read as
an updating rule in several inequivalent ways (line-by-line, along diagonals
from an extra seed point), and synchronization constraints reduce it to a
single-time second-order or first-order update.

Every product with H runs on the exact kernel of `gaussian`: the compiled
rows of one flattened HamiltonianModel acting on raw (re, im) pairs.  Field
components are ints, or Fractions where an initial field supplied
non-integral values; the kernel is duck-typed, so those stay exact as well.
Values are boxed to GaussianRational only where they leave this module.
Every scalar input is read by GaussianRational._coerce: an int, Fraction,
GaussianInt or GaussianRational, never a bool, float, complex or str.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainTooSmall,
    GeometryMismatch,
    LengthTooShort,
    MissingExtraPoint,
    NotSelfAdjoint,
    SymmetryViolation,
)
from .gaussian import (GaussianIntVector, GaussianRational, HamiltonianModel, Trajectory,
                       _exact_int, _matvec_raw, _rank_raw, _self_adjoint_model, _step_raw)

Point = tuple[int, int]


# =============================================================================
# Raw exact vectors and tensor Hamiltonians
# =============================================================================


def _exact(x):
    """An int where the Fraction x is integral, else x itself."""
    return x.numerator if x.denominator == 1 else x


def _pair(value) -> tuple:
    """One component as a raw (re, im) pair."""
    value = GaussianRational._coerce(value)
    return _exact(value.re), _exact(value.im)


def _raw_vector(values, length: int) -> tuple:
    vec = values.pairs if isinstance(values, GaussianIntVector) else tuple(map(_pair, values))
    if len(vec) != length:
        raise DimensionMismatch(f"vector length {len(vec)} vs expected {length}")
    return vec


def _boxed(vec) -> tuple[GaussianRational, ...]:
    return tuple(GaussianRational(re, im) for re, im in vec)


def _hamiltonian(matrix) -> HamiltonianModel:
    """H = S + iA from rows of Gaussian-integer entries; NotSelfAdjoint unless H = H^dagger."""
    h = [GaussianIntVector(row).pairs for row in matrix]
    try:
        return _self_adjoint_model(h, lambda r, c: h[r][c])
    except SymmetryViolation as exc:
        raise NotSelfAdjoint(str(exc)) from None


@dataclass(frozen=True)
class TensorHamiltonian:
    """Self-adjoint coupling on the flattened multi-component index.

    The factor dims plus one flattened HamiltonianModel, whose compiled rows
    carry every product with H.  The flattening is row-major: component
    (a1, a2, ...) maps to a1 * d2 * d3 * ... + a2 * d3 * ... + ...  (first
    factor most significant).
    """

    dims: tuple[int, ...]
    model: HamiltonianModel

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(_exact_int(d, "dims", 1) for d in self.dims))
        if math.prod(self.dims) != self.model.dim:
            raise DimensionMismatch(
                f"matrix is {self.model.dim}x{self.model.dim} but dims {self.dims} "
                f"need {math.prod(self.dims)}"
            )

    @property
    def total_dim(self) -> int:
        return self.model.dim

    @classmethod
    def general(cls, matrix, dims: Sequence[int]) -> "TensorHamiltonian":
        if not isinstance(matrix, HamiltonianModel):
            matrix = _hamiltonian(matrix)
        return cls(dims=tuple(dims), model=matrix)

    @classmethod
    def separable(cls, *factors) -> "TensorHamiltonian":
        """Sum of single-factor couplings: H1 x 1 x ... + 1 x H2 x ... + ...

        Each flat row is written straight from the factor rows: an
        off-diagonal factor entry changes one digit of the index, so only the
        diagonal entries of several factors meet in one column.  A sum of
        self-adjoint terms needs no second symmetry check.
        """
        if len(factors) < 2:
            raise ValueError("separable coupling needs at least two factors")
        models = [f if isinstance(f, HamiltonianModel) else _hamiltonian(f) for f in factors]
        dims = tuple(m.dim for m in models)
        total = math.prod(dims)
        strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
        rows = []
        for r in range(total):
            entries = {}
            for m, stride in zip(models, strides):
                digit = r // stride % m.dim
                for c, re, im in m.h_rows[digit]:
                    col = r + (c - digit) * stride
                    sre, sim = entries.get(col, (0, 0))
                    entries[col] = (sre + re, sim + im)
            rows.append(tuple((c, re, im) for c, (re, im) in sorted(entries.items()) if re or im))
        return cls(dims=dims, model=HamiltonianModel(tuple(rows)))

    def apply(self, vec) -> tuple[GaussianRational, ...]:
        return _boxed(_matvec_raw(self.model.h_rows, _raw_vector(vec, self.total_dim)))

    def as_complex_array(self) -> np.ndarray:
        return self.model.as_complex_array()


# =============================================================================
# Multi-time fields
# =============================================================================


@dataclass(frozen=True)
class MultiTimeField:
    """Values of the bipartite wave function on a finite set of (n1, n2) points.

    `values` holds each point's components as raw (re, im) pairs; `get`
    boxes them.
    """

    dims: tuple[int, int]
    values: Mapping[Point, tuple] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", {
            (_exact_int(n1, "point"), _exact_int(n2, "point")):
                _raw_vector(vec, self.component_length)
            for (n1, n2), vec in dict(self.values).items()})

    @classmethod
    def _of(cls, dims, values: dict) -> "MultiTimeField":
        """A field over raw values that are already checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "dims", dims)
        object.__setattr__(out, "values", values)
        return out

    @property
    def component_length(self) -> int:
        return self.dims[0] * self.dims[1]

    def points(self) -> list[Point]:
        return sorted(self.values)

    def get(self, point: Point) -> tuple[GaussianRational, ...]:
        return _boxed(self.values[point])

    def __contains__(self, point: Point) -> bool:
        return tuple(point) in self.values

    def union(self, other: "MultiTimeField") -> "MultiTimeField":
        if other.dims != self.dims:
            raise DimensionMismatch(f"field dims differ: {self.dims} vs {other.dims}")
        return MultiTimeField._of(self.dims, {**self.values, **other.values})

    def restricted(self, points: Iterable[Point]) -> "MultiTimeField":
        return MultiTimeField._of(self.dims, {p: self.values[p] for p in points})


def _coupling_rows(h: TensorHamiltonian, field_: MultiTimeField) -> tuple:
    if h.total_dim != field_.component_length:
        raise DimensionMismatch(
            f"coupling dim {h.total_dim} vs field components {field_.component_length}"
        )
    return h.model.h_rows


def product_field(traj1: Trajectory, traj2: Trajectory) -> MultiTimeField:
    """Field psi[n1,n2] = phi1[n1] (x) phi2[n2] built from two single-system runs."""
    d1, d2 = traj1.model.dim, traj2.model.dim
    second_states = list(enumerate(traj2.raw_states, traj2.start_index))
    values = {}
    for n1, a in enumerate(traj1.raw_states, traj1.start_index):
        for n2, b in second_states:
            values[(n1, n2)] = tuple(
                (ar * br - ai * bi, ar * bi + ai * br) for ar, ai in a for br, bi in b
            )
    return MultiTimeField._of((d1, d2), values)


def _stencil(rows, center, ups, downs):
    """The two-time equation at a centre: `center` is the raw vector psi[n1,n2],
    `ups` the pair psi[n1+1,n2], psi[n1,n2+1] and `downs` psi[n1-1,n2], psi[n1,n2-1].

    Returns the residual ups[0] - downs[0] + ups[1] - downs[1] + i H center,
    zero on solutions.  Given one neighbour as None, the unknown, returns
    instead the value there that makes the residual zero: minus the unknown's
    sign times the residual with it read as zero.
    """
    sign = -1
    if None in ups:  # minus the residual: the two sides trade places, i H psi changes sign
        ups, downs, sign = downs, ups, 1
    (a1, a2), (b1, b2), zero = ups, downs, repeat((0, 0))
    base = [(a1r + a2r - b1r - b2r, a1i + a2i - b1i - b2i)
            for (a1r, a1i), (a2r, a2i), (b1r, b1i), (b2r, b2i)
            in zip(a1, a2, b1 or zero, b2 or zero)]  # the unknown reads as zero
    return _step_raw(rows, base, center, sign)


def equation_residual(
    field_: MultiTimeField, h: TensorHamiltonian, point: Point
) -> tuple[GaussianRational, ...]:
    """Residual of the two-time equation at `point`; zero on solutions."""
    n1, n2 = point
    needed = [(n1 + 1, n2), (n1 - 1, n2), (n1, n2 + 1), (n1, n2 - 1), (n1, n2)]
    missing = [p for p in needed if p not in field_]
    if missing:
        raise GeometryMismatch(f"stencil at {point} missing points {missing}")
    up1, down1, up2, down2, center = (field_.values[p] for p in needed)
    return _boxed(_stencil(_coupling_rows(h, field_), center, (up1, up2), (down1, down2)))


def interior_points(field_: MultiTimeField) -> list[Point]:
    """Points whose full 5-point stencil lies inside the field."""
    pts = set(field_.values)
    return sorted(
        (n1, n2)
        for (n1, n2) in pts
        if {(n1 + 1, n2), (n1 - 1, n2), (n1, n2 + 1), (n1, n2 - 1)} <= pts
    )


def _extent(line: dict[int, tuple]) -> tuple[int, int]:
    lo, hi = min(line), max(line)
    if set(line) != set(range(lo, hi + 1)):
        raise GeometryMismatch("line has gaps; expected a contiguous extent")
    return lo, hi


# =============================================================================
# Line propagation
# =============================================================================


def line_pair(
    field_: MultiTimeField, axis: str = "n1", periodic: bool = False
) -> dict[int, dict[int, tuple]]:
    """The field's lines perpendicular to `axis`, {coordinate: {transverse
    coordinate: raw vector}}, checked for the geometry that line propagation
    needs: exactly two adjacent lines, each without gaps, and of equal extent
    when periodic.  Raises GeometryMismatch otherwise."""
    if axis not in ("n1", "n2"):
        raise ValueError(f"axis must be 'n1' or 'n2', got {axis!r}")
    axis_idx = 0 if axis == "n1" else 1
    lines: dict[int, dict[int, tuple]] = {}
    for point, vec in field_.values.items():
        lines.setdefault(point[axis_idx], {})[point[1 - axis_idx]] = vec
    if len(lines) != 2:
        raise GeometryMismatch(f"expected exactly 2 lines, found {sorted(lines)}")
    lo_coord, hi_coord = sorted(lines)
    if hi_coord - lo_coord != 1:
        raise GeometryMismatch(f"lines {lo_coord} and {hi_coord} are not adjacent")
    extents = _extent(lines[lo_coord]), _extent(lines[hi_coord])  # each without gaps
    if periodic and extents[0] != extents[1]:
        raise GeometryMismatch("periodic propagation needs lines of equal extent")
    return lines


def propagate_line(
    field_: MultiTimeField,
    h: TensorHamiltonian,
    axis: str = "n1",
    direction: int = 1,
    periodic: bool = False,
) -> MultiTimeField:
    """Advance two adjacent full lines perpendicular to `axis` by one step.

    Each new point is the forward neighbour that solves the two-time equation
    at its centre on the nearer line, so the new line loses one point at each
    end (the causal domain shrinks); no boundary values are invented.  With
    periodic=True the centre line is padded with its two far ends, so the
    transverse coordinate wraps and the line length is preserved.  Returns
    the two newest lines, ready for the next step.
    """
    if _exact_int(direction, "direction") not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    rows = _coupling_rows(h, field_)
    lines = line_pair(field_, axis, periodic)
    axis_idx = 0 if axis == "n1" else 1

    center_coord = max(lines) if direction == 1 else min(lines)
    center, rear = lines[center_coord], lines[center_coord - direction]
    new_coord = center_coord + direction

    around = center
    if periodic:
        c_lo, c_hi = min(center), max(center)
        around = {c_lo - 1: center[c_hi], **center, c_hi + 1: center[c_lo]}
    new_line = {}
    for o, behind in rear.items():
        if o - 1 in around and o + 1 in around:
            # the axis pair goes first (the stencil is symmetric in n1 and n2);
            # its forward point is the unknown
            up, down = (None, behind) if direction == 1 else (behind, None)
            new_line[o] = tuple(_stencil(rows, center[o], (up, around[o + 1]),
                                         (down, around[o - 1])))
    if not new_line:
        raise DomainTooSmall(
            f"no point on line {new_coord} has a complete stencil; "
            f"need a center line of length >= 3"
        )
    values = {p: vec for p, vec in field_.values.items() if p[axis_idx] == center_coord}
    values.update({(new_coord, o) if axis_idx == 0 else (o, new_coord): vec
                   for o, vec in new_line.items()})
    return MultiTimeField._of(field_.dims, values)


# =============================================================================
# Diagonal propagation
# =============================================================================


def propagate_diagonal(
    field_: MultiTimeField,
    h: TensorHamiltonian,
    extra_point: Optional[Point],
    extra_value,
) -> MultiTimeField:
    """Determine the next anti-diagonal from two full ones plus one seed point.

    With data on the anti-diagonals n1 + n2 = s - 1 and s, the two-time
    equation at a centre on diagonal s ties its two upper neighbours, both on
    diagonal s + 1.  Walking out from the seed in both directions, each centre
    whose lower neighbours are known solves for the next new point.
    Different seed values give different (equally valid) continuations; the
    updating rule is not unique.  Returns diagonal s plus the determined
    points on s + 1.
    """
    rows = _coupling_rows(h, field_)
    diagonals: dict[int, dict[int, tuple]] = {}
    for (n1, n2), vec in field_.values.items():
        diagonals.setdefault(n1 + n2, {})[n1] = vec
    if len(diagonals) != 2:
        raise GeometryMismatch(
            f"expected exactly 2 anti-diagonals, found n1+n2 in {sorted(diagonals)}"
        )
    s_lo, s_hi = sorted(diagonals)
    if s_hi - s_lo != 1:
        raise GeometryMismatch(f"diagonals {s_lo} and {s_hi} are not adjacent")
    lower, upper = diagonals[s_lo], diagonals[s_hi]
    _extent(lower)
    _extent(upper)

    if extra_point is None:
        raise MissingExtraPoint("a seed point on the next diagonal is required")
    e1, e2 = extra_point
    if e1 + e2 != s_hi + 1:
        raise MissingExtraPoint(
            f"seed point {extra_point} is not on diagonal n1+n2 = {s_hi + 1}"
        )

    # the new diagonal by n1; each centre (c, s - c) has its upper neighbours
    # at n1 = c + 1 and c, and the one not yet known is the unknown
    new_diag = {e1: _raw_vector(extra_value, h.total_dim)}
    for step in (-1, 1):
        a = e1
        while (c := min(a, a + step)) in upper and c - 1 in lower and c in lower:
            a += step
            new_diag[a] = tuple(_stencil(rows, upper[c], (new_diag.get(c + 1), new_diag.get(c)),
                                         (lower[c - 1], lower[c])))

    values = {(n1, s_hi - n1): vec for n1, vec in upper.items()}
    values.update({(n1, s_hi + 1 - n1): vec for n1, vec in new_diag.items()})
    return MultiTimeField._of(field_.dims, values)


# =============================================================================
# Synchronized single-time updates
# =============================================================================


def synchronized_states(start, h: TensorHamiltonian, steps: int) -> list[tuple]:
    """The `start` states and `steps` more, as raw vectors: from two states by the
    second-order update next = prev - i H curr, from one by psi -> -i H psi."""
    states = [_raw_vector(v, h.total_dim) for v in start]
    zero = ((0, 0),) * h.total_dim
    for _ in range(steps):
        base = states[-2] if len(start) == 2 else zero
        states.append(tuple(_step_raw(h.model.h_rows, base, states[-1])))
    return states


def sync_first_order(state, h: TensorHamiltonian, steps: int) -> tuple[tuple, ...]:
    """Iterate the fully synchronized update psi -> -i H psi; returns steps + 1 states.

    One effective time variable remains.  The backward-synchronized form
    (the previous state equals -i H times the current one) generates the
    same states at decreasing indices.
    """
    _exact_int(steps, "steps", 1)
    return tuple(_boxed(v) for v in synchronized_states((state,), h, steps))


def norm_sq_exact(vec) -> GaussianRational:
    return GaussianRational(sum(re * re + im * im for re, im in map(_pair, vec)))


# =============================================================================
# Diagnostics
# =============================================================================


def schmidt_rank(state, dims: tuple[int, int]) -> int:
    """Rank of the d1 x d2 reshaped state, exact; 1 means uncorrelated.  The
    components are scaled by their common denominator to Gaussian integers,
    whose rank `_rank_raw` counts."""
    d1, d2 = dims
    vec = [GaussianRational._coerce(c) for c in state]
    if len(vec) != d1 * d2:
        raise DimensionMismatch(f"state length {len(vec)} vs dims {dims}")
    scale = math.lcm(*(part.denominator for c in vec for part in (c.re, c.im)))
    pairs = [((c.re * scale).numerator, (c.im * scale).numerator) for c in vec]
    return _rank_raw([pairs[r * d2:(r + 1) * d2] for r in range(d1)])


@dataclass(frozen=True)
class LeibnizReport:
    modified_residuals: tuple[GaussianRational, ...]
    naive_residuals: tuple[GaussianRational, ...]

    @property
    def modified_exact(self) -> bool:
        return all(r.is_zero() for r in self.modified_residuals)

    @property
    def naive_exact(self) -> bool:
        return all(r.is_zero() for r in self.naive_residuals)


def leibniz_identity_check(phi1, phi2) -> LeibnizReport:
    """Check the product rule of the symmetric difference f' = f[n+1] - f[n-1].

    The corrected rule replaces each undifferenced factor by the average of
    its two neighbours,

        (f g)'[n] = f'[n] (g[n+1]+g[n-1])/2 + (f[n+1]+f[n-1])/2 g'[n],

    and holds with exactly zero residual for arbitrary sequences (rational
    arithmetic, so the /2 is exact).  The naive rule f' g + f g' generally
    does not; its residual is reported alongside.
    """
    p1 = [GaussianRational._coerce(x) for x in phi1]
    p2 = [GaussianRational._coerce(x) for x in phi2]
    if len(p1) != len(p2):
        raise DimensionMismatch(f"sequence lengths differ: {len(p1)} vs {len(p2)}")
    if len(p1) < 3:
        raise LengthTooShort(f"need at least 3 samples, got {len(p1)}")
    modified = []
    naive = []
    for n in range(1, len(p1) - 1):
        lhs = p1[n + 1] * p2[n + 1] - p1[n - 1] * p2[n - 1]
        d1 = p1[n + 1] - p1[n - 1]
        d2 = p2[n + 1] - p2[n - 1]
        avg1 = (p1[n + 1] + p1[n - 1]) / 2
        avg2 = (p2[n + 1] + p2[n - 1]) / 2
        modified.append(lhs - (d1 * avg2 + avg1 * d2))
        naive.append(lhs - (d1 * p2[n] + p1[n] * d2))
    return LeibnizReport(
        modified_residuals=tuple(modified),
        naive_residuals=tuple(naive),
    )
