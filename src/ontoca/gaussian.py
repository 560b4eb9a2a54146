"""Exact complex-integer states and the second-order automaton update rule.

States are vectors of Gaussian integers (complex numbers with integer real
and imaginary parts).  The update rule is the second-order recursion

    psi[n+1] = psi[n-1] - i * H * psi[n],        H = S + iA,

with S symmetric and A antisymmetric integer matrices, so H is self-adjoint
and every step is exact integer arithmetic.  No rounding happens anywhere in
this module.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, SymmetryViolation


# =============================================================================
# Exact complex scalars
# =============================================================================


def _exact_int(x, name="a Gaussian-integer component", minimum=None) -> int:
    """The one input rule for integer arguments: an exact int, at least
    `minimum` when one is given.  The error names the argument.

    bool is an int subclass and is refused (TypeError), as are float,
    complex, str and numpy integers; a value below `minimum` is a ValueError.
    """
    if type(x) is not int:
        raise TypeError(f"{name} must be an int, got {x!r}")
    if minimum is not None and x < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {x}")
    return x


def _exact_rational(x) -> Fraction:
    """The one input rule for Gaussian-rational components: an exact int or
    Fraction, stored as a Fraction.  bool, float, complex and str are refused."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    raise TypeError(f"a Gaussian-rational component must be an int or a Fraction, got {x!r}")


class _GaussianScalar:
    """The complex arithmetic shared by GaussianInt and GaussianRational.

    Each subclass's __init__ applies its component rule to re and im.  An
    operation between the two classes, in either order, gives a
    GaussianRational; any other operand is read by the class's `_coerce`.
    """

    __slots__ = ("re", "im")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _coerce(cls, value):
        """`value` as this class: a Gaussian scalar, or a bare component."""
        if type(value) is cls:
            return value
        if isinstance(value, _GaussianScalar):
            return cls(value.re, value.im)
        return cls(value, 0)

    def _operand(self, other):
        """`other` as a scalar, and the class of the result."""
        if isinstance(other, _GaussianScalar):
            return other, GaussianRational if type(other) is GaussianRational else type(self)
        return self._coerce(other), type(self)

    def __add__(self, other):
        other, cls = self._operand(other)
        return cls(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other, cls = self._operand(other)
        return cls(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other, cls = self._operand(other)
        return cls(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other, cls = self._operand(other)
        return cls(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(-self.re, -self.im)

    def times_i(self):
        """Multiply by i: (re, im) -> (-im, re)."""
        return type(self)(-self.im, self.re)

    def times_minus_i(self):
        return type(self)(self.im, -self.re)

    def conjugate(self):
        return type(self)(self.re, -self.im)

    def norm_sq(self):
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        try:
            other, _ = self._operand(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal to the hash of the int or Fraction that a real scalar equals
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re, self.im)

    def __repr__(self):
        return f"{type(self).__name__}({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_exact_complex(self.re, self.im)


class GaussianInt(_GaussianScalar):
    """Complex number with arbitrary-precision integer components."""

    __slots__ = ()

    def __init__(self, re: int = 0, im: int = 0):
        object.__setattr__(self, "re", _exact_int(re))
        object.__setattr__(self, "im", _exact_int(im))


class GaussianRational(_GaussianScalar):
    """Complex number with exact rational components (used for rays and phases)."""

    __slots__ = ()

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _exact_rational(re))
        object.__setattr__(self, "im", _exact_rational(im))

    def __truediv__(self, other):
        other = self._coerce(other)
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self


def format_exact_complex(re, im) -> str:
    """Compact text form: '0', '1', '-i', '1-1i', '1/2+3/2i', ..."""
    if im == 0:
        return str(re)
    imag = f"{im}i" if abs(im) != 1 else ("i" if im > 0 else "-i")
    if re == 0:
        return imag
    sign = "+" if im > 0 and not imag.startswith("-") else ""
    return f"{re}{sign}{imag}"


# =============================================================================
# State vectors
# =============================================================================


class GaussianIntVector:
    """Fixed-length vector of Gaussian integers; one component per degree of freedom.

    It holds `pairs`, each component's raw (re, im) ints: what the stepping
    kernel reads and returns.  A component is boxed to a GaussianInt only
    when read through `components`, iteration or indexing.
    """

    __slots__ = ("pairs",)

    def __init__(self, components: Iterable):
        if isinstance(components, GaussianIntVector):
            pairs = components.pairs
        else:
            pairs = tuple(map(_component_pair, components))
        if not pairs:
            raise ValueError("vector must have at least one component")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _of(cls, pairs) -> "GaussianIntVector":
        """Wrap (re, im) int pairs as the kernel makes them, without checks."""
        v = object.__new__(cls)
        object.__setattr__(v, "pairs", tuple(pairs))
        return v

    def __setattr__(self, name, value):
        raise AttributeError("GaussianIntVector is immutable")

    @property
    def components(self) -> tuple[GaussianInt, ...]:
        return tuple(itertools.starmap(GaussianInt, self.pairs))

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return itertools.starmap(GaussianInt, self.pairs)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return tuple(itertools.starmap(GaussianInt, self.pairs[idx]))
        return GaussianInt(*self.pairs[idx])

    def __eq__(self, other):
        if not isinstance(other, GaussianIntVector):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __add__(self, other):
        return GaussianIntVector._of(
            (a + c, b + d) for (a, b), (c, d) in zip(self.pairs, self._pairs_of(other))
        )

    def __sub__(self, other):
        return GaussianIntVector._of(
            (a - c, b - d) for (a, b), (c, d) in zip(self.pairs, self._pairs_of(other))
        )

    def __neg__(self):
        return GaussianIntVector._of((-a, -b) for a, b in self.pairs)

    def scaled(self, scalar) -> "GaussianIntVector":
        scalar = GaussianInt._coerce(scalar)
        sre, sim = scalar.re, scalar.im
        return GaussianIntVector._of((sre * a - sim * b, sre * b + sim * a) for a, b in self.pairs)

    def norm_sq(self) -> int:
        return sum(a * a + b * b for a, b in self.pairs)

    def is_zero(self) -> bool:
        return not any(a or b for a, b in self.pairs)

    def as_complex(self) -> list[complex]:
        return [complex(a, b) for a, b in self.pairs]

    @staticmethod
    def basis(dim: int, index: int) -> "GaussianIntVector":
        dim = _exact_int(dim, "dim", 1)
        if not 0 <= _exact_int(index, "index") < dim:
            raise ValueError(f"index must be in [0, {dim}), got {index}")
        return GaussianIntVector._of((int(k == index), 0) for k in range(dim))

    @staticmethod
    def zero(dim: int) -> "GaussianIntVector":
        return GaussianIntVector([(0, 0)] * dim)

    def _pairs_of(self, other) -> tuple:
        """The pairs of `other`, a vector or anything the constructor reads, of this length."""
        pairs = GaussianIntVector(other).pairs
        if len(self.pairs) != len(pairs):
            raise DimensionMismatch(
                f"vector dimensions differ: {len(self.pairs)} vs {len(pairs)}"
            )
        return pairs

    def __repr__(self):
        parts = ", ".join(format_exact_complex(a, b) for a, b in self.pairs)
        return f"GaussianIntVector([{parts}])"


def _component_pair(c) -> tuple[int, int]:
    """One vector component as a raw pair: an int, a GaussianInt, or an (re, im)
    pair of ints; each int by the one rule of `_exact_int`."""
    if isinstance(c, GaussianInt):
        return (c.re, c.im)
    if isinstance(c, (tuple, list)) and len(c) == 2:
        return (_exact_int(c[0]), _exact_int(c[1]))
    return (_exact_int(c), 0)


def to_xp(v: GaussianIntVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split psi = x + i p into its integer coordinate and momentum vectors."""
    return tuple(a for a, _ in v.pairs), tuple(b for _, b in v.pairs)


def from_xp(x: Sequence[int], p: Sequence[int]) -> GaussianIntVector:
    if len(x) != len(p):
        raise DimensionMismatch(f"x and p lengths differ: {len(x)} vs {len(p)}")
    return GaussianIntVector(zip(x, p))


# =============================================================================
# The exact kernel on raw (re, im) int pairs
# =============================================================================


def _compile_rows(matrix) -> tuple:
    """Nonzero entries of each row of a square matrix of (re, im) pairs as
    (col, re, im) triples, in one pass over the entries; DimensionMismatch
    unless the matrix is nonempty and square."""
    rows, lengths = [], []
    for row in matrix:
        compiled, col = [], -1
        for col, (re, im) in enumerate(row):
            if re or im:
                compiled.append((col, re, im))
        rows.append(tuple(compiled))
        lengths.append(col + 1)
    if not rows or lengths.count(len(rows)) != len(rows):
        raise DimensionMismatch("the matrix must be nonempty and square")
    return tuple(rows)


def _matvec_raw(rows, v) -> list[tuple[int, int]]:
    """M @ v for M given by its compiled rows, on raw (re, im) int pairs.

    The one exact product with H (or a transfer matrix): stepping,
    residuals and the transfer recursion all run on it.
    """
    out = []
    for row in rows:
        sre = 0
        sim = 0
        for j, mre, mim in row:
            vre, vim = v[j]
            sre += mre * vre - mim * vim
            sim += mre * vim + mim * vre
        out.append((sre, sim))
    return out


def _step_raw(rows, base, v, sign: int = 1) -> list[tuple[int, int]]:
    """base - sign * i * (H @ v).

    sign=1 is the forward rule psi[n+1] = psi[n-1] - i H psi[n].  The rule is
    time-symmetric, so sign=-1 is the backward rule psi[n-1] = psi[n+1] + i H psi[n].
    """
    return [
        (bre + sign * him, bim - sign * hre)
        for (bre, bim), (hre, him) in zip(base, _matvec_raw(rows, v))
    ]


def _eliminate_below(m, k: int, previous: tuple[int, int]) -> None:
    """One fraction-free (Bareiss) elimination step on rows of raw (re, im)
    pairs, in place: for r, c > k, m[r][c] becomes
    (m[k][k] * m[r][c] - m[r][k] * m[k][c]) / previous, where `previous` is
    the pivot of the step before (1 at the first), and that division is exact
    in the Gaussian integers."""
    kre, kim = m[k][k]
    pre, pim = previous
    norm = pre * pre + pim * pim
    pivot_row = m[k]
    for row in m[k + 1:]:
        rre, rim = row[k]
        for c in range(k + 1, len(row)):
            cre, cim = pivot_row[c]
            xre, xim = row[c]
            nre = kre * xre - kim * xim - (rre * cre - rim * cim)
            nim = kre * xim + kim * xre - (rre * cim + rim * cre)
            row[c] = ((nre * pre + nim * pim) // norm, (nim * pre - nre * pim) // norm)


def _det_raw(matrix) -> tuple[int, int]:
    """Determinant of a square matrix of raw (re, im) pairs, by fraction-free
    elimination (`_eliminate_below`) with the pivot of column k searched down
    that column."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign = 1
    previous = (1, 0)
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k] != (0, 0)), None)
        if pivot is None:
            return (0, 0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        _eliminate_below(m, k, previous)
        previous = m[k][k]
    re, im = m[n - 1][n - 1]
    return (sign * re, sign * im)


def _rank_raw(matrix) -> int:
    """Rank of a matrix of raw (re, im) pairs: the number of nonzero pivots of
    the fraction-free elimination (`_eliminate_below`), with each pivot
    searched over the remaining rows and columns."""
    m = [list(row) for row in matrix]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    previous = (1, 0)
    for k in range(min(n_rows, n_cols)):
        pivot = next(((r, c) for r in range(k, n_rows) for c in range(k, n_cols)
                      if m[r][c] != (0, 0)), None)
        if pivot is None:
            return k
        r, c = pivot
        m[k], m[r] = m[r], m[k]
        for row in m[k:]:
            row[k], row[c] = row[c], row[k]
        _eliminate_below(m, k, previous)
        previous = m[k][k]
    return min(n_rows, n_cols)


# =============================================================================
# Hamiltonian models
# =============================================================================


@dataclass(frozen=True)
class HamiltonianModel:
    """H = S + iA as its rows: each row's nonzero entries as (col, re, im)
    triples in column order.  Every exact product with H runs on these; the
    dense forms are built on read.  The constructor does not check that H is
    self-adjoint: `build_hamiltonian` does, for dense S and A.
    """

    h_rows: tuple

    @property
    def dim(self) -> int:
        return len(self.h_rows)

    def dense_pairs(self) -> list[list[tuple[int, int]]]:
        """H as dense rows of raw (re, im) pairs: row r holds (S[r][c], A[r][c])."""
        dense = [[(0, 0)] * self.dim for _ in self.h_rows]
        for out, row in zip(dense, self.h_rows):
            for col, re, im in row:
                out[col] = (re, im)
        return dense

    @property
    def h_matrix(self) -> tuple[tuple[GaussianInt, ...], ...]:
        """Dense boxed H; the reference form, not used for stepping."""
        return tuple(tuple(itertools.starmap(GaussianInt, row)) for row in self.dense_pairs())

    def as_complex_array(self):
        import numpy as np

        return np.array([[complex(re, im) for re, im in row] for row in self.dense_pairs()])


def _int_rows(matrix, name: str) -> list[tuple]:
    """The rows of `matrix` as tuples, each entry checked once to be an exact int
    (the rule of `_exact_int`); the TypeError names the first bad entry."""
    rows = list(map(tuple, matrix))
    for r, row in enumerate(rows):
        if not set(map(type, row)) <= {int}:
            c, x = next((c, x) for c, x in enumerate(row) if type(x) is not int)
            raise TypeError(f"{name}[{r}][{c}] must be an integer, got {x!r}")
    return rows


def _self_adjoint_model(pair_rows, pair_at) -> HamiltonianModel:
    """The model of H from dense rows of raw (re, im) int pairs, type-checked by
    the caller; pair_at(r, c) is H[r][c].  Compiling the rows checks that H is
    square.  H is self-adjoint iff each nonzero H[r][c] with r <= c is the
    conjugate of H[c][r], and the nonzero entries below the diagonal are as many
    as the mirrors so found: each such mirror is nonzero, so then every nonzero
    entry below is one.  Only when that fails is every nonzero entry compared,
    for SymmetryViolation("S" or "A", r, c) to name the first bad r <= c, row by row."""
    rows = _compile_rows(pair_rows)
    below = mirrored = 0
    for r, row in enumerate(rows):
        k = bisect.bisect_left(row, (r,))  # row[k:] holds the columns c >= r
        below += k
        mirrored += len(row) - k - (k < len(row) and row[k][0] == r)
        if not all(pair_at(c, r) == (re, -im) for c, re, im in row[k:]):
            break
    else:
        if below == mirrored:
            return HamiltonianModel(rows)
    r, c = min((min(r, c), max(r, c)) for r, row in enumerate(rows)
               for c, re, im in row if pair_at(c, r) != (re, -im))
    raise SymmetryViolation("S" if pair_at(r, c)[0] != pair_at(c, r)[0] else "A", r, c)


def build_hamiltonian(s_dense, a_dense) -> HamiltonianModel:
    """The model of H = S + iA from dense int rows: S symmetric and A antisymmetric,
    square and of one size, else SymmetryViolation or DimensionMismatch."""
    s, a = _int_rows(s_dense, "S"), _int_rows(a_dense, "A")
    if list(map(len, s)) != list(map(len, a)):
        raise DimensionMismatch("S and A must have the same shape")
    return _self_adjoint_model(map(zip, s, a), lambda r, c: (s[r][c], a[r][c]))


def zero_model(dim: int) -> HamiltonianModel:
    return HamiltonianModel(((),) * dim)


# =============================================================================
# Trajectories
# =============================================================================

# The most bits of one slot-packed integer of Trajectory.verify: a block of
# residuals per kernel call, and one block of memory (measured; see CHANGES.md).
VERIFY_BLOCK_BITS = 1 << 15


@dataclass(frozen=True)
class CAPairState:
    """Two consecutive states (psi[n-1], psi[n]); the minimal trajectory data."""

    psi_prev: GaussianIntVector
    psi_curr: GaussianIntVector
    index_n: int = 1

    def __post_init__(self):
        _exact_int(self.index_n, "index_n")
        if len(self.psi_prev) != len(self.psi_curr):
            raise DimensionMismatch(
                f"pair dimensions differ: {len(self.psi_prev)} vs {len(self.psi_curr)}"
            )

    @property
    def dim(self) -> int:
        return len(self.psi_curr)


@dataclass(frozen=True)
class Trajectory:
    """A contiguous run of states; state k sits at absolute index start_index + k."""

    raw_states: tuple  # each state's (re, im) int pairs; state_at, [] and states wrap them
    start_index: int
    model: HamiltonianModel

    def __len__(self):
        return len(self.raw_states)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(GaussianIntVector._of, self.raw_states[k]))
        return GaussianIntVector._of(self.raw_states[k])

    @property
    def states(self) -> tuple[GaussianIntVector, ...]:
        return tuple(map(GaussianIntVector._of, self.raw_states))

    def state_at(self, n: int) -> GaussianIntVector:
        return GaussianIntVector._of(self._raw_at(n))

    def _raw_at(self, n: int):
        return self.raw_states[n - self.start_index]

    def correlation_at(self, n: int) -> int:
        """two_time_correlation of (psi[n-1], psi[n]), read from the raw states."""
        return _correlation_raw(self._raw_at(n - 1), self._raw_at(n))

    def _residual_raw(self, n: int) -> list[tuple[int, int]]:
        # psi[n+1] minus the update rule's psi[n-1] - i H psi[n]
        stepped = _step_raw(self.model.h_rows, self._raw_at(n - 1), self._raw_at(n))
        return [(are - bre, aim - bim)
                for (are, aim), (bre, bim) in zip(self._raw_at(n + 1), stepped)]

    def residual_at(self, n: int) -> GaussianIntVector:
        """psi[n+1] - psi[n-1] + i H psi[n]; exactly zero on valid trajectories."""
        return GaussianIntVector._of(self._residual_raw(n))

    def check_blocks(self) -> list[tuple[int, int, int]]:
        """The blocks that `verify` checks, as (first, stop, width): the interior
        states raw_states[first:stop], packed in slots of `width` bits.

        width is the least whole number of bytes with width - 1 >=
        bit_length((2 + h) * m), where m is the largest |re| or |im| among the
        block's states raw_states[first - 1:stop + 1] and h the largest row sum
        of |re| + |im| in H.  A block holds at most VERIFY_BLOCK_BITS // width
        states (one at least), so the memory `verify` takes is one block.
        """
        h = _largest_row_sum(self.model.h_rows)
        peaks = (max(map(abs, itertools.chain.from_iterable(state))) for state in self.raw_states)
        widths = [_slot_width((2 + h) * m) for m in peaks]
        blocks, first, end = [], 1, len(widths) - 1
        while first < end:
            stop, width = first + 1, max(widths[first - 1:first + 2])
            while stop < end:  # one more state while the packed ints stay in bounds
                wider = max(width, widths[stop + 1])
                if (stop + 1 - first) * wider > VERIFY_BLOCK_BITS:
                    break
                stop, width = stop + 1, wider
            blocks.append((first, stop, width))
            first = stop
        return blocks

    def verify(self) -> bool:
        """Whether every residual psi[n+1] - psi[n-1] + i H psi[n] is zero,
        checked a block of consecutive n per `_step_raw` call (`check_blocks`).

        In a block of k residuals, component j of `lower`, `middle` and `upper`
        packs the parts of psi[n-1], psi[n] and psi[n+1] over the block's n:
        slot i holds the part x_i of its i-th n, so a packed part is
        sum_i x_i 2**(width * i).  The kernel is linear with integer
        coefficients, so _step_raw(H, lower, middle) - upper packs the k
        residual parts r_i the same way.  With m and h as in `check_blocks`,
        |r_i| <= |psi[n+1]| + |psi[n-1]| + h m <= (2 + h) m < 2**(width - 1),
        and a sum of r_i 2**(width * i) with every |r_i| < 2**(width - 1) is zero
        only if every r_i is: the lowest nonzero r_i leaves a nonzero remainder
        mod 2**(width * (i + 1)).  So the block passes iff every residual in it
        is zero, exactly.

        The parts fit their slots by the same bound (`_pack`).  `lower` and
        `upper` keep the offsets of `_pack`, which are the same in every part
        of both and so cancel in _step_raw(H, lower, middle) - upper; only
        `middle`, which H mixes, has them taken off.
        """
        rows, states = self.model.h_rows, self.raw_states
        for first, stop, width in self.check_blocks():
            size = stop - first
            mask = (1 << (width * size)) - 1
            offsets = _pack([0] * size, width)
            lower, middle, upper = [], [], []
            for component in zip(*states[first - 1:stop + 1]):
                re, im = (_pack(parts, width) for parts in zip(*component))
                lower.append((re & mask, im & mask))
                middle.append(((re >> width & mask) - offsets, (im >> width & mask) - offsets))
                upper.append((re >> 2 * width, im >> 2 * width))
            if _step_raw(rows, lower, middle) != upper:
                return False
        return True


def _largest_row_sum(rows) -> int:
    """The largest row sum of |re| + |im| over compiled rows: no part of
    M @ v exceeds it times the largest |re| or |im| of v."""
    return max(sum(abs(re) + abs(im) for _, re, im in row) for row in rows)


def _slot_width(bound: int) -> int:
    """The least whole number of bytes, in bits, with width - 1 >=
    bound.bit_length(): slots of that width hold any part p with |p| <= bound."""
    return 8 * (bound.bit_length() // 8 + 1)


def _pack(parts, width: int) -> int:
    """The ints `parts` in slots of `width` bits, a whole number of bytes:
    slot i holds parts[i] + 2**(width - 1), which fills it exactly when
    |parts[i]| < 2**(width - 1), so the result is
    sum_i (parts[i] + 2**(width - 1)) 2**(width * i)."""
    offset = 1 << (width - 1)
    return int.from_bytes(b"".join(map(int.to_bytes, map(offset.__add__, parts),
                                       itertools.repeat(width // 8),
                                       itertools.repeat("little"))), "little")


def _pack_rows(rows, width: int) -> list[tuple[int, int]]:
    """Compiled rows, packed along their columns as the kernel steps them: row
    r as the pair of ints sum_c re[r][c] 2**(width * c) and
    sum_c im[r][c] 2**(width * c).  With `_pack`'s offsets added, such an int
    is the `_pack` of its parts where every |part| < 2**(width - 1)."""
    return [(sum(re << width * c for c, re, _ in row), sum(im << width * c for c, _, im in row))
            for row in rows]


def _unpack_rows(packed, width: int, dim: int) -> tuple:
    """The inverse of `_pack_rows` for `dim` columns whose parts p all have
    |p| < 2**(width - 1): each packed int plus `_pack`'s offsets is the `_pack`
    of its parts, so part c is slot c of its bytes less 2**(width - 1).  The
    rows come out compiled, each nonzero entry as (col, re, im)."""
    size, offset = width // 8, 1 << (width - 1)
    count = size * dim
    offsets = _pack([0] * dim, width)
    # big-endian bytes, so slot c is the (c + 1)-th `size` bytes from the end
    slots = [(c, slice(count - size * (c + 1), count - size * c)) for c in range(dim)]
    from_bytes = int.from_bytes  # looked up once, not twice per entry
    rows = []
    for re, im in packed:
        re_bytes = (re + offsets).to_bytes(count, "big")
        im_bytes = (im + offsets).to_bytes(count, "big")
        rows.append(tuple([(c, x, y) for c, slot in slots
                           if (x := from_bytes(re_bytes[slot], "big") - offset)
                           | (y := from_bytes(im_bytes[slot], "big") - offset)]))
    return tuple(rows)


def _check_pair_model(pair: CAPairState, model: HamiltonianModel):
    if pair.dim != model.dim:
        raise DimensionMismatch(f"pair dim {pair.dim} vs model dim {model.dim}")


def step(pair: CAPairState, model: HamiltonianModel, direction: str = "forward") -> CAPairState:
    """Advance or rewind the pair by one index.  Exact in both directions."""
    _check_pair_model(pair, model)
    prev, curr = pair.psi_prev.pairs, pair.psi_curr.pairs
    if direction == "forward":
        nxt = _step_raw(model.h_rows, prev, curr)
        return CAPairState(pair.psi_curr, GaussianIntVector._of(nxt), index_n=pair.index_n + 1)
    if direction == "backward":
        before = _step_raw(model.h_rows, curr, prev, sign=-1)
        return CAPairState(GaussianIntVector._of(before), pair.psi_prev, index_n=pair.index_n - 1)
    raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")


def stream(pair: CAPairState, model: HamiltonianModel) -> Iterator[CAPairState]:
    """Yield successive forward pairs indefinitely, keeping only a 2-state window."""
    _check_pair_model(pair, model)
    prev, curr = pair.psi_prev, pair.psi_curr
    for index in itertools.count(pair.index_n + 1):
        prev, curr = curr, GaussianIntVector._of(_step_raw(model.h_rows, prev.pairs, curr.pairs))
        yield CAPairState(prev, curr, index_n=index)


def evolve(pair: CAPairState, model: HamiltonianModel, steps: int) -> Trajectory:
    """Run `steps` forward updates; returns all steps + 2 states."""
    _exact_int(steps, "steps", 1)
    _check_pair_model(pair, model)
    states = [pair.psi_prev.pairs, pair.psi_curr.pairs]
    for _ in range(steps):
        states.append(_step_raw(model.h_rows, states[-2], states[-1]))
    return Trajectory(raw_states=tuple(states), start_index=pair.index_n - 1, model=model)


def two_time_correlation(pair: CAPairState) -> int:
    """Conserved bilinear conj(psi[n]).psi[n-1] + conj(psi[n-1]).psi[n].

    The imaginary parts cancel by construction, so the result is a plain
    integer.  Conservation under the update rule holds for every self-adjoint
    H and is enforced by the test suite through brute-force iteration.
    """
    return _correlation_raw(pair.psi_prev.pairs, pair.psi_curr.pairs)


def _correlation_raw(prev, curr) -> int:
    return 2 * sum(are * bre + aim * bim for (are, aim), (bre, bim) in zip(curr, prev))


