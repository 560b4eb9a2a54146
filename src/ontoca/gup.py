"""Discrete position and momentum operators and uncertainty-relation reports.

On M lattice sites (labels m = -M/2 .. M/2 - 1, step l) the operators are

    X[m][n] = l * m * delta[m,n]
    P[m][n] = -i (delta[m,n-1] - delta[m,n+1]) / (2 l),

wrapped periodically by default.  Robertson's inequality
DeltaA * DeltaB >= |<[A,B]>| / 2 is the universal invariant enforced here:
it is a theorem for any state and self-adjoint pair.  The deformed bound

    DeltaX * DeltaP >= 1/2 |1 + (l^2 / 2) <P^2>|

is evaluated and reported but never asserted: sharply localized lattice
states violate it outright (DeltaX = 0 against a positive right-hand side)
and even centered Gaussian envelopes sit slightly below it, so which state
family it governs is an empirical question the reports answer per family.
Its closed-form minimum over DeltaP at <P> = 0 is l / sqrt(2), which is
computed exactly.

Operators and reports act along the last axis: a (k, M) block of states gets
one numpy pass, each row bit for bit as the single (M,) state, the k = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, FamilyTooNarrow
from .propagator import DiscretenessScale

# Amplitudes per random_states block (at least one row): 64 KiB of complex128,
# under glibc's 128 KiB mmap threshold, so block temporaries reuse the heap.
BLOCK_AMPLITUDES = 1 << 12


# =============================================================================
# Operators and states
# =============================================================================


@dataclass(frozen=True)
class LatticeOperator:
    """X or P on `size` sites as an O(M) stencil: self-adjoint by construction."""

    size: int
    scale: DiscretenessScale
    boundary: str
    name: str

    def __post_init__(self):
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"boundary must be 'periodic' or 'open', got {self.boundary!r}")
        if self.name not in ("X", "P"):
            raise ValueError(f"operator must be 'X' or 'P', got {self.name!r}")

    def apply(self, psi: np.ndarray) -> np.ndarray:
        if self.name == "X":
            return (self.scale.l * site_labels(self.size)) * psi
        up, down = np.roll(psi, -1, axis=-1), np.roll(psi, 1, axis=-1)  # psi[m + 1], psi[m - 1]
        if self.boundary == "open":
            up[..., -1] = down[..., 0] = 0.0
        coeff = 1.0 / (2.0 * self.scale.l)
        return (-1j * coeff) * up + (1j * coeff) * down


def site_labels(size: int) -> np.ndarray:
    """Integer site labels, symmetric around zero."""
    return np.arange(-(size // 2), size - size // 2)


def position_operator(size: int, scale: DiscretenessScale, boundary: str = "periodic") -> LatticeOperator:
    return LatticeOperator(size=size, scale=scale, boundary=boundary, name="X")


def momentum_operator(size: int, scale: DiscretenessScale, boundary: str = "periodic") -> LatticeOperator:
    return LatticeOperator(size=size, scale=scale, boundary=boundary, name="P")


def _norms(a: np.ndarray) -> np.ndarray:
    """The Euclidean norm along the last axis, summed as np.linalg.norm sums it."""
    return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))


@dataclass(frozen=True)
class LatticeState:
    """Unit-norm complex amplitudes over the lattice sites: (M,), or (k, M) for a block."""

    amplitudes: np.ndarray

    def __post_init__(self):
        for norm in np.atleast_1d(_norms(self.amplitudes)).tolist():
            if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
                raise ValueError(f"state norm is {norm}, expected 1")

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "LatticeState":
        arr = np.asarray(amplitudes, dtype=complex)
        norms = _norms(arr)
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize the zero state")
        return cls(amplitudes=arr / np.expand_dims(norms, -1))

    @property
    def size(self) -> int:
        return self.amplitudes.shape[-1]


def gaussian_envelope(size: int, width) -> LatticeState:
    """Normalized real Gaussian envelope of the given width in sites, centered on
    site 0; a sequence of widths gives a block with one envelope per row."""
    if np.any(np.asarray(width) <= 0):
        raise ValueError("width must be positive")
    m = site_labels(size)
    # 4 w**2 in Python floats, as the one-envelope formula computes it
    quarter = np.reshape([4.0 * w**2 for w in np.ravel(width).tolist()], np.shape(width) + (1,))
    return LatticeState.from_amplitudes(np.exp(-(m**2) / quarter))


def single_site_state(size: int, site: int) -> LatticeState:
    labels = list(site_labels(size))
    amp = np.zeros(size, dtype=complex)
    amp[labels.index(site)] = 1.0
    return LatticeState(amplitudes=amp)


def random_states(size: int, count: int, seed: int) -> Iterator[LatticeState]:
    """`count` random normalized states from one seeded stream, in (k, size)
    blocks of at most BLOCK_AMPLITUDES // size rows (at least one).  A row's
    real then imaginary parts are the next 2 * size normals of the stream,
    as when each sample drew standard_normal(size) twice."""
    rng = np.random.default_rng(seed)
    rows = max(1, BLOCK_AMPLITUDES // size)
    for start in range(0, count, rows):
        draws = rng.standard_normal((min(rows, count - start), 2, size))
        yield LatticeState.from_amplitudes(draws[:, 0] + 1j * draws[:, 1])


# =============================================================================
# Uncertainties and bounds
# =============================================================================


def _check(state: LatticeState, op: LatticeOperator):
    if state.size != op.size:
        raise DimensionMismatch(f"state size {state.size} vs operator size {op.size}")


def _values(x):
    """A block's results stay arrays; a single state's become Python scalars."""
    return x if np.ndim(x) else x.item()


class Moments(NamedTuple):
    """<op>, Delta op (clamped at zero roundoff) and <op^2>, per state: floats
    for one (M,) state, arrays over the rows of a (k, M) block."""

    mean: float
    delta: float
    second: float


def _moments(psi: np.ndarray, applied: np.ndarray) -> Moments:
    mean = np.vecdot(psi, applied).real
    second = np.vecdot(applied, applied).real  # <op^2> since op is self-adjoint
    var = second - mean * mean
    if np.any(var < -1e-12):
        raise ArithmeticError(f"variance {np.min(var)} below roundoff tolerance")
    return Moments(_values(mean), _values(np.sqrt(np.maximum(var, 0.0))), _values(second))


def uncertainty(state: LatticeState, op: LatticeOperator) -> tuple[float, float]:
    """Expectation value and spread <op>, Delta op (clamped at zero roundoff)."""
    _check(state, op)
    mean, delta, _ = _moments(state.amplitudes, op.apply(state.amplitudes))
    return mean, delta


@dataclass(frozen=True)
class RobertsonResult:
    """Per-state fields: scalars for one (M,) state, per-row arrays for a block."""

    lhs: float
    rhs: float
    holds: bool
    moments_a: Moments
    moments_b: Moments


def robertson_check(state: LatticeState, a: LatticeOperator, b: LatticeOperator) -> RobertsonResult:
    """DeltaA * DeltaB against |<[A,B]>| / 2, the exact commutator bound."""
    _check(state, a)
    _check(state, b)
    psi = state.amplitudes
    a_psi, b_psi = a.apply(psi), b.apply(psi)
    ma, mb = _moments(psi, a_psi), _moments(psi, b_psi)
    comm = np.vecdot(psi, a.apply(b_psi) - b.apply(a_psi))
    rhs = _values(np.hypot(comm.real, comm.imag) / 2.0)  # hypot, as abs(complex) computes it
    lhs = ma.delta * mb.delta
    return RobertsonResult(lhs=lhs, rhs=rhs, holds=lhs >= rhs - 1e-12, moments_a=ma, moments_b=mb)


@dataclass(frozen=True)
class GupBoundReport:
    """Per-state fields: scalars for one (M,) state, per-row arrays for a block."""

    lhs: float
    deformed_rhs: float
    robertson_rhs: float
    satisfies_deformed_bound: bool
    mean_p: float
    mean_p_squared: float
    delta_x: float
    delta_p: float
    robertson_holds: bool


def gup_bound_report(
    state: LatticeState, scale: DiscretenessScale, boundary: str = "periodic"
) -> GupBoundReport:
    """Evaluate the deformed bound verbatim next to the exact Robertson bound.

    Both right-hand sides are reported; only Robertson is a theorem.
    """
    robertson = robertson_check(
        state,
        position_operator(state.size, scale, boundary),
        momentum_operator(state.size, scale, boundary),
    )
    x, p = robertson.moments_a, robertson.moments_b
    deformed_rhs = 0.5 * abs(1.0 + (scale.l**2 / 2.0) * p.second)
    return GupBoundReport(
        lhs=robertson.lhs,
        deformed_rhs=deformed_rhs,
        robertson_rhs=robertson.rhs,
        satisfies_deformed_bound=robertson.lhs >= deformed_rhs - 1e-12,
        mean_p=p.mean,
        mean_p_squared=p.second,
        delta_x=x.delta,
        delta_p=p.delta,
        robertson_holds=robertson.holds,
    )


# =============================================================================
# Minimal position spread
# =============================================================================


def bound_curve(delta_p: float, scale: DiscretenessScale) -> float:
    """Deformed lower bound on DeltaX as a function of DeltaP, at <P> = 0."""
    if delta_p <= 0:
        raise ValueError("delta_p must be positive")
    return 1.0 / (2.0 * delta_p) + (scale.l**2 / 4.0) * delta_p


def bound_minimum(scale: DiscretenessScale) -> tuple[float, float]:
    """Closed-form minimizer of the bound curve: DeltaP = sqrt(2)/l gives l/sqrt(2)."""
    argmin = math.sqrt(2.0) / scale.l
    return bound_curve(argmin, scale), argmin


@dataclass(frozen=True)
class FamilyMember(GupBoundReport):
    """The bound report of one centered Gaussian envelope."""

    width: float


@dataclass(frozen=True)
class MinimizeDeltaXReport:
    bound_min_dx: float
    bound_argmin_dp: float
    members: tuple[FamilyMember, ...]
    realized_min_dx: Optional[float]
    realized_min_width: Optional[float]
    best_tightness: float
    best_tightness_width: float


def minimize_delta_x(
    scale: DiscretenessScale,
    widths: Sequence[float],
    sites: int = 512,
    boundary: str = "periodic",
) -> MinimizeDeltaXReport:
    """Scan centered Gaussian envelopes (so <P> = 0 exactly) for minimal DeltaX.

    Reports the exact bound-derived minimum l/sqrt(2) alongside the scan.  The
    realized minimum counts only members that actually satisfy the deformed
    bound; when none do (the generic lattice outcome) it is None and the
    tightness ratio lhs / deformed_rhs documents how close the family comes.
    Raises FamilyTooNarrow when a realized minimum exists but sits at the
    narrow end of the width grid, where a narrower member could improve it.
    DeltaX grows with the width, so a minimum at the wide end stands: a wider
    member could only raise DeltaX.
    """
    widths = sorted(float(w) for w in widths)
    if not widths:
        raise ValueError("need at least one width")
    if widths[-1] > sites / 8:
        raise ValueError(
            f"width {widths[-1]} too large for {sites} sites; boundary effects exceed 1%"
        )
    block = gup_bound_report(gaussian_envelope(sites, widths), scale, boundary)
    names = [f.name for f in fields(GupBoundReport)]
    rows = zip(*(getattr(block, name).tolist() for name in names))
    members = [FamilyMember(width=w, **dict(zip(names, row))) for w, row in zip(widths, rows)]
    bound_dx, bound_dp = bound_minimum(scale)
    satisfying = [m for m in members if m.satisfies_deformed_bound]
    realized_min_dx = None
    realized_min_width = None
    if satisfying:
        best = min(satisfying, key=lambda m: m.delta_x)
        realized_min_dx = best.delta_x
        realized_min_width = best.width
        if best.width == widths[0] and len(widths) > 1:
            raise FamilyTooNarrow(
                f"realized minimum sits at the narrow end of the width grid ({best.width}); "
                f"extend the family"
            )
    tightest = max(members, key=lambda m: m.lhs / m.deformed_rhs)
    return MinimizeDeltaXReport(
        bound_min_dx=bound_dx,
        bound_argmin_dp=bound_dp,
        members=tuple(members),
        realized_min_dx=realized_min_dx,
        realized_min_width=realized_min_width,
        best_tightness=tightest.lhs / tightest.deformed_rhs,
        best_tightness_width=tightest.width,
    )
