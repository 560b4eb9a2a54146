"""Closed-form and polynomial propagators for the second-order update rule.

Two routes to psi[n] are provided and cross-checked:

  * a spectral closed form built on the auxiliary angle phi with
    2 sin(phi) = lambda per eigenvalue (floating point, singular where
    some |lambda| = 2), and
  * an exact three-term family of Gaussian-integer transfer matrices
    T(k+1) = T(k-1) - i H T(k) with T(0) = 1, T(1) = 0, which composes
    trajectories as psi[n] = T(n-m+1) psi[m+1] + T(n-m) psi[m].

The transfer recursion is the authoritative propagator; the closed form is a
numeric cross-check and the bridge to the continuum exponential.
"""

from __future__ import annotations

import cmath
import collections
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CriticalSpectrum, DimensionMismatch
from .gaussian import (
    GaussianInt,
    GaussianIntVector,
    HamiltonianModel,
    _det_raw,
    _exact_int,
    _largest_row_sum,
    _matvec_raw,
    _pack_rows,
    _slot_width,
    _step_raw,
    _unpack_rows,
)
from .numerics import max_abs

SPECTRAL_RECON_TOL = 1e-10


@dataclass(frozen=True)
class DiscretenessScale:
    """Fundamental step size of the lattice; pure bookkeeping unit."""

    l: float

    def __post_init__(self):
        if isinstance(self.l, bool) or not self.l > 0:
            raise ValueError(f"scale must be a positive number, got {self.l!r}")


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: tuple[float, ...]
    eigenvectors: np.ndarray  # orthonormal columns
    phi_eigenvalues: tuple[complex, ...]
    reconstruction_error: float


def is_critical(model: HamiltonianModel) -> bool:
    """Whether some eigenvalue of H is exactly +2 or -2: det(4*1 - H^2) == 0.

    The determinant is an exact Gaussian-integer one, so the decision holds
    for entries of any size, where a float eigenvalue would miss 2 by roundoff.
    """
    # H is self-adjoint, so column c of H is the conjugate of its row c and
    # column c of H^2 is H times that.
    h2_cols = [
        _matvec_raw(model.h_rows, [(re, -im) for re, im in row]) for row in model.dense_pairs()
    ]
    four_minus_h2 = [
        [(4 * (r == c) - h2_cols[c][r][0], -h2_cols[c][r][1]) for c in range(model.dim)]
        for r in range(model.dim)
    ]
    return _det_raw(four_minus_h2) == (0, 0)


def phi_operator(model: HamiltonianModel) -> SpectralDecomposition:
    """Diagonalize H and attach the auxiliary angles phi with 2 sin(phi) = lambda."""
    h = model.as_complex_array()
    evals, vecs = np.linalg.eigh(h)
    recon = (vecs * evals) @ vecs.conj().T
    scale = max(1.0, max_abs(h))
    err = max_abs(recon - h)
    if err > SPECTRAL_RECON_TOL * scale:
        raise ArithmeticError(f"eigendecomposition reconstruction error {err:g}")
    return SpectralDecomposition(
        eigenvalues=tuple(float(x) for x in evals),
        eigenvectors=vecs,
        phi_eigenvalues=tuple(dispersion_omega(lam) for lam in evals),
        reconstruction_error=err,
    )


def closed_form_state(model: HamiltonianModel, psi0, psi1, n: int) -> np.ndarray:
    """Evaluate the two-branch closed form of the trajectory at index n.

    psi[n] = 1/(2 cos phi) * ( e^{-i n phi} [e^{i phi} psi0 + psi1]
                               + (-1)^n e^{i n phi} [e^{-i phi} psi0 - psi1] )

    applied per eigenmode.  Raises CriticalSpectrum when some |lambda| = 2,
    where the prefactor diverges; use the transfer polynomials there.
    """
    dec = phi_operator(model)
    if is_critical(model):
        raise CriticalSpectrum(
            f"eigenvalues {dec.eigenvalues} contain |lambda| = 2; closed form is singular"
        )
    a0 = dec.eigenvectors.conj().T @ _as_complex_vec(psi0, model.dim)
    a1 = dec.eigenvectors.conj().T @ _as_complex_vec(psi1, model.dim)
    sign = 1 if n % 2 == 0 else -1
    coeffs = np.empty(model.dim, dtype=complex)
    for k, phi in enumerate(dec.phi_eigenvalues):
        pref = 1.0 / (2.0 * cmath.cos(phi))
        fwd = cmath.exp(-1j * n * phi) * (cmath.exp(1j * phi) * a0[k] + a1[k])
        alt = sign * cmath.exp(1j * n * phi) * (cmath.exp(-1j * phi) * a0[k] - a1[k])
        coeffs[k] = pref * (fwd + alt)
    return dec.eigenvectors @ coeffs


# =============================================================================
# Exact transfer polynomials
# =============================================================================


@dataclass(frozen=True)
class TransferPolynomial:
    """T(order), held as compiled raw rows: each row's nonzero entries as
    (col, re, im) triples.  `matrix` boxes it on read."""

    order: int
    rows: tuple

    @property
    def matrix(self) -> tuple[tuple[GaussianInt, ...], ...]:
        dim = len(self.rows)
        boxed = [{c: GaussianInt(re, im) for c, re, im in row} for row in self.rows]
        return tuple(tuple(row.get(c, GaussianInt(0, 0)) for c in range(dim)) for row in boxed)

    def apply(self, v) -> GaussianIntVector:
        """T(order) @ v, where v is anything GaussianIntVector reads."""
        pairs = GaussianIntVector(v).pairs
        dim = len(self.rows)
        if len(pairs) != dim:
            raise DimensionMismatch(f"vector length {len(pairs)} vs matrix dim {dim}")
        return GaussianIntVector._of(_matvec_raw(self.rows, pairs))


# Bits to spare above the proved bound when the slots of the packed recursion
# are laid out: at 48, each bigint-transfer model (dense dim 12) is laid out 3
# times up to k = 40, and smaller or larger spares were no faster (CHANGES.md).
_SLOT_SLACK_BITS = 48


def _transfer_orders(model: HamiltonianModel) -> Iterator[TransferPolynomial]:
    """T(0), T(1), T(2), ... of the recursion T(k+1) = T(k-1) - iH T(k), without end.

    Row r of T(k) is stepped packed (`_pack_rows`), one int per part: the sum
    over c of T(k)[r][c] 2**(width * c).  The kernel is linear with integer
    coefficients, so one _step_raw call on the packed rows of T(k-1) and T(k)
    gives the packed rows of T(k+1).  Let h be the largest row sum of
    |re| + |im| in H.  If every |re| and |im| of T(k-1) is at most m_prev and
    of T(k) at most m_curr, every one of T(k+1) is at most m_prev + h m_curr;
    while that bound is below 2**(width - 1), `_unpack_rows` reads T(k+1)
    exactly.  The bound is carried on as the next m_curr.  When it outgrows
    the slots, m_prev and m_curr are first read off T(k-1) and T(k), and only
    if the bound still does not fit are the two packed again, in whole-byte
    slots with _SLOT_SLACK_BITS to spare.
    """
    dim, h_rows = model.dim, model.h_rows
    h = _largest_row_sum(h_rows)
    prev, curr = tuple(((r, 1, 0),) for r in range(dim)), ((),) * dim
    yield TransferPolynomial(0, prev)
    yield TransferPolynomial(1, curr)
    m_prev, m_curr, width = 1, 0, 0
    for k in itertools.count(2):
        bound = m_prev + h * m_curr
        if bound.bit_length() >= width:
            m_prev, m_curr = _largest_part(prev), _largest_part(curr)
            bound = m_prev + h * m_curr
            if bound.bit_length() >= width:
                width = _slot_width(bound << _SLOT_SLACK_BITS)
                packed_prev, packed_curr = _pack_rows(prev, width), _pack_rows(curr, width)
        stepped = _step_raw(h_rows, packed_prev, packed_curr)
        prev, curr = curr, _unpack_rows(stepped, width, dim)
        packed_prev, packed_curr = packed_curr, stepped
        m_prev, m_curr = m_curr, bound
        yield TransferPolynomial(k, curr)


def _largest_part(rows) -> int:
    """The largest |re| or |im| of compiled rows (0 if they are all empty)."""
    return max((max(abs(re), abs(im)) for row in rows for _, re, im in row), default=0)


def transfer_sequence(model: HamiltonianModel, k_max: int) -> list[TransferPolynomial]:
    """T(0) .. T(k_max) via the exact three-term recursion T(k+1) = T(k-1) - iH T(k)."""
    _exact_int(k_max, "k_max", 0)
    return list(itertools.islice(_transfer_orders(model), k_max + 1))


def equal_initial_form(model: HamiltonianModel, psi0: GaussianIntVector, n: int) -> GaussianIntVector:
    """[T(n+1) + T(n)] psi0, the exact trajectory when psi1 is chosen equal to psi0;
    only the latest two transfer matrices are held."""
    _exact_int(n, "n", 0)
    t_n, t_next = collections.deque(itertools.islice(_transfer_orders(model), n + 2), maxlen=2)
    psi0 = GaussianIntVector(psi0)
    return t_next.apply(psi0) + t_n.apply(psi0)


# =============================================================================
# Dispersion and continuum limit
# =============================================================================


def dispersion_omega(lam: float) -> complex:
    """Frequency omega with 2 sin(omega) = lambda, principal branch.

    Real for |lambda| <= 2; complex (growing mode) beyond.
    """
    return cmath.asin(complex(lam) / 2.0)


def stationary_residual(h: np.ndarray, omega: complex, vec: np.ndarray, n: int) -> float:
    """Largest entry of psi[n+1] - psi[n-1] + i H psi[n] for the stationary mode
    psi[n] = exp(-i omega n) vec, where vec is an eigenvector of H and omega its
    dispersion_omega; zero up to roundoff."""
    psi_prev = np.exp(-1j * omega * (n - 1)) * vec
    psi_cur = np.exp(-1j * omega * n) * vec
    psi_next = np.exp(-1j * omega * (n + 1)) * vec
    return max_abs(psi_next - psi_prev + 1j * (h @ psi_cur))


def _as_complex_vec(v, dim) -> np.ndarray:
    if isinstance(v, GaussianIntVector):
        arr = np.array(v.as_complex())
    else:
        arr = np.asarray(v, dtype=complex)
    if arr.shape != (dim,):
        raise DimensionMismatch(f"vector shape {arr.shape} vs dim {dim}")
    return arr


def continuum_deviation(model: HamiltonianModel, psi0, epsilon: float, n_max: int) -> float:
    """Max deviation between the scaled recurrence and its continuum exponential.

    Runs the recurrence for H' = epsilon * H starting from psi1 = psi0 and
    compares each state, as it is made, against exp(-i H' n / 2) psi0; only the
    two latest states are kept.  The comparison is floating point; the
    recurrence itself introduces no additional error beyond roundoff.
    """
    if is_critical(model):
        raise CriticalSpectrum("rescale the model away from |lambda| = 2 first")
    h = epsilon * model.as_complex_array()
    psi0 = _as_complex_vec(psi0, model.dim)
    evals, vecs = np.linalg.eigh(h)
    coeff0 = vecs.conj().T @ psi0
    worst = 0.0
    prev = curr = psi0  # psi[0] = psi[1] = psi0
    for n in range(n_max + 2):
        if n >= 2:
            prev, curr = curr, prev - 1j * (h @ curr)
        expected = vecs @ (np.exp(-1j * evals * n / 2.0) * coeff0)
        worst = max(worst, max_abs(curr - expected))
    return worst


def continuum_limit_check(
    model: HamiltonianModel,
    psi0,
    epsilons: tuple[float, ...],
    scale_product: float,
) -> list[tuple[float, int, float]]:
    """Deviation sweep at fixed n * epsilon = scale_product.

    Returns (epsilon, n, deviation) rows, largest epsilon first.  First-order
    convergence shows as roughly halving deviations when epsilon halves.
    """
    rows = []
    for eps in sorted(epsilons, reverse=True):
        n = max(1, round(scale_product / eps))
        rows.append((eps, n, continuum_deviation(model, psi0, eps, n)))
    return rows
