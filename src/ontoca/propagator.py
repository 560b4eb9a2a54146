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
from dataclasses import dataclass

import numpy as np

from .errors import CriticalSpectrum, DimensionMismatch
from .gaussian import (
    GaussianInt,
    GaussianIntVector,
    HamiltonianModel,
    _compile_rows,
    _det_raw,
    _matvec_raw,
    _step_raw,
)
from .numerics import max_abs

SPECTRAL_RECON_TOL = 1e-10


@dataclass(frozen=True)
class DiscretenessScale:
    """Fundamental step size of the lattice; pure bookkeeping unit."""

    l: float

    def __post_init__(self):
        if not self.l > 0:
            raise ValueError(f"scale must be positive, got {self.l}")


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
        _matvec_raw(model.h_rows, [(s, -a) for s, a in zip(model.s_matrix[c], model.a_matrix[c])])
        for c in range(model.dim)
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

    def apply(self, v: GaussianIntVector) -> GaussianIntVector:
        dim = len(self.rows)
        if len(v) != dim:
            raise DimensionMismatch(f"vector length {len(v)} vs matrix dim {dim}")
        return GaussianIntVector._of(_matvec_raw(self.rows, v.pairs))


def transfer_sequence(model: HamiltonianModel, k_max: int) -> list[TransferPolynomial]:
    """T(0) .. T(k_max) via the exact three-term recursion T(k+1) = T(k-1) - iH T(k)."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    dim = model.dim
    # Column c of T(k) obeys the update rule itself, starting from e_c, 0, so
    # the recursion is the stepping kernel run on raw columns.  T(k) is
    # F_{k-1}(-iH), a polynomial of parity k in the self-adjoint H, so
    # T(k)^dagger = (-1)^k T(k): only rows 0..c of column c are stepped, and
    # each entry below the diagonal is (-1)^k times the conjugate of its
    # stepped mirror image.
    prefixes = [model.h_rows[:c + 1] for c in range(dim)]
    prev = [[(int(r == c), 0) for r in range(dim)] for c in range(dim)]
    curr = [[(0, 0)] * dim for _ in range(dim)]
    seq = [TransferPolynomial(0, _compile_rows(zip(*prev)))]
    if k_max >= 1:
        seq.append(TransferPolynomial(1, _compile_rows(zip(*curr))))
    for k in range(2, k_max + 1):
        upper = [_step_raw(prefixes[c], prev[c][:c + 1], curr[c]) for c in range(dim)]
        sign = 1 if k % 2 == 0 else -1
        prev, curr = curr, [
            col + [(sign * upper[r][c][0], -sign * upper[r][c][1]) for r in range(c + 1, dim)]
            for c, col in enumerate(upper)
        ]
        seq.append(TransferPolynomial(k, _compile_rows(zip(*curr))))
    return seq


def equal_initial_form(model: HamiltonianModel, psi0: GaussianIntVector, n: int) -> GaussianIntVector:
    """[T(n+1) + T(n)] psi0, the exact trajectory when psi1 is chosen equal to psi0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    seq = transfer_sequence(model, n + 1)
    psi0 = GaussianIntVector(psi0)
    return seq[n + 1].apply(psi0) + seq[n].apply(psi0)


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
