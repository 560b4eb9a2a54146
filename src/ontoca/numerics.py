"""Small shared numeric helpers on top of numpy."""

from __future__ import annotations

import numpy as np


def expm_hermitian(matrix: np.ndarray, prefactor: complex = 1.0) -> np.ndarray:
    """exp(prefactor * M) for self-adjoint M, via eigendecomposition.

    `matrix` may be a stack of shape (..., n, n); every matrix in it is
    exponentiated by one batched `eigh` call.
    """
    evals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.exp(prefactor * evals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def max_abs(arr) -> float:
    arr = np.asarray(arr)
    return float(np.max(np.abs(arr))) if arr.size else 0.0
