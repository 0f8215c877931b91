"""LAPACK-backed local solvers (the paper's MKL ``dgesv`` path).

The C++ mini-app links against the Intel Math Kernel Library and calls
``dgesv`` for each local system.  NumPy and SciPy dispatch to the same LAPACK
interfaces (``gesv`` / ``getrf`` + ``getrs``), so :func:`lapack_solve` is the
faithful substitution: identical algorithm (LU with partial pivoting),
different vendor.  The batched variant stacks all energy-group systems of an
element and lets LAPACK loop over them, mirroring the "batched routine"
discussion of Section IV-B.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lapack_solve", "batched_lapack_solve", "lu_factor_solve"]


def lapack_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve one dense system via LAPACK ``dgesv`` (``numpy.linalg.solve``)."""
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return np.linalg.solve(matrix, rhs)


def batched_lapack_solve(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a batch of dense systems via LAPACK.

    ``numpy.linalg.solve`` broadcasts over leading dimensions, calling the
    LAPACK kernel once per system, which is exactly what an MKL batched
    ``dgesv`` would do for on-the-fly constructed matrices.
    """
    matrices = np.asarray(matrices, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrices.ndim != 3:
        raise ValueError(f"matrices must have shape (B, N, N), got {matrices.shape}")
    if rhs.shape != matrices.shape[:2]:
        raise ValueError(f"rhs must have shape (B, N), got {rhs.shape}")
    return np.linalg.solve(matrices, rhs[..., None])[..., 0]


def lu_factor_solve(matrix: np.ndarray, rhs_batch: np.ndarray) -> np.ndarray:
    """Factor once, solve many right-hand sides (the pre-assembly optimisation).

    Section IV-B.1 of the paper discusses pre-assembling (and factorising) the
    invariant local matrices and reusing them across iterations.  This helper
    provides that path: LU factorisation via ``scipy.linalg.lu_factor``
    followed by ``lu_solve`` for a batch of right-hand sides.

    Parameters
    ----------
    matrix:
        ``(N, N)`` coefficient matrix.
    rhs_batch:
        ``(N,)`` or ``(k, N)`` right-hand sides.
    """
    import scipy.linalg  # on first use: no other solver path needs scipy

    matrix = np.asarray(matrix, dtype=float)
    rhs_batch = np.asarray(rhs_batch, dtype=float)
    lu, piv = scipy.linalg.lu_factor(matrix)
    if rhs_batch.ndim == 1:
        return scipy.linalg.lu_solve((lu, piv), rhs_batch)
    return np.stack([scipy.linalg.lu_solve((lu, piv), r) for r in rhs_batch], axis=0)
