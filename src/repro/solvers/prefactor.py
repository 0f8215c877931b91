"""Batched LU factorisation for the pre-factorised sweep engine.

Section IV-B.1 of the paper observes that the per-element streaming +
collision matrices are fixed across the inner (and outer) iterations of a
fixed-cross-section solve, so their factorisations can be computed *once*
and reused for every subsequent right-hand side -- turning the per-sweep
``O(N^3)`` dense solve into an ``O(N^2)`` pair of triangular substitutions.

Two batched factorisation backends are provided, mirroring the package's
two local-solver families:

* :func:`batched_gaussian_lu_factor` / :func:`batched_gaussian_lu_solve`
  -- a hand-written LU with partial pivoting, vectorised over the batch
  exactly like :func:`repro.solvers.gaussian.batched_gaussian_solve` (the
  same elimination order, so results agree to machine precision);
* :func:`batched_lapack_lu_factor` / :func:`batched_lapack_lu_solve` --
  SciPy's ``lu_factor``/``lu_solve`` (LAPACK ``getrf``/``getrs``), which
  accept stacked ``(B, N, N)`` systems.

A factorisation is the opaque pair ``(lu, piv)``; callers must treat it as
a token produced by the matching ``factor`` function.

SciPy is imported by the two LAPACK functions on first use, so runs that
never factorise through LAPACK do not pay its import.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "batched_gaussian_lu_factor",
    "batched_gaussian_lu_solve",
    "batched_lapack_lu_factor",
    "batched_lapack_lu_solve",
]

BatchedLU = tuple[np.ndarray, np.ndarray]


def batched_gaussian_lu_factor(matrices: np.ndarray) -> BatchedLU:
    """LU-factorise a batch of dense systems with one vectorised elimination.

    Parameters
    ----------
    matrices:
        ``(B, N, N)`` stack of coefficient matrices (not modified).

    Returns
    -------
    ``(lu, piv)`` where ``lu`` is the ``(B, N, N)`` packed factorisation
    (unit lower triangle below the diagonal, upper triangle on and above)
    and ``piv`` the ``(B, N)`` sequence of row swaps, in LAPACK ``getrf``
    convention: at step ``k`` row ``k`` was swapped with row ``piv[:, k]``.

    Notes
    -----
    The elimination runs over the matrix dimension only, with every row
    operation applied to the whole batch at once -- the same vectorisation
    (and the same pivot choices and arithmetic) as
    :func:`repro.solvers.gaussian.batched_gaussian_solve`, so a factor +
    solve reproduces the one-shot solve to machine precision.
    """
    a = np.array(matrices, dtype=float, copy=True)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"matrices must have shape (B, N, N), got {a.shape}")
    batch, n = a.shape[0], a.shape[1]
    batch_index = np.arange(batch)
    piv = np.empty((batch, n), dtype=np.int64)

    for k in range(n):
        pivot = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        piv[:, k] = pivot
        needs_swap = pivot != k
        if np.any(needs_swap):
            rows_k = a[batch_index, k].copy()
            rows_p = a[batch_index, pivot].copy()
            a[batch_index[needs_swap], k] = rows_p[needs_swap]
            a[batch_index[needs_swap], pivot[needs_swap]] = rows_k[needs_swap]
        if np.any(np.abs(a[:, k, k]) == 0.0):
            raise np.linalg.LinAlgError("at least one matrix in the batch is singular")
        factors = a[:, k + 1 :, k] / a[:, k, k][:, None]
        a[:, k + 1 :, k + 1 :] -= factors[:, :, None] * a[:, None, k, k + 1 :]
        # Store the multipliers in the eliminated column: packed LU.
        a[:, k + 1 :, k] = factors
    return a, piv


def batched_gaussian_lu_solve(factorisation: BatchedLU, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(B, N)`` right-hand sides against a packed batched LU.

    Applies the recorded row swaps, then one vectorised forward and one
    backward substitution -- ``O(N^2)`` per system instead of the
    ``O(N^3)`` elimination.
    """
    lu, piv = factorisation
    b = np.array(rhs, dtype=float, copy=True)
    if b.shape != lu.shape[:2]:
        raise ValueError(f"rhs must have shape (B, N) = {lu.shape[:2]}, got {b.shape}")
    batch, n = lu.shape[0], lu.shape[1]
    batch_index = np.arange(batch)

    for k in range(n):
        pivot = piv[:, k]
        needs_swap = pivot != k
        if np.any(needs_swap):
            bk = b[batch_index, k].copy()
            bp = b[batch_index, pivot].copy()
            b[batch_index[needs_swap], k] = bp[needs_swap]
            b[batch_index[needs_swap], pivot[needs_swap]] = bk[needs_swap]
    for k in range(n - 1):
        b[:, k + 1 :] -= lu[:, k + 1 :, k] * b[:, k][:, None]
    x = np.empty_like(b)
    for k in range(n - 1, -1, -1):
        x[:, k] = (b[:, k] - np.einsum("bj,bj->b", lu[:, k, k + 1 :], x[:, k + 1 :])) / lu[:, k, k]
    return x


def batched_lapack_lu_factor(matrices: np.ndarray) -> BatchedLU:
    """LU-factorise a batch of dense systems via LAPACK ``getrf``.

    Recent SciPy accepts stacked ``(B, N, N)`` input directly; on older
    versions (which reject N-D input with ``ValueError``) the factorisation
    falls back to a per-system loop with identical results.
    """
    import scipy.linalg

    matrices = np.asarray(matrices, dtype=float)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError(f"matrices must have shape (B, N, N), got {matrices.shape}")
    try:
        return scipy.linalg.lu_factor(matrices)
    except ValueError:
        lu = np.empty_like(matrices)
        piv = np.empty(matrices.shape[:2], dtype=np.int64)
        for i in range(matrices.shape[0]):
            lu[i], piv[i] = scipy.linalg.lu_factor(matrices[i])
        return lu, piv


def batched_lapack_lu_solve(factorisation: BatchedLU, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(B, N)`` right-hand sides against a LAPACK ``getrf`` result."""
    import scipy.linalg

    lu, piv = factorisation
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != lu.shape[:2]:
        raise ValueError(f"rhs must have shape (B, N) = {lu.shape[:2]}, got {rhs.shape}")
    try:
        return scipy.linalg.lu_solve(factorisation, rhs[..., None])[..., 0]
    except ValueError:
        # Pre-batched-SciPy fallback, one triangular solve per system.
        return np.stack(
            [scipy.linalg.lu_solve((lu[i], piv[i]), rhs[i]) for i in range(lu.shape[0])],
            axis=0,
        )
