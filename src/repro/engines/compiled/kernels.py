"""The compiled tier's kernels, in portable Python: the single source of truth.

``numba.njit`` compiles these bodies as they are, and :mod:`.cgen` emits the
cffi provider's C from them, statement for statement -- so they keep to the
subset both accept (explicit loops over preallocated C-contiguous arrays,
scalar locals, no numpy API beyond indexing; see :mod:`.cgen`), and the
tests hold every provider to them bit for bit.  Every argument's dtype and
shape is in :data:`ARGUMENTS`: ``B`` bucket elements, ``G`` groups, ``N``
nodes per element, ``E`` mesh elements, ``K`` packed couplings, ``S = B*G``
systems, ``R`` rows of the angle's ``psi``.

Build contract
--------------
``build_bucket_kernel`` assembles the bucket's local systems (``-Omega.G``
plus the outflow own-face terms plus ``sigma_t * M``) into ``lu``, system
``b*G + g`` belonging to element ``b``, group ``g``, and packs the coupling
``Omega . face_neighbor`` of every coupled inflow face into ``cpl_pos`` /
``cpl_src`` / ``cpl_mat`` (bucket position, upwind ``psi`` row, matrix),
face-major: all of face 0 in bucket order, then face 1, ...  ``orient`` is
+1 outflow, -1 inflow, 0 tangential for this ``direction``; ``upwind`` is
the row of ``psi`` holding each inflow face's upwind nodal vector -- the
interior neighbour's element id, or ``E + slot`` for the ghost row of a
boundary face, which is coupled exactly like a neighbour -- and negative
everywhere else, so ``K`` counts its non-negative entries.  ``gradient``,
``mass`` and ``sigma_t`` hold the bucket elements' rows; ``face_own`` and
``face_neighbor`` are the whole mesh's, indexed through ``bucket``.

``lu_factor_kernel(lu, piv)`` factorises in place: on return ``lu`` holds
the packed factors (unit lower triangle below the diagonal) and ``piv`` the
row swaps in LAPACK ``getrf`` convention.  Pivot choice (first maximum of
the column, the tie rule of ``np.argmax``) and arithmetic are those of
:func:`repro.solvers.prefactor.batched_gaussian_lu_factor`, whose ``lu`` and
``piv`` it reproduces bit for bit.  Returns 0, or 1 as soon as a system
turns out singular (a zero pivot column); ``lu`` is then half-factorised
garbage.

Sweep contract
--------------
``sweep_bucket_kernel`` assembles the bucket's right-hand sides (the
per-ordinate total ``source``, indexed through ``bucket``, times ``mass``,
minus the packed upwind couplings) into the scratch ``rhs`` -- nothing is
read from it -- runs the pivoted forward/backward substitutions against
``lu``/``piv`` in place and writes the solution to the bucket's rows of
``psi``.  Rows ``< E`` of ``psi`` are the elements (upwind values are read
from earlier buckets); rows ``>= E`` are the read-only ghost rows, one per
boundary face, holding the boundary inflow the engine filled in before the
angle's first bucket.
"""

from __future__ import annotations

__all__ = ["ARGUMENTS", "build_bucket_kernel", "lu_factor_kernel", "sweep_bucket_kernel"]

#: dtype and shape of every kernel argument, by name: a letter is a size
#: shared by every argument that names it in one call, a digit a fixed size.
#: numba ignores this table; cgen types the C by it.
ARGUMENTS = {
    "bucket": "i64[B]",
    "orient": "i64[B, 6]",
    "upwind": "i64[B, 6]",
    "direction": "f64[3]",
    "gradient": "f64[B, 3, N, N]",
    "face_own": "f64[E, 6, 3, N, N]",
    "face_neighbor": "f64[E, 6, 3, N, N]",
    "mass": "f64[B, N, N]",
    "sigma_t": "f64[B, G]",
    "source": "f64[E, G, N]",
    "cpl_pos": "i64[K]",
    "cpl_src": "i64[K]",
    "cpl_mat": "f64[K, N, N]",
    "lu": "f64[S, N, N]",
    "piv": "i64[S, N]",
    "rhs": "f64[B, G, N]",
    "psi": "f64[R, G, N]",
}


def build_bucket_kernel(
    bucket, orient, upwind, direction, gradient, face_own, face_neighbor,
    mass, sigma_t, lu, cpl_pos, cpl_src, cpl_mat,
):
    """Assemble one bucket's local systems and packed upwind couplings (see module docs)."""
    num_bucket = bucket.shape[0]
    num_groups = sigma_t.shape[1]
    num_nodes = mass.shape[1]
    o0 = direction[0]
    o1 = direction[1]
    o2 = direction[2]

    for b in range(num_bucket):
        grad = gradient[b]
        base = lu[b * num_groups]
        # Streaming matrix, accumulated in the element's first system:
        # -Omega.G plus Omega.F_own of every outflow face.
        for i in range(num_nodes):
            for j in range(num_nodes):
                base[i, j] = -(o0 * grad[0, i, j] + o1 * grad[1, i, j] + o2 * grad[2, i, j])
        for face in range(6):
            if orient[b, face] == 1:
                own = face_own[bucket[b], face]
                for i in range(num_nodes):
                    for j in range(num_nodes):
                        base[i, j] += o0 * own[0, i, j] + o1 * own[1, i, j] + o2 * own[2, i, j]
        # Per-group systems A[b, g] = base + sigma_t[b, g] * M[b]; group 0
        # last, because it overwrites the base it is built from.
        for g in range(num_groups - 1, -1, -1):
            sigma = sigma_t[b, g]
            for i in range(num_nodes):
                for j in range(num_nodes):
                    lu[b * num_groups + g, i, j] = base[i, j] + sigma * mass[b, i, j]

    # Interior upwind couplings, face-major.
    k = 0
    for face in range(6):
        for b in range(num_bucket):
            if upwind[b, face] >= 0:
                nbr = face_neighbor[bucket[b], face]
                cpl = cpl_mat[k]
                cpl_pos[k] = b
                cpl_src[k] = upwind[b, face]
                for i in range(num_nodes):
                    for j in range(num_nodes):
                        cpl[i, j] = o0 * nbr[0, i, j] + o1 * nbr[1, i, j] + o2 * nbr[2, i, j]
                k += 1


def lu_factor_kernel(lu, piv):
    """In-place partial-pivot LU of a ``(S, N, N)`` stack; 0, or 1 if singular."""
    num_systems = lu.shape[0]
    num_nodes = lu.shape[1]

    for s in range(num_systems):
        for k in range(num_nodes):
            # First maximum of |column k| on and below the diagonal.
            p = k
            best = abs(lu[s, k, k])
            for i in range(k + 1, num_nodes):
                value = abs(lu[s, i, k])
                if value > best:
                    best = value
                    p = i
            piv[s, k] = p
            if best == 0.0:
                return 1
            if p != k:
                for j in range(num_nodes):
                    tmp = lu[s, k, j]
                    lu[s, k, j] = lu[s, p, j]
                    lu[s, p, j] = tmp
            pivot = lu[s, k, k]
            for i in range(k + 1, num_nodes):
                factor = lu[s, i, k] / pivot
                for j in range(k + 1, num_nodes):
                    lu[s, i, j] -= factor * lu[s, k, j]
                # Store the multiplier in the eliminated column: packed LU.
                lu[s, i, k] = factor
    return 0


def sweep_bucket_kernel(bucket, mass, source, cpl_pos, cpl_src, cpl_mat, lu, piv, rhs, psi):
    """Fused assemble + factored-solve of one wavefront bucket (see module docs)."""
    num_bucket = bucket.shape[0]
    num_groups = rhs.shape[1]
    num_nodes = rhs.shape[2]

    # Volumetric source: rhs[b, g, i] = sum_j source[e, g, j] * mass[b, i, j].
    for b in range(num_bucket):
        element = bucket[b]
        for g in range(num_groups):
            for i in range(num_nodes):
                acc = 0.0
                for j in range(num_nodes):
                    acc += source[element, g, j] * mass[b, i, j]
                rhs[b, g, i] = acc
    # Upwind couplings: psi of earlier buckets is final, ghost rows are given.
    for k in range(cpl_pos.shape[0]):
        b = cpl_pos[k]
        upwind = cpl_src[k]
        for g in range(num_groups):
            for i in range(num_nodes):
                acc = 0.0
                for j in range(num_nodes):
                    acc += psi[upwind, g, j] * cpl_mat[k, i, j]
                rhs[b, g, i] -= acc

    # Pivoted forward/backward substitution against the packed LU, in place
    # in rhs, then scatter into psi.  Mirrors batched_gaussian_lu_solve.
    for b in range(num_bucket):
        element = bucket[b]
        for g in range(num_groups):
            s = b * num_groups + g
            for k in range(num_nodes):
                p = piv[s, k]
                if p != k:
                    tmp = rhs[b, g, k]
                    rhs[b, g, k] = rhs[b, g, p]
                    rhs[b, g, p] = tmp
            for k in range(num_nodes - 1):
                bk = rhs[b, g, k]
                for j in range(k + 1, num_nodes):
                    rhs[b, g, j] -= lu[s, j, k] * bk
            for k in range(num_nodes - 1, -1, -1):
                acc = rhs[b, g, k]
                for j in range(k + 1, num_nodes):
                    acc -= lu[s, k, j] * rhs[b, g, j]
                rhs[b, g, k] = acc / lu[s, k, k]
            for i in range(num_nodes):
                psi[element, g, i] = rhs[b, g, i]
