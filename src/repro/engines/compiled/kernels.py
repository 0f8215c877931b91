"""The compiled tier's kernels, in portable Python: the single source of truth.

``numba.njit`` compiles these bodies as they are, and :mod:`.cgen` emits the
cffi provider's C from them, statement for statement -- so they keep to the
subset both accept (explicit loops over preallocated C-contiguous arrays,
scalar locals, no numpy API beyond indexing; see :mod:`.cgen`), and the
tests hold every provider to them bit for bit.  Every argument's dtype and
shape is in :data:`ARGUMENTS`: ``E`` mesh elements, ``G`` groups, ``N``
nodes per element, ``T`` bucket offsets (buckets + 1), ``K`` packed
couplings, ``S = E*G`` systems, ``R`` rows of the angle's ``psi``.

One call covers one angle: ``elements`` lists the mesh elements in sweep
order, and bucket ``t`` is ``elements[offsets[t]:offsets[t + 1]]``.  System
``p*G + g`` belongs to the element at position ``p``, group ``g``.

Build contract
--------------
``build_angle_kernel`` assembles every element's local systems (``-Omega.G``
plus the outflow own-face terms plus ``sigma_t * M``) into ``lu`` and packs
the coupling ``Omega . face_neighbor`` of every coupled inflow face into
``cpl_pos`` / ``cpl_src`` / ``cpl_mat`` (the element's ``psi`` row, the
upwind ``psi`` row, the matrix), bucket by bucket and face-major within a
bucket: all of face 0 in bucket order, then face 1, ...  ``orient`` is +1
outflow, -1 inflow, 0 tangential for this ``direction``; ``upwind`` is the
row of ``psi`` holding each inflow face's upwind nodal vector -- the
interior neighbour's element id, or ``E + slot`` for the ghost row of a
boundary face, which is coupled exactly like a neighbour -- and negative
everywhere else, so ``K`` counts its non-negative entries.  Both are in
sweep order; ``gradient``, ``mass``, ``sigma_t``, ``face_own`` and
``face_neighbor`` are the whole mesh's, indexed through ``elements``.

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
``sweep_angle_kernel`` runs the buckets of ``offsets`` in order, and each in
three phases: the right-hand sides (the per-ordinate total ``source`` times
``mass``) of its elements, minus its packed upwind couplings -- those of
``cpl_offsets[t]:cpl_offsets[t + 1]`` -- then the pivoted forward/backward
substitutions against ``lu``/``piv``.  All three work in place in the
elements' rows of ``psi``, which end up holding the solution.  Rows ``< E``
of ``psi`` are the elements (upwind values are read from earlier buckets);
rows ``>= E`` are the read-only ghost rows, one per boundary face, holding
the boundary inflow the engine filled in before the call.  ``offsets`` and
``cpl_offsets`` may be any equal-length slices of the angle's: a slice
sweeps just those buckets, with the same arithmetic.
"""

from __future__ import annotations

__all__ = ["ARGUMENTS", "build_angle_kernel", "lu_factor_kernel", "sweep_angle_kernel"]

#: dtype and shape of every kernel argument, by name: a letter is a size
#: shared by every argument that names it in one call, a digit a fixed size.
#: numba ignores this table; cgen types the C by it.
ARGUMENTS = {
    "offsets": "i64[T]",
    "cpl_offsets": "i64[T]",
    "elements": "i64[E]",
    "orient": "i64[E, 6]",
    "upwind": "i64[E, 6]",
    "direction": "f64[3]",
    "gradient": "f64[E, 3, N, N]",
    "face_own": "f64[E, 6, 3, N, N]",
    "face_neighbor": "f64[E, 6, 3, N, N]",
    "mass": "f64[E, N, N]",
    "sigma_t": "f64[E, G]",
    "source": "f64[E, G, N]",
    "cpl_pos": "i64[K]",
    "cpl_src": "i64[K]",
    "cpl_mat": "f64[K, N, N]",
    "lu": "f64[S, N, N]",
    "piv": "i64[S, N]",
    "psi": "f64[R, G, N]",
}


def build_angle_kernel(
    offsets, elements, orient, upwind, direction, gradient, face_own, face_neighbor,
    mass, sigma_t, lu, cpl_pos, cpl_src, cpl_mat,
):
    """Assemble one angle's local systems and packed upwind couplings (see module docs)."""
    num_groups = sigma_t.shape[1]
    num_nodes = mass.shape[1]
    o0 = direction[0]
    o1 = direction[1]
    o2 = direction[2]

    for p in range(elements.shape[0]):
        element = elements[p]
        grad = gradient[element]
        base = lu[p * num_groups]
        # Streaming matrix, accumulated in the element's first system:
        # -Omega.G plus Omega.F_own of every outflow face.
        for i in range(num_nodes):
            for j in range(num_nodes):
                base[i, j] = -(o0 * grad[0, i, j] + o1 * grad[1, i, j] + o2 * grad[2, i, j])
        for face in range(6):
            if orient[p, face] == 1:
                own = face_own[element, face]
                for i in range(num_nodes):
                    for j in range(num_nodes):
                        base[i, j] += o0 * own[0, i, j] + o1 * own[1, i, j] + o2 * own[2, i, j]
        # Per-group systems A[p, g] = base + sigma_t[e, g] * M[e]; group 0
        # last, because it overwrites the base it is built from.
        for g in range(num_groups - 1, -1, -1):
            sigma = sigma_t[element, g]
            for i in range(num_nodes):
                for j in range(num_nodes):
                    lu[p * num_groups + g, i, j] = base[i, j] + sigma * mass[element, i, j]

    # Upwind couplings, bucket by bucket, face-major within a bucket.
    k = 0
    for t in range(offsets.shape[0] - 1):
        for face in range(6):
            for p in range(offsets[t], offsets[t + 1]):
                if upwind[p, face] >= 0:
                    nbr = face_neighbor[elements[p], face]
                    cpl = cpl_mat[k]
                    cpl_pos[k] = elements[p]
                    cpl_src[k] = upwind[p, face]
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


def sweep_angle_kernel(
    offsets, cpl_offsets, elements, mass, source, cpl_pos, cpl_src, cpl_mat, lu, piv, psi,
):
    """Fused assemble + factored-solve of a run of wavefront buckets (see module docs)."""
    num_groups = psi.shape[1]
    num_nodes = psi.shape[2]

    for t in range(offsets.shape[0] - 1):
        # Volumetric source: psi[e, g, i] = sum_j source[e, g, j] * mass[e, i, j].
        for p in range(offsets[t], offsets[t + 1]):
            element = elements[p]
            for g in range(num_groups):
                for i in range(num_nodes):
                    acc = 0.0
                    for j in range(num_nodes):
                        acc += source[element, g, j] * mass[element, i, j]
                    psi[element, g, i] = acc
        # Upwind couplings: psi of earlier buckets is final, ghost rows are given.
        for k in range(cpl_offsets[t], cpl_offsets[t + 1]):
            element = cpl_pos[k]
            upwind = cpl_src[k]
            for g in range(num_groups):
                for i in range(num_nodes):
                    acc = 0.0
                    for j in range(num_nodes):
                        acc += psi[upwind, g, j] * cpl_mat[k, i, j]
                    psi[element, g, i] -= acc
        # Pivoted forward/backward substitution against the packed LU, in
        # place.  Mirrors batched_gaussian_lu_solve.
        for p in range(offsets[t], offsets[t + 1]):
            element = elements[p]
            for g in range(num_groups):
                s = p * num_groups + g
                for k in range(num_nodes):
                    q = piv[s, k]
                    if q != k:
                        tmp = psi[element, g, k]
                        psi[element, g, k] = psi[element, g, q]
                        psi[element, g, q] = tmp
                for k in range(num_nodes - 1):
                    bk = psi[element, g, k]
                    for j in range(k + 1, num_nodes):
                        psi[element, g, j] -= lu[s, j, k] * bk
                for k in range(num_nodes - 1, -1, -1):
                    acc = psi[element, g, k]
                    for j in range(k + 1, num_nodes):
                        acc -= lu[s, k, j] * psi[element, g, j]
                    psi[element, g, k] = acc / lu[s, k, k]
