"""Local matrix and right-hand-side assembly for the DG transport operator.

For element ``K``, direction ``Omega`` and group ``g`` the local system is

.. math::

    A_{ij} = -\\int_K \\phi_j\\, (\\Omega\\cdot\\nabla\\phi_i)\\,dV
             + \\sigma_{t,g} \\int_K \\phi_i\\phi_j\\,dV
             + \\sum_{f\\,\\text{outflow}} \\oint_f (\\Omega\\cdot n)\\,\\phi_i\\phi_j\\,dS

    b_i = \\int_K S_g\\,\\phi_i\\,dV
          - \\sum_{f\\,\\text{inflow}} \\oint_f (\\Omega\\cdot n)\\,\\phi_i\\,\\psi^{up}\\,dS

The direction-independent pieces (mass matrix, the three components of the
gradient matrix and the normal-weighted face coupling matrices) are
precomputed once per element and combined per angle with two AXPY-like
contractions -- this is the "assembly" whose cost Table II separates from the
solve.  The 13 coefficient arrays the paper's Section III-C mentions map onto
the precomputed factor arrays held by :class:`ElementMatrices`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fem.element import HexElementFactors
from ..fem.reference import ReferenceElement

__all__ = ["ElementMatrices", "AssemblyTimings"]


@dataclass
class AssemblyTimings:
    """Accumulated wall-clock split between assembly and solve.

    The paper instruments the assemble/solve routine the same way to produce
    the "% in solve" column of Table II.
    """

    assembly_seconds: float = 0.0
    solve_seconds: float = 0.0
    systems_solved: int = 0

    @property
    def total_seconds(self) -> float:
        return self.assembly_seconds + self.solve_seconds

    @property
    def solve_fraction(self) -> float:
        """Fraction of the assemble/solve time spent in the solve."""
        total = self.total_seconds
        return self.solve_seconds / total if total > 0.0 else 0.0

    def merge(self, other: "AssemblyTimings") -> "AssemblyTimings":
        return AssemblyTimings(
            assembly_seconds=self.assembly_seconds + other.assembly_seconds,
            solve_seconds=self.solve_seconds + other.solve_seconds,
            systems_solved=self.systems_solved + other.systems_solved,
        )


@dataclass
class ElementMatrices:
    """Precomputed direction-independent local matrices for every element.

    Attributes
    ----------
    mass:
        ``(E, N, N)`` mass matrices ``M_ij = int phi_i phi_j dV``.
    gradient:
        ``(E, 3, N, N)`` gradient matrices
        ``G[d]_ij = int phi_j d(phi_i)/d(x_d) dV``.
    face_own:
        ``(E, 6, 3, N, N)`` normal-weighted own-face coupling matrices
        ``F[f, d]_ij = oint_f n_d phi_i phi_j dS`` (both traces from the
        element itself).
    face_neighbor:
        ``(E, 6, 3, N, N)`` normal-weighted cross-face coupling matrices; the
        ``j`` index refers to the *neighbour's* basis across face ``f``.
    node_int_weights:
        ``(E, N)`` integration weights turning nodal values into cell
        integrals, ``int f dV ~= sum_n w_n f_n``.
    """

    mass: np.ndarray
    gradient: np.ndarray
    face_own: np.ndarray
    face_neighbor: np.ndarray
    node_int_weights: np.ndarray

    @classmethod
    def build(cls, factors: HexElementFactors, ref: ReferenceElement) -> "ElementMatrices":
        """Precompute the local matrices for all elements of a mesh."""
        phi = ref.phi_vol  # (nq, N)
        vol_w = factors.vol_weights  # (E, nq)

        # C-contiguous whatever layout einsum's contraction path leaves, so
        # the compiled kernels read them whole instead of gathering copies.
        mass = np.ascontiguousarray(np.einsum("eq,qi,qj->eij", vol_w, phi, phi, optimize=True))
        gradient = np.ascontiguousarray(
            np.einsum("eq,eqid,qj->edij", vol_w, factors.grad_phys, phi, optimize=True)
        )
        node_int_weights = np.einsum("eq,qi->ei", vol_w, phi)

        num_elements, _, nqf = factors.face_weights.shape
        n = ref.num_nodes
        face_own = np.empty((num_elements, 6, 3, n, n), dtype=float)
        face_neighbor = np.empty((num_elements, 6, 3, n, n), dtype=float)
        for f in range(6):
            w = factors.face_weights[:, f]  # (E, nqf)
            normals = factors.face_normals[:, f]  # (E, nqf, 3)
            phi_own = ref.phi_face[f]  # (nqf, N)
            phi_nbr = ref.phi_face_neighbor[f]  # (nqf, N)
            wn = w[:, :, None] * normals  # (E, nqf, 3)
            face_own[:, f] = np.einsum("eqd,qi,qj->edij", wn, phi_own, phi_own, optimize=True)
            face_neighbor[:, f] = np.einsum(
                "eqd,qi,qj->edij", wn, phi_own, phi_nbr, optimize=True
            )

        return cls(
            mass=mass,
            gradient=gradient,
            face_own=face_own,
            face_neighbor=face_neighbor,
            node_int_weights=node_int_weights,
        )

    # ------------------------------------------------------------------ sizes
    @property
    def num_elements(self) -> int:
        return self.mass.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.mass.shape[1]

    def memory_footprint_bytes(self) -> int:
        return sum(
            a.nbytes
            for a in (
                self.mass,
                self.gradient,
                self.face_own,
                self.face_neighbor,
                self.node_int_weights,
            )
        )

    # -------------------------------------------------------------- assembly
    def streaming_matrix(
        self, element: int, direction: np.ndarray, orientation: np.ndarray
    ) -> np.ndarray:
        """Direction-dependent, group-independent part of ``A`` for one element.

        ``-Omega . G + sum_{f outflow} Omega . F_own[f]``; the group term
        ``sigma_t,g M`` is added per group by :meth:`assemble_systems`.

        Parameters
        ----------
        element:
            Element index.
        direction:
            The ordinate direction ``Omega``.
        orientation:
            ``(6,)`` face orientation of this element for this direction
            (+1 outflow, -1 inflow, 0 tangential) as produced by
            :func:`repro.sweepsched.graph.classify_faces`.
        """
        a = -np.einsum("d,dij->ij", direction, self.gradient[element])
        for f in np.nonzero(orientation == 1)[0]:
            a += np.einsum("d,dij->ij", direction, self.face_own[element, f])
        return a

    def assemble_systems(
        self,
        element: int,
        direction: np.ndarray,
        orientation: np.ndarray,
        sigma_t: np.ndarray,
        source_moments: np.ndarray,
        upwind_traces: dict[int, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the ``(G, N, N)`` matrices and ``(G, N)`` right-hand sides.

        Parameters
        ----------
        element:
            Element index.
        direction:
            Ordinate direction.
        orientation:
            ``(6,)`` face orientation for this direction.
        sigma_t:
            ``(G,)`` total cross section of this element's material.
        source_moments:
            ``(G, N)`` isotropic source density at the element nodes
            (fixed + scattering, already per unit solid angle in the
            normalised-weight convention).
        upwind_traces:
            Mapping from inflow face index to the ``(G, N)`` nodal angular
            flux of the upwind neighbour (or the boundary values).

        Returns
        -------
        ``(A, b)`` with shapes ``(G, N, N)`` and ``(G, N)``.
        """
        base = self.streaming_matrix(element, direction, orientation)
        mass = self.mass[element]
        a = base[None, :, :] + sigma_t[:, None, None] * mass[None, :, :]

        b = source_moments @ mass.T  # (G, N): int phi_i S dV with S nodal
        for f in np.nonzero(orientation == -1)[0]:
            trace = upwind_traces.get(int(f))
            if trace is None:
                continue
            coupling = np.einsum("d,dij->ij", direction, self.face_neighbor[element, f])
            b -= trace @ coupling.T
        return a, b
