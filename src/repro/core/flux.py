"""Flux storage containers.

The FEM stores a solution for the angular flux on each node of each cell for
each angular direction and energy group -- the dominant memory consumer of
the application (8x the finite-difference footprint for linear elements).
During the sweep only the current angle's nodal fluxes are live per element,
so the default containers hold:

* :class:`FluxMoments` -- the nodal *scalar* flux (and the previous iterate
  needed for convergence tests and the Jacobi source lags);
* :class:`AngularFluxBank` -- an optional full ``(E, A, G, N)`` angular-flux
  store for diagnostics, accuracy studies and the memory-footprint analysis
  of Section II-C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FluxMoments", "AngularFluxBank"]


@dataclass
class FluxMoments:
    """Nodal scalar flux (zeroth angular moment) per element, group and node.

    Attributes
    ----------
    scalar:
        ``(E, G, N)`` nodal scalar flux of the current iterate.
    """

    scalar: np.ndarray

    @classmethod
    def zeros(cls, num_elements: int, num_groups: int, num_nodes: int) -> "FluxMoments":
        return cls(scalar=np.zeros((num_elements, num_groups, num_nodes), dtype=float))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.scalar.shape

    def copy(self) -> "FluxMoments":
        return FluxMoments(scalar=self.scalar.copy())

    def cell_average(self, volumes: np.ndarray, node_weights: np.ndarray) -> np.ndarray:
        """Volume-averaged scalar flux per cell and group, ``(E, G)``."""
        integrals = np.einsum("egn,en->eg", self.scalar, node_weights)
        return integrals / volumes[:, None]

    def group_integrals(self, node_weights: np.ndarray) -> np.ndarray:
        """Domain-integrated scalar flux per group, ``(G,)``."""
        return np.einsum("egn,en->g", self.scalar, node_weights)

    def memory_footprint_bytes(self) -> int:
        return self.scalar.nbytes


@dataclass
class AngularFluxBank:
    """Full angular flux storage, ``psi[e, a, g, n]``.

    This is optional: the sweep itself only needs the upwind traces of the
    current angle, but storing the full angular flux enables the
    memory-footprint studies of Section II-C, boundary-leakage spectra and
    pointwise verification against analytic solutions.
    """

    psi: np.ndarray

    @classmethod
    def zeros(
        cls, num_elements: int, num_angles: int, num_groups: int, num_nodes: int
    ) -> "AngularFluxBank":
        return cls(psi=np.zeros((num_elements, num_angles, num_groups, num_nodes), dtype=float))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.psi.shape

    def scalar_flux(self, weights: np.ndarray) -> np.ndarray:
        """Collapse to the nodal scalar flux with the quadrature weights."""
        return np.einsum("a,eagn->egn", weights, self.psi)

    def memory_footprint_bytes(self) -> int:
        return self.psi.nbytes

    def fd_footprint_ratio(self) -> float:
        """Ratio of this storage to the equivalent finite-difference storage.

        The FD method keeps a single value per cell/angle/group, so the ratio
        is simply the number of nodes per element (8 for linear elements, as
        quoted in Section II-C).
        """
        return float(self.psi.shape[3])
