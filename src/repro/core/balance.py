"""Particle balance diagnostics.

For a converged steady-state solution the integrated balance must close:

    (fixed source emission) = (absorption) + (net boundary leakage)

per group *after* accounting for energy transfer by scattering, and summed
over groups exactly.  The balance residual is a strong end-to-end check of
the discretisation, the sweep order and the source iteration, and is used by
the integration tests (SNAP prints the same diagnostic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..materials.cross_sections import MaterialLibrary
from ..materials.source_terms import FixedSource

__all__ = ["BalanceReport", "particle_balance"]


@dataclass(frozen=True)
class BalanceReport:
    """Group-wise particle balance of a solution.

    All quantities are volume/surface integrated rates per group.

    Attributes
    ----------
    emission:
        Fixed-source emission.
    absorption:
        Absorption (``sigma_a`` weighted flux integral).
    leakage:
        Net leakage through the domain boundary.
    scattering_in:
        Scattering gains from other groups.
    scattering_out:
        Scattering losses to other groups (in-group scattering cancels and is
        excluded from both).
    """

    emission: np.ndarray
    absorption: np.ndarray
    leakage: np.ndarray
    scattering_in: np.ndarray
    scattering_out: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        """Per-group balance residual (should vanish at convergence)."""
        return (
            self.emission
            + self.scattering_in
            - self.scattering_out
            - self.absorption
            - self.leakage
        )

    @property
    def total_residual(self) -> float:
        """Residual of the group-summed balance (scattering transfer cancels)."""
        return float(self.emission.sum() - self.absorption.sum() - self.leakage.sum())

    def relative_residual(self) -> float:
        """Total residual normalised by the total emission."""
        total = float(self.emission.sum())
        return abs(self.total_residual) / total if total > 0.0 else abs(self.total_residual)


def particle_balance(
    scalar_flux: np.ndarray,
    node_weights: np.ndarray,
    materials: MaterialLibrary,
    fixed: FixedSource,
    leakage: np.ndarray,
    volumes: np.ndarray,
) -> BalanceReport:
    """Compute the group-wise particle balance of a solution.

    Parameters
    ----------
    scalar_flux:
        ``(E, G, N)`` nodal scalar flux.
    node_weights:
        ``(E, N)`` nodal integration weights
        (:attr:`ElementMatrices.node_int_weights
        <repro.core.assembly.ElementMatrices.node_int_weights>`).
    materials:
        Material library covering the mesh.
    fixed:
        The fixed source.
    leakage:
        ``(G,)`` net boundary leakage accumulated during the final sweep.
    volumes:
        ``(E,)`` element volumes.
    """
    flux_integral = np.einsum("egn,en->eg", scalar_flux, node_weights)  # (E, G)

    sigma_t = materials.sigma_t_per_cell()  # (E, G)
    sigma_s = materials.sigma_s_per_cell()  # (E, G, G)
    sigma_a = sigma_t - sigma_s.sum(axis=2)

    absorption = np.einsum("eg,eg->g", sigma_a, flux_integral)
    emission = fixed.total_emission(volumes)

    off_diag = sigma_s.copy()
    eye = np.eye(sigma_s.shape[1], dtype=bool)
    off_diag[:, eye] = 0.0
    scattering_out = np.einsum("egh,eg->g", off_diag, flux_integral)
    scattering_in = np.einsum("egh,eg->h", off_diag, flux_integral)

    return BalanceReport(
        emission=np.asarray(emission, dtype=float),
        absorption=absorption,
        leakage=np.asarray(leakage, dtype=float),
        scattering_in=scattering_in,
        scattering_out=scattering_out,
    )
