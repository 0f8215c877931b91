"""Registry of local solvers selectable by name.

The input deck (and the benchmark harness) selects the local solver by name,
matching UnSNAP's build/run-time choice between the hand-written Gaussian
elimination and the MKL ``dgesv`` path.  Third-party solvers can be plugged
in through :func:`register_solver`; the name+alias mechanics are shared with
the sweep-engine registry via :class:`repro.registry.Registry`::

    from repro.solvers import LocalSolver, register_solver

    register_solver(LocalSolver(name="mine", description="...",
                                solve=my_solve, solve_batched=my_batched))
    repro.run(spec.with_(solver="mine"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..registry import Registry
from .gaussian import batched_gaussian_solve, gaussian_elimination_solve
from .lapack import batched_lapack_solve, lapack_solve
from .prefactor import (
    batched_gaussian_lu_factor,
    batched_gaussian_lu_solve,
    batched_lapack_lu_factor,
    batched_lapack_lu_solve,
)

__all__ = [
    "LocalSolver",
    "register_solver",
    "unregister_solver",
    "get_solver",
    "available_solvers",
    "solver_aliases",
    "solver_descriptions",
    "solver_listing",
]


@dataclass(frozen=True)
class LocalSolver:
    """A named local solver with single-system and batched entry points.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"ge"`` or ``"lapack"``.
    description:
        Human-readable description used in reports.
    solve:
        Callable ``(matrix (N, N), rhs (N,)) -> (N,)``.
    solve_batched:
        Callable ``(matrices (B, N, N), rhs (B, N)) -> (B, N)``.
    factor_batched, solve_factored:
        Optional factor-once/solve-many pair used by the ``prefactorized``
        sweep engine: ``factor_batched(matrices (B, N, N))`` returns an
        opaque factorisation token and ``solve_factored(token, rhs (B, N))``
        solves against it in ``O(N^2)`` per system.  Solvers that leave
        these ``None`` fall back to the hand-written batched LU.
    prefactorisation_exact:
        Whether the factor-once/solve-many pair reproduces
        ``solve_batched`` *bit for bit* (same elimination order, same
        rounding).  The conformance matrix (:mod:`repro.verify.conformance`)
        asserts exact flux equality between the ``vectorized`` and
        ``prefactorized`` engines for solvers that claim this; ``ge`` does
        (the packed LU replays the one-shot elimination), ``lapack`` does
        not (``numpy.linalg.solve`` and scipy's ``lu_factor``/``lu_solve``
        round differently).
    """

    name: str
    description: str
    solve: Callable[[np.ndarray, np.ndarray], np.ndarray]
    solve_batched: Callable[[np.ndarray, np.ndarray], np.ndarray]
    factor_batched: Callable[[np.ndarray], object] | None = None
    solve_factored: Callable[[object, np.ndarray], np.ndarray] | None = None
    prefactorisation_exact: bool = False

    @property
    def supports_prefactorisation(self) -> bool:
        """Whether this solver ships its own factor-once/solve-many pair."""
        return self.factor_batched is not None and self.solve_factored is not None


_SOLVERS: Registry[LocalSolver] = Registry("solver")

_SOLVERS.add(
    "ge",
    LocalSolver(
        name="ge",
        description="hand-written Gaussian elimination with partial pivoting "
        "(vectorised over the batch, the paper's GE path)",
        solve=gaussian_elimination_solve,
        solve_batched=batched_gaussian_solve,
        factor_batched=batched_gaussian_lu_factor,
        solve_factored=batched_gaussian_lu_solve,
        prefactorisation_exact=True,
    ),
    aliases=("gaussian", "gauss", "handwritten"),
)
_SOLVERS.add(
    "lapack",
    LocalSolver(
        name="lapack",
        description="LAPACK dgesv via NumPy/SciPy (the paper's MKL path)",
        solve=lapack_solve,
        solve_batched=batched_lapack_solve,
        factor_batched=batched_lapack_lu_factor,
        solve_factored=batched_lapack_lu_solve,
    ),
    aliases=("mkl", "dgesv", "numpy"),
)


def register_solver(
    solver: LocalSolver, *, aliases: tuple[str, ...] = (), overwrite: bool = False
) -> LocalSolver:
    """Register a :class:`LocalSolver` under its ``name`` (public extension point).

    Parameters
    ----------
    solver:
        The solver to register; ``solver.name`` (lower-cased) is the registry
        key used by the input deck, :func:`repro.run` and ``unsnap run``.
    aliases:
        Extra names accepted by :func:`get_solver`.
    overwrite:
        Allow replacing an existing registration.
    """
    return _SOLVERS.add(solver.name, solver, aliases=aliases, overwrite=overwrite)


#: Remove a solver (and its aliases) from the registry.
unregister_solver = _SOLVERS.remove
#: Look up a solver by name or alias (case-insensitive).
get_solver = _SOLVERS.resolve
#: Names of all registered solvers.
available_solvers = _SOLVERS.available
#: Aliases registered for the given solver name.
solver_aliases = _SOLVERS.aliases_of
#: ``(name, description)`` pairs for reports.
solver_descriptions = _SOLVERS.descriptions
#: ``(name, aliases, description)`` rows for ``unsnap solvers``.
solver_listing = _SOLVERS.listing
