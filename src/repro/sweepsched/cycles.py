"""Cycle detection in the per-angle upwind dependency graph.

On a sufficiently distorted unstructured mesh the upwind dependency graph can
contain cycles, in which case no sweep order exists without breaking an edge.
The paper's first UnSNAP version explicitly assumes cycles do not occur and
defers cycle breaking to future work.  We take the same position for the
solve itself, but rather than silently hanging we detect cycles during
schedule construction and raise :class:`CycleError` carrying the offending
cells and a set of representative cycles (found with :mod:`networkx`,
imported on that diagnostic path only) so that the failure is diagnosable.
"""

from __future__ import annotations

import numpy as np

from ..mesh.hexmesh import BOUNDARY, UnstructuredHexMesh
from .graph import FaceClassification

__all__ = ["CycleError", "find_dependency_cycles"]


class CycleError(RuntimeError):
    """Raised when a per-angle upwind dependency graph is not acyclic."""

    def __init__(self, unscheduled_cells: np.ndarray, cycles: list[list[int]]):
        self.unscheduled_cells = np.asarray(unscheduled_cells, dtype=np.int64)
        self.cycles = cycles
        preview = ", ".join(str(c) for c in self.unscheduled_cells[:8].tolist())
        more = "..." if self.unscheduled_cells.size > 8 else ""
        message = (
            f"sweep dependency graph contains cycles: {self.unscheduled_cells.size} "
            f"cells could not be scheduled (cells {preview}{more}); "
            f"{len(cycles)} representative cycle(s) found. "
            "Cycle breaking is not implemented (matching the paper's first "
            "version of UnSNAP); reduce the mesh distortion."
        )
        super().__init__(message)


def find_dependency_cycles(
    mesh: UnstructuredHexMesh,
    classification: FaceClassification,
    restrict_to: np.ndarray | None = None,
    max_cycles: int = 10,
) -> list[list[int]]:
    """Find representative cycles of the upwind dependency graph.

    Parameters
    ----------
    mesh, classification:
        The mesh and the per-direction face classification.
    restrict_to:
        Optional subset of cells to consider (e.g. the cells left unscheduled
        by the tlevel construction); edges to cells outside the subset are
        ignored.
    max_cycles:
        Cap on the number of cycles returned (cycle enumeration can be
        exponential).
    """
    try:
        import networkx as nx
    except ImportError:  # pragma: no cover - environment without networkx
        return []

    orientation = classification.orientation
    nbrs = mesh.face_neighbors
    allowed = None
    if restrict_to is not None:
        allowed = set(np.asarray(restrict_to, dtype=np.int64).tolist())

    graph = nx.DiGraph()
    cells, faces = np.nonzero((orientation == 1) & (nbrs != BOUNDARY))
    for cell, face in zip(cells.tolist(), faces.tolist()):
        target = int(nbrs[cell, face])
        if allowed is not None and (cell not in allowed or target not in allowed):
            continue
        graph.add_edge(int(cell), target)

    cycles: list[list[int]] = []
    try:
        for cycle in nx.simple_cycles(graph):
            cycles.append([int(c) for c in cycle])
            if len(cycles) >= max_cycles:
                break
    except nx.NetworkXNoCycle:  # pragma: no cover - defensive
        return []
    return cycles
