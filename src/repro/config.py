"""Problem specification and runtime options.

A :class:`ProblemSpec` captures everything UnSNAP reads from its input deck:
the SNAP structured grid the unstructured mesh is derived from, the mesh
twist, the finite element order, the angular and energy resolution, the
artificial material/source options, the iteration limits and the local solver
choice.  The paper's two experiment configurations are provided as ready-made
constructors (:func:`ProblemSpec.paper_figure3_4` and
:func:`ProblemSpec.paper_table2`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

__all__ = ["ProblemSpec", "BoundaryCondition", "GEOMETRY_FIELDS"]

#: The :class:`ProblemSpec` fields a solver's geometry -- mesh, reference
#: element, element factors and matrices, quadrature and sweep schedule --
#: is a pure function of.  Specs equal on these share one geometry
#: (:func:`repro.core.solver.geometry_for`); every other field is physics,
#: iteration control or execution.
GEOMETRY_FIELDS = (
    "nx",
    "ny",
    "nz",
    "lx",
    "ly",
    "lz",
    "max_twist",
    "twist_axis",
    "order",
    "angles_per_octant",
)

#: Fields added after the canonical-serialisation contract froze (PR 8's
#: driver subsystem).  They are dropped from :meth:`ProblemSpec.to_dict`
#: while equal to their default so older specs serialise byte-identically;
#: :meth:`ProblemSpec.from_dict` fills absent fields with the same defaults.
_ELIDED_DEFAULTS = (
    ("driver", "fixed_source"),
    ("k_tolerance", 1e-6),
    ("max_power_iters", 50),
    ("dt", 0.1),
    ("n_steps", 10),
    ("t_end", 0.0),
    ("initial_flux_value", 0.0),
    ("snapshot_every", 0),
    ("factor_cache_budget_bytes", 0),
)


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition applied on all domain boundary faces.

    Attributes
    ----------
    kind:
        ``"vacuum"`` (no incoming flux, SNAP's default), ``"incident"``
        (a prescribed isotropic incoming angular flux) or ``"reflective"``
        (specular reflection on every boundary face; the incoming trace is
        the previous sweep's outgoing trace of the mirrored ordinate, lagged
        exactly like a block-Jacobi halo).
    incident_flux:
        The incoming angular flux value used when ``kind == "incident"``.
    """

    kind: str = "vacuum"
    incident_flux: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("vacuum", "incident", "reflective"):
            raise ValueError(f"unknown boundary condition kind {self.kind!r}")
        if self.kind != "incident" and self.incident_flux != 0.0:
            raise ValueError(
                f"{self.kind} boundaries cannot carry an incident flux"
            )

    def incoming_value(self) -> float:
        """The angular-flux value entering through a boundary inflow face."""
        return self.incident_flux if self.kind == "incident" else 0.0


@dataclass(frozen=True)
class ProblemSpec:
    """Full specification of an UnSNAP problem.

    Attributes
    ----------
    nx, ny, nz:
        SNAP structured grid the unstructured mesh is derived from.
    lx, ly, lz:
        Physical domain extents.
    max_twist, twist_axis:
        Mesh twist (radians) and twist axis, per the paper's new input option.
    order:
        Lagrange finite element order (1 = linear, 3 = cubic, ...).
    angles_per_octant:
        Number of discrete ordinates per octant (SNAP-style artificial set).
    num_groups:
        Number of energy groups.
    scattering_ratio:
        Fraction of the total cross section that is scattering (must be < 1).
    source_strength:
        Uniform volumetric fixed source strength ("source option 1" uses 1).
    num_inners, num_outers:
        Inner (within-group) and outer (group-coupling Jacobi) iteration
        counts; the paper runs a fixed 5 inners x 1 outer for timing.
    inner_tolerance, outer_tolerance:
        Convergence tolerances on the scalar-flux relative change; iteration
        stops early when reached (set to 0 to force the fixed iteration count
        as in the paper's timing runs).
    solver:
        Local solver name (``"ge"`` or ``"lapack"``).
    engine:
        Sweep engine name (``"reference"``, ``"vectorized"`` or
        ``"prefactorized"``, or any name registered through
        :func:`repro.engines.register_engine`).  Resolved at execution time
        so engines registered after the spec was built are still usable.
    octant_parallel:
        Sweep the 8 octants concurrently on a thread pool (the octants'
        wavefront buckets are independent); the pool size is the runtime
        ``num_threads`` and the reduction order is deterministic.
    boundary:
        Boundary condition on the domain boundary.
    npex, npey:
        KBA-style 2-D processor grid for the (simulated) MPI decomposition.
    driver:
        Outer-loop driver name (``"fixed_source"``, ``"k_eigenvalue"`` or
        ``"time_dependent"``, or any name registered through
        :func:`repro.drivers.register_driver`).  Resolved at execution time
        like ``engine``.
    k_tolerance, max_power_iters:
        Power-iteration controls for the ``k_eigenvalue`` driver: iteration
        stops when ``|k_m - k_{m-1}| <= k_tolerance`` or after
        ``max_power_iters`` iterations, whichever comes first.
    dt, n_steps, t_end:
        Backward-Euler controls for the ``time_dependent`` driver.  When
        ``t_end > 0`` it overrides ``n_steps`` as ``ceil(t_end / dt)``.
    initial_flux_value:
        Uniform initial scalar-flux value: the ``time_dependent`` driver's
        initial condition, and the ``k_eigenvalue`` driver's initial guess
        when non-zero.
    snapshot_every:
        Keep a scalar-flux snapshot every this many time steps (0 = none;
        snapshots live on ``RunResult.flux_snapshots`` and are never
        serialised).
    factor_cache_budget_bytes:
        Byte budget of the engine factor cache (0 = unbounded, the default).
        Caching engines (``prefactorized``, ``compiled``) keep their packed
        LU factors in LRU order and spill the oldest entries past the
        budget, recomputing them transparently on the next miss -- results
        are bit-for-bit identical to an unbudgeted run.
    """

    nx: int = 8
    ny: int = 8
    nz: int = 8
    lx: float = 1.0
    ly: float = 1.0
    lz: float = 1.0
    max_twist: float = 0.001
    twist_axis: str = "z"
    order: int = 1
    angles_per_octant: int = 4
    num_groups: int = 4
    scattering_ratio: float = 0.5
    source_strength: float = 1.0
    num_inners: int = 5
    num_outers: int = 1
    inner_tolerance: float = 0.0
    outer_tolerance: float = 0.0
    solver: str = "ge"
    engine: str = "reference"
    octant_parallel: bool = False
    boundary: BoundaryCondition = field(default_factory=BoundaryCondition)
    npex: int = 1
    npey: int = 1
    driver: str = "fixed_source"
    k_tolerance: float = 1e-6
    max_power_iters: int = 50
    dt: float = 0.1
    n_steps: int = 10
    t_end: float = 0.0
    initial_flux_value: float = 0.0
    snapshot_every: int = 0
    factor_cache_budget_bytes: int = 0

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("grid must have at least one cell per axis")
        if self.order < 1:
            raise ValueError("element order must be >= 1")
        if self.angles_per_octant < 1:
            raise ValueError("need at least one angle per octant")
        if self.num_groups < 1:
            raise ValueError("need at least one energy group")
        if not 0.0 <= self.scattering_ratio < 1.0:
            raise ValueError("scattering_ratio must be in [0, 1)")
        if self.num_inners < 1 or self.num_outers < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.npex < 1 or self.npey < 1:
            raise ValueError("processor grid dimensions must be >= 1")
        if self.npex > self.nx or self.npey > self.ny:
            raise ValueError("processor grid cannot exceed the cell grid")
        if not self.driver:
            raise ValueError("driver name must be non-empty")
        if self.k_tolerance < 0.0:
            raise ValueError("k_tolerance must be >= 0")
        if self.max_power_iters < 1:
            raise ValueError("max_power_iters must be >= 1")
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.t_end < 0.0:
            raise ValueError("t_end must be >= 0")
        if self.initial_flux_value < 0.0:
            raise ValueError("initial_flux_value must be >= 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.factor_cache_budget_bytes < 0:
            raise ValueError("factor_cache_budget_bytes must be >= 0 (0 = unbudgeted)")

    # ------------------------------------------------------------- derived sizes
    @property
    def num_cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def num_angles(self) -> int:
        """Total ordinates over all 8 octants."""
        return 8 * self.angles_per_octant

    @property
    def nodes_per_element(self) -> int:
        return (self.order + 1) ** 3

    @property
    def num_unknowns(self) -> int:
        """Total angular-flux unknowns: cells x angles x groups x nodes."""
        return self.num_cells * self.num_angles * self.num_groups * self.nodes_per_element

    def angular_flux_bytes(self, dtype_bytes: int = 8) -> int:
        """Memory footprint of the full angular flux (the dominant array)."""
        return self.num_unknowns * dtype_bytes

    @property
    def num_time_steps(self) -> int:
        """Number of backward-Euler steps (``t_end`` overrides ``n_steps``)."""
        if self.t_end > 0.0:
            return max(1, int(math.ceil(self.t_end / self.dt - 1e-12)))
        return self.n_steps

    def with_(self, **changes) -> "ProblemSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # -------------------------------------------------------------- dict I/O
    def to_dict(self) -> dict:
        """JSON-safe dictionary of every field (nested boundary included).

        The campaign :class:`~repro.campaign.store.ResultStore` hashes this
        canonical form to key runs on disk; :meth:`from_dict` inverts it.
        Driver-era fields are elided while they hold their defaults so that
        pre-driver specs keep their exact canonical form (and therefore their
        run keys, store filenames and golden files).
        """
        data = asdict(self)
        for name, default in _ELIDED_DEFAULTS:
            if data[name] == default:
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        values = dict(data)
        boundary = values.get("boundary")
        if isinstance(boundary, dict):
            values["boundary"] = BoundaryCondition(**boundary)
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(values) - known)
        if unknown:
            raise KeyError(
                f"unknown ProblemSpec fields {unknown}; valid fields: {sorted(known)}"
            )
        return cls(**values)

    # ------------------------------------------------------------ paper configs
    @classmethod
    def paper_figure3_4(cls, order: int = 1) -> "ProblemSpec":
        """The thread-scaling study configuration (Figures 3 and 4).

        16^3 elements, 36 angles per octant with isotropic scattering, 64
        energy groups with source and material option 1, linear (Fig. 3) or
        cubic (Fig. 4) elements, mesh twisting up to 0.001 rad, 5 inners and
        1 outer.
        """
        return cls(
            nx=16,
            ny=16,
            nz=16,
            order=order,
            angles_per_octant=36,
            num_groups=64,
            max_twist=0.001,
            num_inners=5,
            num_outers=1,
        )

    @classmethod
    def paper_table2(cls, order: int = 1, solver: str = "ge") -> "ProblemSpec":
        """The solver-comparison configuration (Table II).

        32^3 elements, 10 angles per octant, 16 energy groups, source and
        material option 1, twist up to 0.001 rad, 5 inners and 1 outer.
        """
        return cls(
            nx=32,
            ny=32,
            nz=32,
            order=order,
            angles_per_octant=10,
            num_groups=16,
            max_twist=0.001,
            num_inners=5,
            num_outers=1,
            solver=solver,
        )
