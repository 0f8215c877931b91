"""Pluggable sweep-execution engines.

The engine is the strategy that executes the transport sweep of one angular
direction; see :mod:`repro.engines.base` for the protocol.  Engines are
registered by name (``@register_engine``) and selected through
:class:`~repro.config.ProblemSpec`, the input deck, :func:`repro.run` or the
``unsnap run --engine`` flag.

Built-in engines
----------------
``reference``
    The per-element assemble/solve loop of the paper's Figure 2 pseudocode
    (aliases: ``loop``, ``per-element``).

The other three share one bucket loop
(:class:`~repro.engines.batched.BatchedSweepEngine`) and differ only in its
three hooks -- the angle's flux array, how the angle's entry is built and
how its buckets are solved:

``vectorized``
    Batch-assembles and batch-solves all elements of a wavefront bucket at
    once, rebuilding everything each sweep (aliases: ``vec``, ``batched``).
``prefactorized``
    LU-factorises every bucket batch of an angle once and reuses the
    cached factors across all inner/outer iterations, re-assembling
    only the right-hand sides (aliases: ``lu``, ``prefactor``,
    ``factor-cache``; paper Section IV-B.1).
``compiled``
    JIT kernels (numba, or a cffi-built C module) for both the cached
    entry build -- assembly, upwind couplings, pivoted LU -- and the fused
    sweep, one kernel call per angle, boundary inflow included (aliases: ``jit``,
    ``native``).  A *soft* dependency:
    registered only when a JIT provider is available, so the name never
    appears broken -- see :mod:`repro.engines.compiled`.
"""

from .base import SweepEngine
from .registry import (
    available_engines,
    engine_aliases,
    engine_descriptions,
    engine_listing,
    get_engine,
    note_soft_dependency,
    register_engine,
    unregister_engine,
)

# Importing the engine modules registers the built-in engines.  The
# compiled package self-guards: it registers only when a JIT provider is
# importable and otherwise records the reason for get_engine's error.
from . import compiled  # noqa: F401
from .batched import BatchedSweepEngine
from .reference import ReferenceSweepEngine

__all__ = [
    "SweepEngine",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "note_soft_dependency",
    "available_engines",
    "engine_aliases",
    "engine_descriptions",
    "engine_listing",
    "ReferenceSweepEngine",
    "BatchedSweepEngine",
]
