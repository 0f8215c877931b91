"""Registry of sweep engines selectable by name.

An instantiation of the generic :class:`repro.registry.Registry` whose
protocol is :class:`~repro.engines.base.SweepEngine` (one ``sweep_angle``
method): the input deck, :func:`repro.run` and the ``unsnap`` CLI select the
sweep engine by name, and third-party code can plug in new execution
strategies with the :func:`register_engine` decorator::

    from repro.engines import register_engine

    @register_engine("my-engine", aliases=("mine",))
    class MySweepEngine:
        \"\"\"One-line description shown by ``unsnap engines``.\"\"\"

        def sweep_angle(self, executor, angle, total_source,
                        boundary_values, incident, timings):
            ...

    repro.run(spec, engine="my-engine")
"""

from __future__ import annotations

from ..registry import Registry
from .base import SweepEngine

__all__ = [
    "register_engine",
    "unregister_engine",
    "get_engine",
    "available_engines",
    "engine_aliases",
    "engine_descriptions",
    "engine_listing",
    "note_soft_dependency",
]

_ENGINES: Registry[SweepEngine] = Registry("engine", method="sweep_angle")

#: ``@register_engine(name, *, description=None, aliases=(), overwrite=False)``
#: -- class (or instance) decorator; see :meth:`repro.registry.Registry.register`.
register_engine = _ENGINES.register
#: Remove an engine (and its aliases); primarily a test/plugin-teardown
#: convenience -- the built-in engines can be removed too, so use with care.
unregister_engine = _ENGINES.remove
#: Resolve an engine instance from a name, alias or instance.
get_engine = _ENGINES.get
#: Names of all registered engines (aliases excluded).
available_engines = _ENGINES.available
#: Aliases registered for the given engine name.
engine_aliases = _ENGINES.aliases_of
#: ``(name, description)`` pairs for reports.
engine_descriptions = _ENGINES.descriptions
#: ``(name, aliases, description)`` rows for ``unsnap engines``.
engine_listing = _ENGINES.listing
#: Record why an optional engine tier (``compiled``) could not register.
note_soft_dependency = _ENGINES.note_soft_dependency
