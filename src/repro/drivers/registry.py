"""The outer-loop driver registry.

The sixth registry-driven subsystem (after engines, solvers, backends,
benchmark cases and verification suites): an instance of the generic
:class:`repro.registry.Registry` holding *drivers* -- the outer loops that
orchestrate sweeps into a complete solve.  The built-ins are registered on
import of :mod:`repro.drivers`:

* ``fixed_source`` -- the steady inner/outer source iteration (the paper's
  workload; the default).
* ``k_eigenvalue`` -- power iteration for the multiplication factor.
* ``time_dependent`` -- backward-Euler time stepping.

A driver is a callable with the signature documented in
:mod:`repro.drivers.base`; registering one makes it reachable from
``ProblemSpec.driver``, ``repro.run(..., mode=...)``, the input deck's
``[driver]`` section, ``unsnap run --driver`` and every campaign axis.
"""

from __future__ import annotations

from ..registry import Registry

__all__ = [
    "DRIVERS",
    "register_driver",
    "get_driver",
    "available_drivers",
    "driver_listing",
]


DRIVERS = Registry("driver", method="__call__")

#: ``@register_driver(name, *, aliases=(), overwrite=False)`` -- function (or
#: class) decorator; the decorated object must be callable with the driver
#: signature (see :mod:`repro.drivers.base`) and is returned unchanged so
#: modules can register their public API in place.
register_driver = DRIVERS.register
#: Resolve a driver by registry name or alias.
get_driver = DRIVERS.resolve
#: Sorted canonical names of every registered driver.
available_drivers = DRIVERS.available
#: ``(name, aliases, description)`` rows for ``unsnap drivers``.
driver_listing = DRIVERS.listing
