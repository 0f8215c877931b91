"""Budgeted engine-memoisation storage for :class:`~repro.core.sweep.SweepExecutor`.

Caching engines (``prefactorized``, ``compiled``) memoise per-angle LU
factors and coupling matrices on the executor's factor cache: one entry per
angle, which is therefore also the unit a budget spills.  Unbounded,
that cache costs ``E * A * G * N^2`` doubles over the whole quadrature --
fine for bench problems, but a paper-scale 16^3 x 36-angle x 64-group run
wants several GiB of factors.  :class:`FactorCache` is the dict-shaped store
behind :attr:`SweepExecutor.factor_cache` that makes the trade explicit:

* **Unbudgeted** (``budget_bytes == 0``, the default): behaves exactly like
  the plain dict it replaces -- no locks, no LRU bookkeeping on the hot
  ``get`` path -- so existing engines and tests see no change.
* **Budgeted** (``budget_bytes > 0``): entries are kept in LRU order and the
  least-recently-used ones are *spilled* (dropped) whenever the accounted
  byte total exceeds the budget.  A spilled entry is transparently recomputed
  by the owning engine on its next miss -- results are bit-for-bit identical
  to an unbudgeted run, only slower.  The path is refusal-free: an entry
  larger than the whole budget is still accepted and immediately spilled, so
  the engine degrades to recompute-every-sweep instead of failing.

Telemetry (optional, assigned by the executor): every spill increments the
``factor_cache_spills`` counter and the resident total is published as the
``factor_cache_bytes`` gauge.  Both happen only on the rare mutation paths
(insert/evict), never on hits, and only when an enabled instrument is
attached -- the zero-overhead contract of :mod:`repro.telemetry` holds.

Entry sizes are accounted with :func:`entry_nbytes`, which walks the nested
tuples/lists/dicts engines actually cache and sums ndarray payloads;
non-array leaves (ints, cffi handles, ...) count zero.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..telemetry import active

__all__ = ["FactorCache", "entry_nbytes"]

_MISSING = object()


def entry_nbytes(entry) -> int:
    """Accounted byte size of one cache entry (nested ndarray payloads)."""
    if isinstance(entry, np.ndarray):
        return entry.nbytes
    if isinstance(entry, dict):
        return sum(entry_nbytes(value) for value in entry.values())
    if isinstance(entry, (tuple, list)):
        return sum(entry_nbytes(value) for value in entry)
    return 0


class FactorCache:
    """Dict-shaped engine memoisation store with an optional LRU byte budget.

    Engines use it exactly like the plain dict it replaced: ``cache.get``,
    ``cache[key] = entry``, ``key in cache``, ``len(cache)``,
    ``cache.clear()``.  The budget semantics live entirely here, so every
    caching engine -- present and future -- inherits them without code.
    """

    def __init__(self, budget_bytes: int = 0):
        budget = int(budget_bytes or 0)
        if budget < 0:
            raise ValueError("factor-cache budget must be >= 0 bytes (0 = unbudgeted)")
        self.budget_bytes = budget
        #: Optional :class:`~repro.telemetry.Telemetry`; assigned by the
        #: executor, consulted only on insert/evict (never on hits).
        self.telemetry = None
        #: Cumulative count of entries spilled to stay under budget (the
        #: telemetry counter mirrors it; this one is always available).
        self.spill_count = 0
        self._entries: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self.total_bytes = 0
        # Budgeted mutations (LRU reorder + evict) can race between octant
        # workers; unbudgeted reads stay lock-free.
        self._lock = threading.Lock()

    # ------------------------------------------------------------- reads
    def get(self, key, default=None):
        if self.budget_bytes == 0:
            return self._entries.get(key, default)
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                return default
            self._entries.move_to_end(key)
            return entry

    def __getitem__(self, key):
        entry = self.get(key, _MISSING)
        if entry is _MISSING:
            raise KeyError(key)
        return entry

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def keys(self):
        return self._entries.keys()

    # ------------------------------------------------------------ writes
    def __setitem__(self, key, entry) -> None:
        size = entry_nbytes(entry)
        with self._lock:
            if key in self._entries:
                self.total_bytes -= self._sizes.get(key, 0)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._sizes[key] = size
            self.total_bytes += size
            spilled = 0
            if self.budget_bytes > 0:
                while self.total_bytes > self.budget_bytes and self._entries:
                    old_key, _ = self._entries.popitem(last=False)
                    self.total_bytes -= self._sizes.pop(old_key, 0)
                    spilled += 1
            self.spill_count += spilled
        tel = active(self.telemetry)
        if tel is not None:
            if spilled:
                tel.incr("factor_cache_spills", spilled)
            tel.gauge("factor_cache_bytes", self.total_bytes)

    def pop(self, key, default=_MISSING):
        with self._lock:
            if key not in self._entries:
                if default is _MISSING:
                    raise KeyError(key)
                return default
            entry = self._entries.pop(key)
            self.total_bytes -= self._sizes.pop(key, 0)
            return entry

    def clear(self) -> None:
        """Drop everything (invalidation, *not* a spill: no counters move)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self.total_bytes = 0
