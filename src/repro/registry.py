"""Generic name+alias registry shared by the pluggable subsystems.

The sweep-engine registry (:mod:`repro.engines.registry`) and the
local-solver registry (:mod:`repro.solvers.registry`) grew the same
mechanics independently: case-insensitive canonical names, an alias table
resolving to canonical names, conflict validation that never leaves a
partial registration behind, and listing helpers for the CLI.  This module
extracts those mechanics into one :class:`Registry` both subsystems (and
future ones -- numba/GPU engines, new solver families) build on, so a new
registry is one instantiation rather than a hundred duplicated lines.

A :class:`Registry` stores arbitrary objects.  Subsystems whose plugins are
behaviour objects (engines, backends, drivers) name the ``method`` every
plugin must implement and get the class-or-instance :meth:`Registry.register`
decorator, the name-or-instance :meth:`Registry.get` and the soft-dependency
hint from here; the thin subsystem modules keep only their protocol and
public function names.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

__all__ = ["Registry", "first_doc_line"]

T = TypeVar("T")


def _normalise(name: str) -> str:
    return name.strip().lower()


def first_doc_line(obj) -> str:
    """First line of ``obj``'s docstring: the default one-line description."""
    return next(iter((obj.__doc__ or "").strip().splitlines()), "")


class Registry(Generic[T]):
    """A case-insensitive name+alias registry of named objects.

    Parameters
    ----------
    kind:
        Human-readable noun used in error messages (``"engine"``,
        ``"solver"``, ...).
    method:
        Name of the method every registered object must implement
        (``"sweep_angle"``, ``"execute_iter"``; ``"__call__"`` for plain
        callables such as benchmark cases).  Enables :meth:`register` and
        :meth:`get`; registries of passive records (solvers) leave it
        ``None`` and use :meth:`add` / :meth:`resolve` directly.
    hint:
        Optional sentence appended to the :meth:`check` error (how to
        implement ``method``, what it replaced).
    """

    def __init__(self, kind: str, method: str | None = None, hint: str = ""):
        self.kind = kind
        self.method = method
        self.hint = hint
        self._items: dict[str, T] = {}
        self._aliases: dict[str, str] = {}
        #: name -> why an optional registration is absent (soft dependency).
        self._unavailable: dict[str, str] = {}

    # ------------------------------------------------------------ protocol
    def check(self, obj, label: str | None = None) -> None:
        """Raise ``TypeError`` unless ``obj`` implements :attr:`method`."""
        if not callable(getattr(obj, self.method, None)):
            what = f"{self.kind} {label!r}" if label is not None else f"a {self.kind}"
            raise TypeError(
                f"{what} must provide a callable {self.method}(...); "
                f"got {type(obj)!r}{self.hint and ' -- ' + self.hint}"
            )

    def register(
        self,
        name: str,
        *,
        description: str | None = None,
        aliases: tuple[str, ...] = (),
        overwrite: bool = False,
    ):
        """Class (or instance) decorator registering a plugin under ``name``.

        A class is instantiated with no arguments; the instance (or the
        function, for ``method="__call__"`` registries) must pass
        :meth:`check` and is stamped with its registry ``name`` and a
        ``description``.  Returns the decorated object unchanged so modules
        can register their public API in place.

        Parameters
        ----------
        name:
            Registry key (matched case-insensitively by :meth:`get`).
        description:
            Human-readable description; defaults to the first line of the
            plugin's docstring.
        aliases:
            Extra names accepted by :meth:`get`.
        overwrite:
            Allow replacing an existing registration (otherwise a duplicate
            name raises ``ValueError``).
        """

        def decorate(obj):
            plugin = obj() if isinstance(obj, type) else obj
            self.check(plugin, name)
            plugin.name = _normalise(name)
            plugin.description = description or first_doc_line(plugin)
            self.add(plugin.name, plugin, aliases=aliases, overwrite=overwrite)
            return obj

        return decorate

    def get(self, plugin: T | str) -> T:
        """Resolve a plugin from a name, alias or instance.

        Passing an object that already implements the protocol returns it
        unchanged, so call sites can accept ``plugin: T | str``.
        """
        if isinstance(plugin, str):
            return self.resolve(plugin)
        self.check(plugin)
        return plugin

    def note_soft_dependency(self, name: str, reason: str | None) -> None:
        """Record why an optional plugin is unavailable.

        Soft-dependency tiers (the ``compiled`` engine) register only when
        their dependency is importable; this hook lets them leave a hint so
        :meth:`resolve` can raise an actionable error instead of a bare
        unknown-name ``KeyError``.
        """
        self._unavailable[_normalise(name)] = reason or "optional dependency missing"

    # ------------------------------------------------------------ mutation
    def add(
        self,
        name: str,
        obj: T,
        *,
        aliases: tuple[str, ...] = (),
        overwrite: bool = False,
    ) -> T:
        """Register ``obj`` under ``name`` plus any ``aliases``.

        All keys are validated before anything is stored, so a duplicate
        name or alias raises ``ValueError`` without leaving a partial
        registration behind.  With ``overwrite=True`` an existing canonical
        registration of the *same* name is replaced (its old aliases are
        dropped first); overwriting through another object's alias is
        rejected so a plugin cannot silently knock out a different
        registration.
        """
        key = _normalise(name)
        alias_keys = [_normalise(alias) for alias in aliases]
        if overwrite:
            if key in self._aliases:
                raise ValueError(
                    f"{self.kind} name {key!r} is an alias of "
                    f"{self._aliases[key]!r}; unregister that first"
                )
            if key in self._items:
                self.remove(key)
            # The replaced registration's aliases are gone now, so any
            # remaining collision belongs to a *different* registration.
            for k in alias_keys:
                if k in self._items or k in self._aliases:
                    raise ValueError(f"{self.kind} name {k!r} is already registered")
        else:
            for k in (key, *alias_keys):
                if k in self._items or k in self._aliases:
                    raise ValueError(f"{self.kind} name {k!r} is already registered")
        self._items[key] = obj
        for alias_key in alias_keys:
            self._aliases[alias_key] = key
        return obj

    def remove(self, name: str) -> None:
        """Remove a registration (and its aliases); unknown names are a no-op."""
        key = self.canonical(name)
        self._items.pop(key, None)
        for alias in [a for a, target in self._aliases.items() if target == key]:
            del self._aliases[alias]

    # ------------------------------------------------------------- lookup
    def canonical(self, name: str) -> str:
        """Resolve a name or alias to its canonical registry key."""
        key = _normalise(name)
        return self._aliases.get(key, key)

    def resolve(self, name: str) -> T:
        """Look up an object by canonical name or alias (case-insensitive)."""
        try:
            return self._items[self.canonical(name)]
        except KeyError:
            reason = self._unavailable.get(_normalise(name))
            if reason is not None:
                raise KeyError(
                    f"{self.kind} {name!r} is not available in this environment: {reason}"
                ) from None
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {self.available()}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return self.canonical(name) in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())

    def __len__(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------ listing
    def available(self) -> list[str]:
        """Sorted canonical names (aliases excluded)."""
        return sorted(self._items)

    def aliases_of(self, name: str) -> list[str]:
        """Sorted aliases registered for the given name."""
        key = self.canonical(name)
        return sorted(a for a, target in self._aliases.items() if target == key)

    def descriptions(self) -> list[tuple[str, str]]:
        """``(name, description)`` pairs for every registered object."""
        return [(name, getattr(self._items[name], "description", "")) for name in self.available()]

    def listing(self) -> list[tuple[str, str, str]]:
        """``(name, comma-joined aliases, description)`` rows for CLI tables."""
        return [
            (name, ", ".join(self.aliases_of(name)), getattr(self._items[name], "description", ""))
            for name in self.available()
        ]
