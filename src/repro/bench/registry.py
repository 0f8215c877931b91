"""The benchmark-case registry (fourth :class:`repro.registry.Registry`).

A benchmark case is a named, tagged measurement closure::

    from repro.bench import register_benchmark

    @register_benchmark("my-kernel", tags=("kernel",))
    def bench_my_kernel(workload):
        '''Time my kernel on the shared workload.'''
        t0 = time.perf_counter()
        ...
        return {"my-kernel": {"seconds": time.perf_counter() - t0}}

The closure receives the suite's :class:`~repro.bench.workload.BenchWorkload`
(sizes + shrink policy) and returns a mapping of *sample name* to a metrics
dict that must contain ``"seconds"``; any further entries (counts, cache
hits, model predictions) ride along into the report.  The suite runner
(:func:`repro.bench.suite.run_benchmarks`) invokes the closure
``warmup + repeats`` times and aggregates the per-sample statistics.

Registration follows exactly the engine/solver/backend pattern: canonical
case-insensitive names, aliases, listing helpers for the CLI, discovery by
name or tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..registry import Registry, first_doc_line

__all__ = [
    "BenchCase",
    "register_benchmark",
    "get_benchmark",
    "available_benchmarks",
    "benchmark_listing",
    "available_tags",
    "select_benchmarks",
]


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark: a measurement closure plus metadata.

    Attributes
    ----------
    name:
        Canonical registry name.
    func:
        The measurement closure ``func(workload) -> {sample: {metrics}}``.
    tags:
        Free-form grouping labels (``kernel`` / ``scaling`` / ``study``)
        matched by ``unsnap bench --filter``.
    description:
        One-line summary for listings (defaults to the closure's docstring
        first line).
    """

    name: str
    func: Callable
    tags: tuple[str, ...] = ()
    description: str = field(default="")

    def run(self, workload) -> dict[str, dict]:
        """Execute the measurement once and validate its sample shape."""
        samples = self.func(workload)
        if not isinstance(samples, dict) or not samples:
            raise TypeError(
                f"benchmark {self.name!r} must return a non-empty dict of "
                f"sample -> metrics, got {type(samples).__name__}"
            )
        for sample, metrics in samples.items():
            if not isinstance(metrics, dict) or "seconds" not in metrics:
                raise TypeError(
                    f"benchmark {self.name!r} sample {sample!r} must be a dict "
                    f"with a 'seconds' entry, got {metrics!r}"
                )
            if not metrics["seconds"] >= 0.0:
                raise ValueError(
                    f"benchmark {self.name!r} sample {sample!r} reported a "
                    f"negative duration {metrics['seconds']!r}"
                )
        return samples


_benchmarks: Registry[BenchCase] = Registry("benchmark")


def register_benchmark(
    name: str,
    *,
    tags: tuple[str, ...] = (),
    description: str | None = None,
    aliases: tuple[str, ...] = (),
    overwrite: bool = False,
):
    """Class/function decorator registering a benchmark case under ``name``."""

    def decorator(func: Callable) -> Callable:
        case = BenchCase(
            name=name.strip().lower(),
            func=func,
            tags=tuple(tag.strip().lower() for tag in tags),
            description=description if description is not None else first_doc_line(func),
        )
        _benchmarks.add(name, case, aliases=aliases, overwrite=overwrite)
        return func

    return decorator


#: Look up a registered case by canonical name or alias.
get_benchmark = _benchmarks.resolve
#: Sorted canonical names of every registered benchmark case.
available_benchmarks = _benchmarks.available


def benchmark_listing() -> list[tuple[str, str, str]]:
    """``(name, comma-joined tags, description)`` rows for ``unsnap bench --list``."""
    return [
        (name, ", ".join(f"{tag}" for tag in _benchmarks.resolve(name).tags), desc)
        for name, _aliases, desc in _benchmarks.listing()
    ]


def available_tags() -> list[str]:
    """Sorted union of every registered case's tags."""
    tags: set[str] = set()
    for name in _benchmarks.available():
        tags.update(_benchmarks.resolve(name).tags)
    return sorted(tags)


def select_benchmarks(filters=None) -> list[BenchCase]:
    """Resolve ``--filter`` values (names, aliases or tags) to cases.

    With no filters every registered case is returned (in name order).  Each
    filter selects the union of (a) the case registered under that name or
    alias and (b) every case carrying it as a tag; a filter matching nothing
    raises ``KeyError`` naming the valid choices.
    """
    if not filters:
        return [_benchmarks.resolve(name) for name in _benchmarks.available()]
    selected: dict[str, BenchCase] = {}
    for raw in filters:
        token = raw.strip().lower()
        matches: list[BenchCase] = []
        if token in _benchmarks:
            matches.append(_benchmarks.resolve(token))
        matches.extend(
            _benchmarks.resolve(name)
            for name in _benchmarks.available()
            if token in _benchmarks.resolve(name).tags
        )
        if not matches:
            raise KeyError(
                f"unknown benchmark filter {raw!r}; cases: {available_benchmarks()}, "
                f"tags: {available_tags()}"
            )
        for case in matches:
            selected.setdefault(case.name, case)
    return [selected[name] for name in sorted(selected)]
