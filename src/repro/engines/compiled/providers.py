"""JIT providers backing the ``compiled`` sweep engine.

The compiled tier is a *soft* dependency: at import the package probes, in
order of preference,

1. **numba** -- :func:`numba.njit` over the portable kernels of
   :mod:`repro.engines.compiled.kernels` (``fastmath`` off, so the compiled
   arithmetic keeps the kernels' IEEE semantics);
2. **cffi + a C compiler** -- the same kernels as C emitted from their
   Python bodies by :mod:`repro.engines.compiled.cgen`, all in one module
   built once into an on-disk cache (keyed by a hash of the emitted C, so
   upgrades rebuild and concurrent processes share) and loaded thereafter
   with no compile cost.

When neither is available the engine simply is not registered --
``available_engines()`` never lists a broken tier -- and
``get_engine("compiled")`` raises a ``KeyError`` naming the missing
dependency (see :func:`repro.engines.registry.note_soft_dependency`).

The ``UNSNAP_COMPILED_PROVIDER`` environment variable overrides the probe:
``numba`` or ``cffi`` force one provider (unavailable -> engine unlisted),
``python`` runs the pure-Python kernels (far slower than the numpy engines;
a test-only escape hatch that keeps the full engine path exercised without
any compiler), and ``off`` disables the tier entirely (the fault-injection
tests use it to simulate the no-compiler environment).

Provider selection is resolved once per process and memoised; compilation
itself is lazy (first kernel call), so importing :mod:`repro` stays cheap.
Every provider hands the engine the same three callables (:class:`Kernels`)
with the signatures of the portable kernels.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .kernels import ARGUMENTS, build_angle_kernel, lu_factor_kernel, sweep_angle_kernel

__all__ = ["Kernels", "Provider", "select_provider", "unavailable_reason", "INSTALL_HINT"]

_ENV_VAR = "UNSNAP_COMPILED_PROVIDER"

#: The message shown when the compiled tier cannot run anywhere.
INSTALL_HINT = (
    "the 'compiled' engine needs a JIT provider: install numba "
    "(pip install numba), or install cffi alongside a C compiler (cc/gcc)"
)


class Kernels(NamedTuple):
    """Executable forms of the three portable kernels, same signatures."""

    build_angle: Callable
    lu_factor: Callable
    sweep_angle: Callable


_PORTABLE = Kernels(build_angle_kernel, lu_factor_kernel, sweep_angle_kernel)


class Provider:
    """One way of turning the portable kernels into executable ones.

    ``kernels()`` returns the :class:`Kernels` triple; the first call may
    compile (memoised thereafter).
    """

    def __init__(self, name: str, build):
        self.name = name
        self._build = build
        self._kernels = None

    def kernels(self) -> Kernels:
        if self._kernels is None:
            self._kernels = self._build()
        return self._kernels


# --------------------------------------------------------------------- numba
def _numba_available() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def _build_numba_kernels() -> Kernels:  # pragma: no cover - needs numba (CI numba leg)
    import numba

    return Kernels(*(numba.njit(cache=True, fastmath=False)(kernel) for kernel in _PORTABLE))


# ---------------------------------------------------------------------- cffi
def _cffi_available() -> bool:
    try:
        import cffi  # noqa: F401
    except ImportError:
        return False
    return any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))


def _emit_c():
    """The three kernels as one C module: :class:`cgen.Module` (cdef, source, wrappers)."""
    from .cgen import emit_module

    return emit_module(_PORTABLE, ARGUMENTS)


def _cffi_artefact(emitted) -> tuple[str, Path]:
    """Module name and on-disk path of this interpreter's build of ``emitted``.

    Directory and module name carry a hash of the emitted C, so a changed
    kernel compiles afresh and two versions can coexist in one process; the
    file name carries this interpreter's own extension suffix, so another
    interpreter sharing the temp directory publishes beside it, never over it.
    """
    import importlib.machinery

    digest = hashlib.sha256((emitted.cdef + emitted.source).encode()).hexdigest()[:16]
    module_name = f"_unsnap_compiled_{digest}"
    cache_dir = Path(tempfile.gettempdir()) / f"unsnap-compiled-{digest}"
    return module_name, cache_dir / (module_name + importlib.machinery.EXTENSION_SUFFIXES[0])


def _compile_cffi_module(emitted):
    """Build (or load from the on-disk cache) the cffi module of ``emitted``.

    Publication is atomic (build in a scratch directory, ``os.replace`` into
    place), making concurrent first calls from several processes safe.
    """
    import importlib.util

    import cffi

    module_name, target = _cffi_artefact(emitted)

    def _load(so_path: Path):
        spec = importlib.util.spec_from_file_location(module_name, so_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    if target.is_file():
        return _load(target)

    ffibuilder = cffi.FFI()
    ffibuilder.cdef(emitted.cdef)
    ffibuilder.set_source(
        module_name,
        emitted.source,
        extra_compile_args=["-O3", "-ffp-contract=off"],
    )
    with tempfile.TemporaryDirectory(prefix="unsnap-compiled-build-") as build_dir:
        so_path = Path(ffibuilder.compile(tmpdir=build_dir))
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(so_path, target)
        except OSError:
            # Cross-device move or a concurrent publisher won the race;
            # fall back to loading the freshly built artefact in place.
            if not target.exists():
                return _load(so_path)
    return _load(target)


def _build_cffi_kernels() -> Kernels:
    emitted = _emit_c()
    module = _compile_cffi_module(emitted)
    # The wrappers are emitted Python source reading ``ffi`` and ``lib`` as globals.
    namespace = {"ffi": module.ffi, "lib": module.lib}
    exec(emitted.wrappers, namespace)
    return Kernels(*(namespace[kernel.__name__] for kernel in _PORTABLE))


# ----------------------------------------------------------------- selection
def _python_provider() -> Provider:
    return Provider("python", lambda: _PORTABLE)


_UNRESOLVED = object()
_selected = _UNRESOLVED
_reason: str | None = None


def select_provider() -> Provider | None:
    """The process-wide JIT provider, or ``None`` when the tier is off.

    Resolution order: the ``UNSNAP_COMPILED_PROVIDER`` override if set,
    otherwise numba, otherwise cffi + C compiler.  Memoised -- the engine,
    the registry hint and the tests all see one consistent answer.
    """
    global _selected, _reason
    if _selected is not _UNRESOLVED:
        return _selected

    forced = os.environ.get(_ENV_VAR, "").strip().lower()
    if forced == "off":
        _selected, _reason = None, f"disabled via {_ENV_VAR}=off; {INSTALL_HINT}"
    elif forced == "python":
        _selected, _reason = _python_provider(), None
    elif forced == "numba":
        if _numba_available():
            _selected, _reason = Provider("numba", _build_numba_kernels), None
        else:
            _selected, _reason = None, f"{_ENV_VAR}=numba but numba is not importable"
    elif forced == "cffi":
        if _cffi_available():
            _selected, _reason = Provider("cffi", _build_cffi_kernels), None
        else:
            _selected, _reason = (
                None,
                f"{_ENV_VAR}=cffi but cffi or a C compiler is missing",
            )
    elif forced:
        raise ValueError(
            f"unknown {_ENV_VAR}={forced!r}; expected numba, cffi, python or off"
        )
    elif _numba_available():
        _selected, _reason = Provider("numba", _build_numba_kernels), None
    elif _cffi_available():
        _selected, _reason = Provider("cffi", _build_cffi_kernels), None
    else:
        _selected, _reason = None, INSTALL_HINT
    return _selected


def unavailable_reason() -> str | None:
    """Why the compiled tier is off (``None`` when a provider is active)."""
    select_provider()
    return _reason


def _reset_selection_for_tests() -> None:
    """Forget the memoised provider (test hook; not public API)."""
    global _selected, _reason
    _selected, _reason = _UNRESOLVED, None


def as_contiguous_f64(array: np.ndarray) -> np.ndarray:
    """C-contiguous float64 view/copy (kernel inputs must be packed)."""
    return np.ascontiguousarray(array, dtype=np.float64)


def as_contiguous_i64(array: np.ndarray) -> np.ndarray:
    """C-contiguous int64 view/copy (kernel index inputs)."""
    return np.ascontiguousarray(array, dtype=np.int64)
