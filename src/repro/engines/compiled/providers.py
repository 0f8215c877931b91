"""JIT providers backing the ``compiled`` sweep engine.

The compiled tier is a *soft* dependency: at import the package probes, in
order of preference,

1. **numba** -- :func:`numba.njit` over the portable kernels of
   :mod:`repro.engines.compiled.kernels` (``fastmath`` off, so the compiled
   arithmetic keeps the kernels' IEEE semantics);
2. **cffi + a C compiler** -- a line-for-line C translation of the same
   kernels, all in one module built once into an on-disk cache (keyed by a
   hash of the C source, so upgrades rebuild and concurrent processes
   share) and loaded thereafter with no compile cost.

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

from .kernels import build_bucket_kernel, lu_factor_kernel, sweep_bucket_kernel

__all__ = ["Kernels", "Provider", "select_provider", "unavailable_reason", "INSTALL_HINT"]

_ENV_VAR = "UNSNAP_COMPILED_PROVIDER"

#: The message shown when the compiled tier cannot run anywhere.
INSTALL_HINT = (
    "the 'compiled' engine needs a JIT provider: install numba "
    "(pip install numba), or install cffi alongside a C compiler (cc/gcc)"
)


class Kernels(NamedTuple):
    """Executable forms of the three portable kernels, same signatures."""

    build_bucket: Callable
    lu_factor: Callable
    sweep_bucket: Callable


_PORTABLE = Kernels(build_bucket_kernel, lu_factor_kernel, sweep_bucket_kernel)


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
# Line-for-line C translations of the three kernels of kernels.py: same
# loop nests, same accumulation order.  Compiled with -ffp-contract=off so
# the optimiser cannot fuse multiply-adds -- the C arithmetic is then the
# same sequence of IEEE double operations as the Python kernels.  (Where a
# Python ``for i: for j:`` pair walks one contiguous N x N block, the C
# loop runs the flattened index -- the same elements in the same order.)
# One module: one source digest, one compile, one dlopen.
_C_DECL = """
void build_bucket(const int64_t *bucket, const int64_t *orient,
                  const int64_t *upwind, const double *direction,
                  const double *gradient, const double *face_own,
                  const double *face_neighbor, const double *mass,
                  const double *sigma_t, double *lu, int64_t *cpl_pos,
                  int64_t *cpl_src, double *cpl_mat, int64_t num_bucket,
                  int64_t num_groups, int64_t num_nodes);
int lu_factor(double *lu, int64_t *piv, int64_t num_systems,
              int64_t num_nodes);
void sweep_bucket(const int64_t *bucket, const double *mass,
                  const double *source, int64_t num_cpl,
                  const int64_t *cpl_pos, const int64_t *cpl_src,
                  const double *cpl_mat, const double *lu,
                  const int64_t *piv, double *rhs, double *psi,
                  int64_t num_bucket, int64_t num_groups,
                  int64_t num_nodes);
"""

_C_SOURCE = """
#include <math.h>
#include <stdint.h>

void build_bucket(const int64_t *bucket, const int64_t *orient,
                  const int64_t *upwind, const double *direction,
                  const double *gradient, const double *face_own,
                  const double *face_neighbor, const double *mass,
                  const double *sigma_t, double *lu, int64_t *cpl_pos,
                  int64_t *cpl_src, double *cpl_mat, int64_t num_bucket,
                  int64_t num_groups, int64_t num_nodes)
{
    const int64_t G = num_groups, N = num_nodes, NN = N * N;
    const double o0 = direction[0], o1 = direction[1], o2 = direction[2];

    for (int64_t b = 0; b < num_bucket; ++b) {
        const int64_t element = bucket[b];
        const double *grad = gradient + b * 3 * NN;
        const double *m = mass + b * NN;
        double *base = lu + b * G * NN;
        for (int64_t ij = 0; ij < NN; ++ij)
            base[ij] = -(o0 * grad[ij] + o1 * grad[NN + ij]
                         + o2 * grad[2 * NN + ij]);
        for (int64_t face = 0; face < 6; ++face) {
            if (orient[b * 6 + face] == 1) {
                const double *f = face_own + (element * 6 + face) * 3 * NN;
                for (int64_t ij = 0; ij < NN; ++ij)
                    base[ij] += o0 * f[ij] + o1 * f[NN + ij]
                                + o2 * f[2 * NN + ij];
            }
        }
        for (int64_t g = G - 1; g >= 0; --g) {
            const double sigma = sigma_t[b * G + g];
            double *a = base + g * NN;
            for (int64_t ij = 0; ij < NN; ++ij)
                a[ij] = base[ij] + sigma * m[ij];
        }
    }

    int64_t k = 0;
    for (int64_t face = 0; face < 6; ++face) {
        for (int64_t b = 0; b < num_bucket; ++b) {
            if (upwind[b * 6 + face] >= 0) {
                const double *f = face_neighbor
                                  + (bucket[b] * 6 + face) * 3 * NN;
                double *c = cpl_mat + k * NN;
                cpl_pos[k] = b;
                cpl_src[k] = upwind[b * 6 + face];
                for (int64_t ij = 0; ij < NN; ++ij)
                    c[ij] = o0 * f[ij] + o1 * f[NN + ij]
                            + o2 * f[2 * NN + ij];
                ++k;
            }
        }
    }
}

int lu_factor(double *lu, int64_t *piv, int64_t num_systems,
              int64_t num_nodes)
{
    const int64_t N = num_nodes;

    for (int64_t s = 0; s < num_systems; ++s) {
        double *a = lu + s * N * N;
        int64_t *pv = piv + s * N;
        for (int64_t k = 0; k < N; ++k) {
            int64_t p = k;
            double best = fabs(a[k * N + k]);
            for (int64_t i = k + 1; i < N; ++i) {
                const double value = fabs(a[i * N + k]);
                if (value > best) {
                    best = value;
                    p = i;
                }
            }
            pv[k] = p;
            if (best == 0.0)
                return 1;
            if (p != k) {
                for (int64_t j = 0; j < N; ++j) {
                    const double tmp = a[k * N + j];
                    a[k * N + j] = a[p * N + j];
                    a[p * N + j] = tmp;
                }
            }
            const double pivot = a[k * N + k];
            const double *rk = a + k * N;
            for (int64_t i = k + 1; i < N; ++i) {
                double *ri = a + i * N;
                const double factor = ri[k] / pivot;
                for (int64_t j = k + 1; j < N; ++j)
                    ri[j] -= factor * rk[j];
                ri[k] = factor;
            }
        }
    }
    return 0;
}

void sweep_bucket(const int64_t *bucket, const double *mass,
                  const double *source, int64_t num_cpl,
                  const int64_t *cpl_pos, const int64_t *cpl_src,
                  const double *cpl_mat, const double *lu,
                  const int64_t *piv, double *rhs, double *psi,
                  int64_t num_bucket, int64_t num_groups,
                  int64_t num_nodes)
{
    const int64_t G = num_groups, N = num_nodes, NN = N * N;

    for (int64_t b = 0; b < num_bucket; ++b) {
        const double *m = mass + b * NN;
        const double *src = source + bucket[b] * G * N;
        double *out = rhs + b * G * N;
        for (int64_t g = 0; g < G; ++g) {
            for (int64_t i = 0; i < N; ++i) {
                double acc = 0.0;
                for (int64_t j = 0; j < N; ++j)
                    acc += src[g * N + j] * m[i * N + j];
                out[g * N + i] = acc;
            }
        }
    }
    for (int64_t k = 0; k < num_cpl; ++k) {
        const double *c = cpl_mat + k * NN;
        const double *up = psi + cpl_src[k] * G * N;
        double *out = rhs + cpl_pos[k] * G * N;
        for (int64_t g = 0; g < G; ++g) {
            for (int64_t i = 0; i < N; ++i) {
                double acc = 0.0;
                for (int64_t j = 0; j < N; ++j)
                    acc += up[g * N + j] * c[i * N + j];
                out[g * N + i] -= acc;
            }
        }
    }

    for (int64_t b = 0; b < num_bucket; ++b) {
        double *out = psi + bucket[b] * G * N;
        for (int64_t g = 0; g < G; ++g) {
            const int64_t s = b * G + g;
            const double *f = lu + s * NN;
            const int64_t *pv = piv + s * N;
            double *x = rhs + (b * G + g) * N;
            for (int64_t k = 0; k < N; ++k) {
                const int64_t p = pv[k];
                if (p != k) {
                    const double tmp = x[k];
                    x[k] = x[p];
                    x[p] = tmp;
                }
            }
            for (int64_t k = 0; k < N - 1; ++k) {
                const double bk = x[k];
                for (int64_t j = k + 1; j < N; ++j)
                    x[j] -= f[j * N + k] * bk;
            }
            for (int64_t k = N - 1; k >= 0; --k) {
                double acc = x[k];
                for (int64_t j = k + 1; j < N; ++j)
                    acc -= f[k * N + j] * x[j];
                x[k] = acc / f[k * N + k];
            }
            for (int64_t i = 0; i < N; ++i)
                out[g * N + i] = x[i];
        }
    }
}
"""


def _cffi_available() -> bool:
    try:
        import cffi  # noqa: F401
    except ImportError:
        return False
    return any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))


def _compile_cffi_module():
    """Build (or load from the on-disk cache) the cffi kernel module.

    The cache directory is keyed by a hash of the C source, so a changed
    kernel compiles into a fresh directory and stale modules are never
    loaded; the module name carries the same hash so two versions can
    coexist in one process.  Publication is atomic (build in a scratch
    directory, ``os.replace`` into place), making concurrent first calls
    from several processes safe.
    """
    import importlib.util

    import cffi

    digest = hashlib.sha256((_C_DECL + _C_SOURCE).encode()).hexdigest()[:16]
    module_name = f"_unsnap_compiled_{digest}"
    cache_dir = Path(tempfile.gettempdir()) / f"unsnap-compiled-{digest}"

    def _load(so_path: Path):
        spec = importlib.util.spec_from_file_location(module_name, so_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    if cache_dir.is_dir():
        for so_path in sorted(cache_dir.glob(f"{module_name}*.so")):
            return _load(so_path)

    ffibuilder = cffi.FFI()
    ffibuilder.cdef(_C_DECL)
    ffibuilder.set_source(
        module_name,
        _C_SOURCE,
        extra_compile_args=["-O3", "-ffp-contract=off"],
    )
    with tempfile.TemporaryDirectory(prefix="unsnap-compiled-build-") as build_dir:
        so_path = Path(ffibuilder.compile(tmpdir=build_dir))
        cache_dir.mkdir(parents=True, exist_ok=True)
        target = cache_dir / so_path.name
        try:
            os.replace(so_path, target)
        except OSError:
            # Cross-device move or a concurrent publisher won the race;
            # fall back to loading the freshly built artefact in place.
            if not target.exists():
                return _load(so_path)
    return _load(target)


def _build_cffi_kernels() -> Kernels:
    module = _compile_cffi_module()
    ffi, lib = module.ffi, module.lib
    f64 = "double *"
    i64 = "int64_t *"

    def build_bucket(
        bucket, orient, upwind, direction, gradient, face_own, face_neighbor,
        mass, sigma_t, lu, cpl_pos, cpl_src, cpl_mat,
    ):
        lib.build_bucket(
            ffi.from_buffer(i64, bucket),
            ffi.from_buffer(i64, orient),
            ffi.from_buffer(i64, upwind),
            ffi.from_buffer(f64, direction),
            ffi.from_buffer(f64, gradient),
            ffi.from_buffer(f64, face_own),
            ffi.from_buffer(f64, face_neighbor),
            ffi.from_buffer(f64, mass),
            ffi.from_buffer(f64, sigma_t),
            ffi.from_buffer(f64, lu, require_writable=True),
            ffi.from_buffer(i64, cpl_pos, require_writable=True),
            ffi.from_buffer(i64, cpl_src, require_writable=True),
            ffi.from_buffer(f64, cpl_mat, require_writable=True),
            bucket.shape[0],
            sigma_t.shape[1],
            mass.shape[1],
        )

    def lu_factor(lu, piv):
        return lib.lu_factor(
            ffi.from_buffer(f64, lu, require_writable=True),
            ffi.from_buffer(i64, piv, require_writable=True),
            lu.shape[0],
            lu.shape[1],
        )

    def sweep_bucket(bucket, mass, source, cpl_pos, cpl_src, cpl_mat, lu, piv, rhs, psi):
        lib.sweep_bucket(
            ffi.from_buffer(i64, bucket),
            ffi.from_buffer(f64, mass),
            ffi.from_buffer(f64, source),
            cpl_pos.shape[0],
            ffi.from_buffer(i64, cpl_pos),
            ffi.from_buffer(i64, cpl_src),
            ffi.from_buffer(f64, cpl_mat),
            ffi.from_buffer(f64, lu),
            ffi.from_buffer(i64, piv),
            ffi.from_buffer(f64, rhs, require_writable=True),
            ffi.from_buffer(f64, psi, require_writable=True),
            bucket.shape[0],
            rhs.shape[1],
            rhs.shape[2],
        )

    return Kernels(build_bucket, lu_factor, sweep_bucket)


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
