"""The C emitter behind the cffi provider, and the table that types it.

:mod:`repro.engines.compiled.cgen` turns the portable kernels into C.  The
bit-for-bit agreement of that C with the Python lives in
``test_compiled.py``; here: the emitted module compiles warning-free under
the strictest flags (a mis-typed local -- a double truncated into an
``int64_t`` -- would not), every construct outside the kernel subset is
refused by name at emit time, each C signature passes only the sizes its
body reads (the per-call marshalling cost), and ``ARGUMENTS`` -- which numba
ignores and the C trusts blindly -- agrees with every array the engine
really passes.
"""

from __future__ import annotations

import re
import shutil
import subprocess

import numpy as np
import pytest

import repro
from repro.config import BoundaryCondition, ProblemSpec
from repro.engines import available_engines
from repro.engines.compiled import providers
from repro.engines.compiled.cgen import argument_type, emit_module
from repro.engines.compiled.kernels import ARGUMENTS

KERNELS = providers._PORTABLE

#: The kernels' sizes: each C signature's size parameters, in order.
SIZES = {
    "build_angle_kernel": ["G", "N", "E", "T"],
    "lu_factor_kernel": ["S", "N"],
    "sweep_angle_kernel": ["G", "N", "T"],
}
#: The arrays each kernel stores to: the only ones passed writable.
WRITTEN = {
    "build_angle_kernel": ["lu", "cpl_pos", "cpl_src", "cpl_mat"],
    "lu_factor_kernel": ["lu", "piv"],
    "sweep_angle_kernel": ["psi"],
}


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_emitted_module_compiles_warning_free(tmp_path):
    source = tmp_path / "kernels.c"
    source.write_text(emit_module(KERNELS, ARGUMENTS).source)
    flags = ["-std=c99", "-Wall", "-Wextra", "-Wconversion", "-Werror", "-fsyntax-only"]
    proc = subprocess.run(["cc", *flags, str(source)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_signatures_pass_only_the_sizes_each_body_reads():
    module = emit_module(KERNELS, ARGUMENTS)
    for prototype in module.cdef.split(";")[:-1]:
        name = re.search(r"(\w+)\(", prototype).group(1)
        assert re.findall(r"int64_t (\w+)[,)]", prototype) == SIZES[name], prototype
    for wrapper in module.wrappers.split("\n\n\n")[:-1]:
        name = re.match(r"def (\w+)\(", wrapper).group(1)
        assert re.findall(r"(\w+), require_writable=True", wrapper) == WRITTEN[name], wrapper


# Toy kernels, one construct outside the subset each.
def uses_while(x):
    i = 0
    while i < 3:
        i += 1


def uses_numpy(x):
    x[0] = np.sqrt(x[1])


def uses_floor_division(x):
    x[0] = x[1] // x[2]


def unpacks_a_tuple(x):
    a, b = x[0], x[1]
    x[2] = a + b


def has_an_else(x):
    if x[0] > 0.0:
        x[1] = 1.0
    else:
        x[1] = 2.0


def indexes_too_deep(x):
    x[0, 1] = 0.0


def takes_an_untyped_argument(x, y):
    x[0] = y[0]


def mixes_int_and_double(x):
    x[0] = x[1] * 2


def divides_integers(x):
    k = x.shape[0] / 2
    x[0] = 0.0 * k


@pytest.mark.parametrize(
    ("kernel", "construct"),
    [
        (uses_while, "`While` in `while i < 3:`"),
        (uses_numpy, "`Call` in `np.sqrt(x[1])`"),
        (uses_floor_division, "`BinOp` in `x[1] // x[2]`"),
        (unpacks_a_tuple, "tuple unpacking in `a, b = (x[0], x[1])`"),
        (has_an_else, "an `else` branch"),
        (indexes_too_deep, "too many indices in `x[0, 1]`"),
        (takes_an_untyped_argument, "argument 'y' missing from ARGUMENTS"),
        (mixes_int_and_double, "int64_t where double is required in `2`"),
        (divides_integers, "integer `/`"),
    ],
)
def test_constructs_outside_the_subset_are_refused_by_name(kernel, construct):
    with pytest.raises(SyntaxError, match=re.escape(construct)) as raised:
        emit_module([kernel], {"x": "f64[N]"})
    assert str(raised.value).startswith(f"{kernel.__name__}, line ")


# --------------------------------------------------------------- ARGUMENTS
_DTYPES = {"f64": np.float64, "i64": np.int64}


@pytest.fixture
def checked_calls(monkeypatch):
    """Every kernel call of the selected provider, checked against ARGUMENTS."""
    provider = providers.select_provider()
    calls = dict.fromkeys(SIZES, 0)

    def checked(portable, compiled):
        params = portable.__code__.co_varnames[: portable.__code__.co_argcount]

        def call(*args, **kwargs):
            sizes = {}
            for name, array in {**dict(zip(params, args)), **kwargs}.items():
                dtype, dims = argument_type(ARGUMENTS[name])
                assert array.dtype == _DTYPES[dtype], (portable.__name__, name, array.dtype)
                assert array.flags.c_contiguous, (portable.__name__, name)
                assert array.ndim == len(dims), (portable.__name__, name, array.shape)
                for dim, size in zip(dims, array.shape):
                    assert sizes.setdefault(dim, size) == size, (portable.__name__, name, dim)
            calls[portable.__name__] += 1
            return compiled(*args, **kwargs)

        return call

    compiled = provider.kernels()
    shim = providers.Kernels(*map(checked, KERNELS, compiled))
    monkeypatch.setattr(provider, "_kernels", shim)
    return calls


SPEC = ProblemSpec(nx=3, ny=3, nz=3, angles_per_octant=1, num_groups=2,
                   num_inners=2, num_outers=1, max_twist=0.2, engine="compiled")


@pytest.mark.skipif("compiled" not in available_engines(), reason="no JIT provider")
@pytest.mark.parametrize(
    "spec",
    [
        SPEC,
        SPEC.with_(nx=2, ny=2, nz=2, order=3),
        SPEC.with_(boundary=BoundaryCondition(kind="incident", incident_flux=1.5)),
        SPEC.with_(npex=2, npey=2),
        SPEC.with_(nx=2, ny=2, nz=2, driver="k_eigenvalue", max_twist=0.0, max_power_iters=2,
                   boundary=BoundaryCondition(kind="reflective")),
    ],
    ids=["vacuum-order1", "vacuum-order3", "incident", "block-jacobi-2x2", "reflective-k"],
)
def test_arguments_table_matches_every_real_call(checked_calls, spec):
    """A wrong letter in ARGUMENTS would be an out-of-bounds C access, not an
    exception: hold the table to the dtypes, contiguity and shared sizes of
    the arrays the engine actually passes."""
    repro.run(spec)
    assert all(checked_calls.values()), checked_calls
