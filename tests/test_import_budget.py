"""Start-up budget: heavy third-party imports happen on first use only.

``import repro`` is paid by every campaign worker, every ``unsnap serve`` /
``unsnap worker`` spawn and every CLI call; ``scipy.linalg`` and ``networkx``
were 47 % of it while being needed only by the LAPACK factor/solve pair and
the cycle diagnostic.  Each check runs in a fresh interpreter (``sys.modules``
of the test process says nothing), and also proves the lazy paths still work.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_PRELUDE = """
import sys

import numpy as np

import repro
from repro.config import ProblemSpec


def heavy():
    return sorted({name.split(".")[0] for name in sys.modules} & {"scipy", "networkx"})


spec = ProblemSpec(nx=2, ny=2, nz=2, angles_per_octant=1, num_groups=1,
                   num_inners=1, num_outers=1)
"""


def _run_py(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_default_solves_leave_scipy_and_networkx_unloaded():
    out = _run_py(
        """
        import repro.cli  # the entry point serve/worker/campaign children import

        assert heavy() == [], heavy()
        # The C emitter runs on the first cffi build only, never at import.
        assert "repro.engines.compiled.cgen" not in sys.modules
        from repro.engines import available_engines

        for engine in ("compiled", "prefactorized", "vectorized", "reference"):
            if engine in available_engines():
                repro.run(spec.with_(engine=engine))
                assert heavy() == [], (engine, heavy())
        print("OK")
        """
    )
    assert "OK" in out


def test_lapack_factor_path_imports_scipy_on_first_use():
    out = _run_py(
        """
        assert heavy() == []
        lapack = repro.run(spec.with_(engine="prefactorized", solver="lapack")).scalar_flux
        assert heavy() == ["scipy"], heavy()
        ge = repro.run(spec.with_(engine="prefactorized")).scalar_flux
        np.testing.assert_allclose(lapack, ge, rtol=1e-12, atol=0)
        print("OK")
        """
    )
    assert "OK" in out


def test_cycle_diagnostic_imports_networkx_on_first_use():
    out = _run_py(
        """
        from repro.fem.element import HexElementFactors
        from repro.fem.reference import ReferenceElement
        from repro.mesh.builder import StructuredGridSpec, build_snap_mesh
        from repro.sweepsched.cycles import CycleError
        from repro.sweepsched.graph import classify_faces
        from repro.sweepsched.tlevel import compute_tlevels

        mesh = build_snap_mesh(StructuredGridSpec(4, 3, 2), max_twist=0.001)
        factors = HexElementFactors.build(mesh.cell_vertices(), ReferenceElement(1))
        cls = classify_faces(factors, np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
        compute_tlevels(mesh, cls)  # the acyclic path never asks for cycles
        assert heavy() == []

        # The pinwheel 4-cycle 0 -> 1 -> 5 -> 4 -> 0 of tests/sweepsched.
        orientation = cls.orientation.copy()
        orientation[4, 1], orientation[5, 0] = -1, +1
        orientation[0, 3], orientation[4, 2] = -1, +1
        try:
            compute_tlevels(mesh, type(cls)(orientation=orientation, flow=cls.flow))
        except CycleError as err:
            assert any(set(cycle) == {0, 1, 4, 5} for cycle in err.cycles), err.cycles
        else:
            raise AssertionError("cyclic graph was scheduled")
        assert heavy() == ["networkx"], heavy()
        print("OK")
        """
    )
    assert "OK" in out
