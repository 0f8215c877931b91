"""Fault injection for the compiled tier's soft-dependency contract.

The rule is *absent, never broken*: when no JIT provider can run (no numba,
no C compiler) the ``compiled`` engine must simply not register, every other
engine must work untouched, and asking for it by name must fail with an
actionable error naming the missing dependency -- not an obscure import
crash at sweep time.

The same holds for a broken *cache*: another interpreter's build of the cffi
module, sharing the temp directory, is never loaded in place of this one's.

Provider selection is memoised per process, so the absent-path tests run in
a fresh interpreter with ``UNSNAP_COMPILED_PROVIDER`` pinned; the in-process
tests only exercise pure selection logic via the test-reset hook.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.engines.compiled import providers

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _run_py(code: str, provider: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["UNSNAP_COMPILED_PROVIDER"] = provider
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestProviderAbsent:
    def test_engine_unlisted_and_error_names_install_hint(self):
        proc = _run_py(
            """
            from repro.engines import available_engines, get_engine

            names = available_engines()
            assert "compiled" not in names, names
            assert "prefactorized" in names  # the rest of the registry is fine
            for alias in ("compiled", "jit", "native"):
                try:
                    get_engine(alias)
                except KeyError as err:
                    message = str(err)
                    assert "numba" in message, message
                    assert "cffi" in message, message
                else:
                    raise AssertionError(f"get_engine({alias!r}) did not raise")
            print("OK")
            """,
            provider="off",
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_runs_still_work_without_the_tier(self):
        proc = _run_py(
            """
            import repro
            from repro.config import ProblemSpec

            spec = ProblemSpec(nx=2, ny=2, nz=2, angles_per_octant=1,
                               num_groups=1, num_inners=1, num_outers=1)
            result = repro.run(spec.with_(engine="prefactorized"))
            assert result.scalar_flux.shape[0] == 8
            print("OK")
            """,
            provider="off",
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_spec_naming_compiled_fails_cleanly(self):
        proc = _run_py(
            """
            import repro
            from repro.config import ProblemSpec

            spec = ProblemSpec(nx=2, ny=2, nz=2, angles_per_octant=1,
                               num_groups=1, num_inners=1, num_outers=1,
                               engine="compiled")
            try:
                repro.run(spec)
            except KeyError as err:
                assert "not available" in str(err), str(err)
                print("OK")
            else:
                raise AssertionError("run() with the absent engine did not raise")
            """,
            provider="off",
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout


class TestForcedProviders:
    def test_python_provider_is_a_working_escape_hatch(self):
        proc = _run_py(
            """
            import numpy as np
            import repro
            from repro.config import ProblemSpec
            from repro.engines import get_engine

            assert get_engine("compiled").provider_name == "python"
            spec = ProblemSpec(nx=2, ny=2, nz=2, angles_per_octant=1,
                               num_groups=1, num_inners=2, num_outers=1)
            compiled = repro.run(spec.with_(engine="compiled")).scalar_flux
            baseline = repro.run(spec.with_(engine="prefactorized")).scalar_flux
            np.testing.assert_allclose(compiled, baseline, rtol=1e-12, atol=0)
            print("OK")
            """,
            provider="python",
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    @pytest.mark.skipif(not providers._cffi_available(), reason="cffi/cc missing")
    def test_cffi_cache_loads_only_this_interpreters_build(self, tmp_path):
        """A junk artefact with a foreign ABI suffix that sorts first in a
        fresh temp directory: the compiled run must build and load its own."""
        proc = _run_py(
            f"""
            import importlib.machinery
            import tempfile

            tempfile.tempdir = {str(tmp_path)!r}
            import repro
            from repro.config import ProblemSpec
            from repro.engines.compiled import providers

            emitted = providers._emit_c()
            name, target = providers._cffi_artefact(emitted)
            assert target.name == name + importlib.machinery.EXTENSION_SUFFIXES[0]
            foreign = target.with_name(name + ".cpython-310-x86_64-linux-gnu.so")
            assert foreign.name < target.name, "the junk must sort first"
            target.parent.mkdir(parents=True)
            foreign.write_bytes(b"not an extension module")
            spec = ProblemSpec(nx=2, ny=2, nz=2, angles_per_octant=1, num_groups=1,
                               num_inners=1, num_outers=1, engine="compiled")
            assert repro.run(spec).scalar_flux.shape[0] == 8
            assert providers._compile_cffi_module(emitted).__file__ == str(target)
            print("OK")
            """,
            provider="cffi",
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_forcing_a_missing_provider_reports_it(self, monkeypatch):
        monkeypatch.setenv("UNSNAP_COMPILED_PROVIDER", "numba")
        monkeypatch.setattr(providers, "_numba_available", lambda: False)
        providers._reset_selection_for_tests()
        try:
            assert providers.select_provider() is None
            reason = providers.unavailable_reason()
            assert "numba" in reason
        finally:
            providers._reset_selection_for_tests()
        # Back to the environment's real resolution for later tests.
        monkeypatch.delenv("UNSNAP_COMPILED_PROVIDER")
        assert providers.select_provider() is providers.select_provider()

    def test_unknown_override_value_raises(self, monkeypatch):
        monkeypatch.setenv("UNSNAP_COMPILED_PROVIDER", "rust")
        providers._reset_selection_for_tests()
        try:
            with pytest.raises(ValueError, match="rust"):
                providers.select_provider()
        finally:
            providers._reset_selection_for_tests()
            monkeypatch.delenv("UNSNAP_COMPILED_PROVIDER")
            providers.select_provider()
