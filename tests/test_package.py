"""Package surface: exports, errors, elementary types."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._types import Op
from repro import errors


class TestOp:
    def test_fields(self):
        op = Op("A", 3)
        assert op.node == "A" and op.iteration == 3

    def test_shifted(self):
        assert Op("A", 3).shifted(2) == Op("A", 5)
        assert Op("A", 3).shifted(-1) == Op("A", 2)

    def test_str(self):
        assert str(Op("A", 3)) == "A[3]"

    def test_hashable_and_ordered(self):
        assert len({Op("A", 1), Op("A", 1), Op("B", 1)}) == 2
        assert Op("A", 1) < Op("A", 2) < Op("B", 0)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.GraphError, errors.ReproError)
        assert issubclass(errors.ParseError, errors.ReproError)
        assert issubclass(errors.PatternNotFoundError, errors.SchedulingError)
        assert issubclass(errors.DeadlockError, errors.SimulationError)
        assert issubclass(errors.ValidationError, errors.ReproError)

    def test_parse_error_carries_line(self):
        err = errors.ParseError("bad token", line=7)
        assert err.line == 7
        assert "line 7" in str(err)

    def test_parse_error_without_line(self):
        err = errors.ParseError("bad token")
        assert err.line is None

    def test_all_catchable_as_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackage_alls_resolve(self):
        import repro.baselines
        import repro.codegen
        import repro.core
        import repro.graph
        import repro.lang
        import repro.machine
        import repro.report
        import repro.sim
        import repro.workloads

        for mod in (
            repro.baselines,
            repro.codegen,
            repro.core,
            repro.graph,
            repro.lang,
            repro.machine,
            repro.report,
            repro.sim,
            repro.workloads,
        ):
            for name in mod.__all__:
                assert hasattr(mod, name), (mod.__name__, name)

    def test_docstrings_everywhere(self):
        """Every public module and exported callable is documented."""
        import importlib
        import pkgutil

        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            mod = importlib.import_module(info.name)
            assert mod.__doc__, f"{info.name} lacks a module docstring"
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if callable(obj):
                    assert obj.__doc__, f"{info.name}.{name} undocumented"


class TestDependencies:
    ROOT = Path(__file__).resolve().parent.parent

    def test_importing_every_module_leaves_numpy_unloaded(self):
        """Every module, imported as perfbench's probe imports them, in a
        fresh interpreter: the program needs no third-party package."""
        script = (
            "import importlib, pkgutil, sys, repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not info.name.endswith('__main__'):\n"
            "        importlib.import_module(info.name)\n"
            "print(len([m for m in sys.modules if m.startswith('repro.')]))\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        ).stdout.split("\n")
        assert int(out[0]) > 50
        assert out[1] == "[]"

    def test_pyproject_lists_no_runtime_dependency(self):
        text = (self.ROOT / "pyproject.toml").read_text()
        assert "dependencies" not in text
