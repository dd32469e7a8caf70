"""Package surfaces: every ``repro`` package ``__init__`` is a name table
resolved on first use, and a run imports only the packages it uses."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg
)

#: packages no estimate-mode table and no host RTM run has any use for
UNUSED_BY_TABLES_AND_RTM = (
    "repro.analyze", "repro.sanitize", "repro.compile", "repro.optim",
    "repro.serve", "repro.resilience", "repro.observe.scaling",
)


def _fresh(code: str, timeout: float = 300) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded_after(code: str, timeout: float = 300) -> list[str]:
    """The ``repro`` modules a fresh interpreter has loaded at exit."""
    proc = _fresh(
        "import atexit, json, sys\n"
        "atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro')), file=sys.stderr))\n" + code,
        timeout,
    )
    return json.loads(proc.stderr.strip().splitlines()[-1])


def _table(package: str) -> dict[str, tuple[str, ...]]:
    """The name table a package's ``__init__`` hands to ``lazy_exports``."""
    init = Path(importlib.import_module(package).__file__)
    calls = [
        node for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports"
    ]
    assert len(calls) == 1, f"{init} is not a name table"
    return ast.literal_eval(calls[0].args[1])


class TestImportBudget:
    @pytest.mark.parametrize("code", [
        "import repro.bench.table3, repro.bench.table4",
        "import repro.core.rtm",
        "import runpy, sys\n"
        "sys.argv = ['repro', 'tables']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n",
    ], ids=["import-tables", "import-rtm", "repro-tables"])
    def test_loads_no_unused_package(self, code):
        loaded = _loaded_after(code)
        unused = [
            m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in UNUSED_BY_TABLES_AND_RTM)
        ]
        assert not unused, unused


class TestPackageSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_init_is_a_name_table(self, package):
        init = Path(importlib.import_module(package).__file__)
        imports = [
            node for node in ast.parse(init.read_text()).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert [ast.unparse(node) for node in imports] == [
            "from repro.utils.lazy import lazy_exports"
        ]

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_name_resolves_to_its_definition(self, package):
        pkg = importlib.import_module(package)
        table = _table(package)
        assert pkg.__all__ == [n for names in table.values() for n in names]
        listed = dir(pkg)
        for module, names in table.items():
            for name in names:
                value = getattr(pkg, name)
                if module:
                    home = importlib.import_module(f"{package}.{module}")
                    assert value is getattr(home, name), (package, name)
                else:
                    assert value is importlib.import_module(f"{package}.{name}")
                assert name in listed, (package, name)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_star_import(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name), (package, name)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'run_everything'"):
            repro.core.run_everything  # noqa: B018

    def test_names_shared_with_their_submodule_are_the_functions(self):
        # a fresh interpreter that imports the submodules first, by every
        # spelling: the package attributes must still be the functions
        _fresh(
            "import repro.acc.minfo, repro.gpusim.occupancy\n"
            "from repro.acc.minfo import minfo as f\n"
            "from repro.gpusim.occupancy import occupancy as g\n"
            "import repro\n"
            "from repro.acc import minfo\n"
            "from repro.gpusim import occupancy\n"
            "assert minfo is f and repro.acc.minfo is f, repro.acc.minfo\n"
            "assert occupancy is g and repro.gpusim.occupancy is g\n"
        )

    def test_quickstart_runs(self):
        doc = repro.__doc__
        block = doc[doc.index("Quickstart::") + len("Quickstart::"):]
        code = "\n".join(line[4:] for line in block.splitlines()).strip()
        proc = _fresh(code)
        assert re.fullmatch(r"\(\d+, \d+\)", proc.stdout.strip()), proc.stdout
