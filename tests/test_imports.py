"""The three pillars stay independent in code: checked on the import graph."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rtq"


def _imports(module: str) -> set:
    """Every module, and every name taken from one, that `rtq.<module>`
    imports anywhere in its source, with relative imports made absolute."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["rtq" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_parser_sees_both_import_forms():
    names = _imports("cli")
    assert {"argparse", "rtq.transforms", "rtq.decomposition", "rtq.model.Erlang"} <= names


@pytest.mark.parametrize("module, banned", [
    ("simulator", {"random", "rtq.transforms", "rtq.decomposition", "rtq.asymptotics"}),
    ("decomposition", {"rtq.transforms", "rtq.asymptotics"}),
    # the tail catalog's assumptions (a2 > a1) stay out of all three pillars
    ("transforms", {"rtq.asymptotics"}),
])
def test_pillar_does_not_import(module, banned):
    assert not _imports(module) & banned


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_module_imports_scipy(module):
    # numpy is the only run-time dependency: every module imports only numpy,
    # the standard library and rtq, so neither scipy nor the test extras
    # (mpmath, sympy, hypothesis) creep in
    allowed = {"numpy", "rtq"} | set(sys.stdlib_module_names)
    assert {name.split(".")[0] for name in _imports(module)} <= allowed


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_module_imports_a_private_name(module):
    # underscore names stay inside their module; dunders such as
    # __version__ are public
    private = {
        name for name in _imports(module)
        if name.startswith("rtq.") and name.rsplit(".", 1)[1].startswith("_")
        and not name.endswith("__")
    }
    assert not private


def test_cli_import_loads_no_pool():
    # the pools are imported where they are used: at module level they
    # would add to the start-up of every command
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, rtq.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_analyze_loads_no_openssl(tmp_path):
    # importing hashlib loads and initialises OpenSSL, 3.6 MB of peak RSS;
    # analyze never imports numpy.random, which would load it anyway
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"lam": 1.0, "q": 0.5, "mu": 1.0,
                  "dist1": {"kind": "pareto", "index": 2.5, "mean": 0.6},
                  "dist2": {"kind": "exponential", "mean": 0.3}},
        "inversion": {"n": 60, "radius": 0.8},
    }))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = (
        "import sys\n"
        "from rtq import cli\n"
        f"assert cli.main(['analyze', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted({'_hashlib', '_ssl'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_simulate_and_verify_load_no_process_pool(tmp_path):
    # both fork their Monte-Carlo jobs directly: neither multiprocessing nor
    # the process pool of concurrent.futures is ever imported
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"lam": 1.0, "q": 0.5, "mu": 1.0,
                  "dist1": {"kind": "pareto", "index": 2.5, "mean": 0.6},
                  "dist2": {"kind": "exponential", "mean": 0.3}},
        "sim": {"max_events": 20_000},
        "inversion": {"n": 160, "radius": 0.99},
        "verify": {"window": [30, 120], "light_window": [30, 100],
                   "n_states": 40, "samples": 20_000},
    }))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = (
        "import sys\n"
        "from rtq import cli, parallel\n"
        "parallel.workers = lambda jobs: min(jobs, 2)  # fork on a one-CPU host too\n"
        "for command in ('simulate', 'verify'):\n"
        f"    assert cli.main([command, '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
