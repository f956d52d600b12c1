"""The benchmark's tracer wraps `rtq` functions by name at run time, so a
renamed function or a moved argument breaks `bench/tracer.py` without failing
any other test; these tests pin the names and argument positions it uses."""

import inspect
import runpy
from pathlib import Path

import pytest

from rtq import asymptotics, cli, decomposition, simulator, transforms, verify
from rtq.model import ParetoShifted

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # run_path executes the file without importing it as a module or caching
    # its bytecode next to it
    return runpy.run_path(str(TRACER))


def _wrapped(tracer):
    """{span name: function} for every name the tracer wraps by name."""
    out = {}
    for module in (transforms, asymptotics):
        out.update({n: getattr(module, n) for n in module.__all__})
    out.update({n: getattr(verify, n) for n in tracer["VERIFY"]})
    out.update({n: getattr(cli, n) for n in tracer["CLI"]})
    out.update({span: getattr(ParetoShifted, attr) for attr, span in tracer["PARETO"].items()})
    return out


def test_wrapped_names_exist(tracer):
    for name, fn in _wrapped(tracer).items():
        assert callable(fn), name
    assert cli.simulate is simulator.simulate
    assert inspect.isclass(decomposition.DecompositionSampler)


def test_points_arguments_match_signatures(tracer):
    wrapped = _wrapped(tracer)
    for name, (position, keyword) in tracer["POINTS"].items():
        params = list(inspect.signature(wrapped[name]).parameters)
        assert params[position] == keyword, name
