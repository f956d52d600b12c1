"""Random configs through every command: a typed exit code, never a traceback.

Each example writes one config and runs `analyze`, `simulate`, `verify` and
`sample` of one target through `cli.main` in-process, with one worker and
tiny budgets.  An untyped exception escapes `cli.main` and fails the test.
A command that exits non-zero leaves no file behind, and every JSON artifact
is strict JSON: no NaN or Infinity.

The suite turns every warning into an error, but a numpy warning reaches a
user only as a line on stderr, so each example records the warnings instead.
"""

import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtq import cli, parallel
from rtq.decomposition import PAIR_TARGETS, SCALAR_TARGETS


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_LAWS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("pareto"), "index": st.floats(1.05, 20.0),
                           "mean": _log_uniform(1e-3, 10.0)}),
    st.fixed_dictionaries({"kind": st.just("exponential"), "mean": _log_uniform(1e-3, 10.0)}),
    st.fixed_dictionaries({"kind": st.just("erlang"), "shape": st.integers(1, 30),
                           "rate": _log_uniform(0.1, 1e3)}),
)


@st.composite
def _windows(draw):
    lo = draw(st.integers(10, 60))
    return [lo, draw(st.integers(lo + 1, lo + 60))]


_CONFIGS = st.fixed_dictionaries({
    "model": st.fixed_dictionaries({
        "lam": _log_uniform(0.01, 100.0), "q": st.floats(0.01, 0.99),
        "mu": _log_uniform(0.01, 100.0), "dist1": _LAWS, "dist2": _LAWS,
    }),
    "sim": st.fixed_dictionaries({"max_events": st.integers(1, 2000)}),
    "inversion": st.fixed_dictionaries({"n": st.integers(1, 100),
                                        "radius": st.floats(0.3, 0.99)}),
    "verify": st.fixed_dictionaries({
        "window": _windows(), "light_window": _windows(),
        "n_states": st.integers(1, 60), "samples": st.integers(1, 2000),
    }),
    "seed": st.integers(0, 2**16),
})


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(config=_CONFIGS, target=st.sampled_from(SCALAR_TARGETS + PAIR_TARGETS),
       count=st.integers(1, 2000))
def test_every_command_exits_typed(config, target, count):
    commands = [["analyze"], ["simulate"], ["verify"],
                ["sample", "--target", target, "-n", str(count)]]
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as patch, \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        patch.setattr(parallel, "workers", lambda jobs: min(jobs, 1))
        path = os.path.join(work, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        for command in commands:
            out = os.path.join(work, command[0])
            code = cli.main([command[0], "--config", path, "--out", out, *command[1:]])
            assert code in (0, 2, 3, 4), (command, code)
            written = sorted(os.listdir(out)) if os.path.isdir(out) else []
            if code:
                assert written == [], (command, written)
                continue
            assert "runs.jsonl" in written
            for name in written:
                if name.endswith(".json"):
                    with open(os.path.join(out, name)) as fh:
                        json.load(fh, parse_constant=_reject_constant)
