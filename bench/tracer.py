"""Outside-in span tracing of one `rtq` command.

Run as a script, this is the `rtq` console entry point with tracing on:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json analyze --config cfg.json

It wraps the public functions of each `rtq` module at run time, calls
`rtq.cli.main` with the remaining arguments, writes the recorded spans to
SPANS.json and exits with the command's exit code.  Nothing under `src/` is
changed.  Each name is wrapped where it is looked up:

- module functions of `transforms`, `asymptotics`, `verify` and `cli`,
  because calls inside those modules go through module globals;
- `DecompositionSampler` methods, and the `ParetoShifted` methods in PARETO,
  on the class;
- `cli.simulate` as well as `simulator.simulate`, because `cli` imports that
  name directly.

A span records its name, layer, start, end, parent span and counters:
`points` (size of the array argument), `draws` (the `n` argument of a sampler
method) and `events` (`SimResult.events`).  `summarize` turns the spans of a
round into per-layer self times and work counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

import numpy as np

# Every public function of transforms and asymptotics is wrapped.  Of verify
# and cli only these are, so that the helpers they call (tail fits, TV
# distances, CSV formatting) count as their caller's time.
VERIFY = ("compare", "check_appendix_lemmas", "light_queue_pmf", "empirical_pmf")
CLI = (
    "main", "load_config", "cmd_analyze", "cmd_simulate", "cmd_sample",
    "cmd_verify", "_verify_target", "_atomic_write", "_record_run",
)
# `sample_one` runs once per simulator event: wrapping it would add about a
# million spans to one `simulate`, so Pareto draws count to their caller.
PARETO = {"lst": "pareto_lst", "lst_deriv": "pareto_lst_deriv",
          "poisson_mixture_pmf": "poisson_mixture_pmf"}
# (position, keyword) of the array argument whose size is counted as `points`
POINTS = {"solve_h": (1, "z2"), "factor_K": (1, "u"),
          "pareto_lst": (1, "s"), "pareto_lst_deriv": (1, "s")}


class Tracer:
    """Spans kept in memory; one stack per thread.

    A span opened on a worker thread with nothing open on that thread takes
    the innermost span open on the main thread as its parent, so the verify
    thread pool's tasks are children of `cmd_verify`.
    """

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def wrap(self, fn, layer, name, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            with self._lock:
                sid = len(self.spans)
                span = {"id": sid, "parent": parent, "layer": layer, "name": name,
                        "start": 0.0, "end": 0.0, "counters": counters(args, kwargs)}
                self.spans.append(span)
            stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            events = getattr(result, "events", None)
            if isinstance(events, int):
                span["counters"]["events"] = events
            return result

        return traced


def _points_at(index, keyword):
    def counters(args, kwargs):
        value = kwargs[keyword] if keyword in kwargs else (
            args[index] if len(args) > index else None)
        return {} if value is None else {"points": int(np.size(value))}
    return counters


def _no_counters(args, kwargs):
    return {}


def _draws_of(fn):
    sig = inspect.signature(fn)
    if "n" not in sig.parameters:
        return _no_counters

    def counters(args, kwargs):
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return {}
        n = bound.arguments.get("n")
        return {"draws": int(n)} if isinstance(n, (int, np.integer)) else {}
    return counters


def install(tracer: Tracer):
    """Wrap the `rtq` entry points listed above; returns the `cli` module."""
    from rtq import asymptotics, cli, decomposition, model, simulator, transforms, verify

    def public(module):
        return [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]

    for module, layer, names in ((transforms, "transforms", public(transforms)),
                                 (verify, "verify", VERIFY),
                                 (asymptotics, "asymptotics", public(asymptotics)),
                                 (cli, "cli", CLI)):
        for name in names:
            counters = _points_at(*POINTS[name]) if name in POINTS else _no_counters
            setattr(module, name, tracer.wrap(getattr(module, name), layer, name,
                                              counters))
    for attr, name in PARETO.items():
        counters = _points_at(*POINTS[name]) if name in POINTS else _no_counters
        setattr(model.ParetoShifted, attr,
                tracer.wrap(getattr(model.ParetoShifted, attr), "model", name, counters))
    cls = decomposition.DecompositionSampler
    for attr, fn in list(vars(cls).items()):
        if inspect.isfunction(fn) and attr != "__init__":
            setattr(cls, attr, tracer.wrap(fn, "decomposition", attr, _draws_of(fn)))
    sim = tracer.wrap(simulator.simulate, "simulator", "simulate", _no_counters)
    simulator.simulate = sim
    cli.simulate = sim
    return cli


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    kids = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - _covered(kids.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    ]


# asymptotics takes under a millisecond per command, so it gets no figure
LAYERS = ("model", "transforms", "decomposition", "simulator", "verify", "cli")
NAMED = (
    ("model", "pareto_lst"), ("model", "pareto_lst_deriv"),
    ("model", "poisson_mixture_pmf"), ("transforms", "solve_h"),
    ("transforms", "factor_K"), ("transforms", "conditional_pmfs"),
    ("transforms", "extract_pmf"), ("verify", "compare"),
    ("verify", "check_appendix_lemmas"),
)


def summarize(span_lists) -> dict:
    """Per-layer figures from the spans of several traced commands.

    Returns {metric name: value}: `<layer>.self_s` for every layer;
    `<layer>.<function>.self_s` for the functions in NAMED, and `.points`
    for those that count them; `decomposition.tables_s`, the time in
    `transforms` and `model` spans whose parent is a sampler method; sampler
    draws and simulator events, with their rates over the inclusive time of
    the outermost such spans.
    """
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for layer, name in NAMED:
        out[f"{layer}.{name}.self_s"] = 0.0
        if name in POINTS:
            out[f"{layer}.{name}.points"] = 0
    out.update({"decomposition.tables_s": 0.0, "decomposition.draws": 0,
                "simulator.events": 0})
    sampler_s = sim_s = 0.0
    for spans in span_lists:
        by_id = {s["id"]: s for s in spans}
        for s, own in zip(spans, self_times(spans)):
            layer, name = s["layer"], s["name"]
            if layer in LAYERS:
                out[f"{layer}.self_s"] += own
            if (layer, name) in NAMED:
                out[f"{layer}.{name}.self_s"] += own
                if name in POINTS:
                    out[f"{layer}.{name}.points"] += s["counters"]["points"]
            parent = by_id.get(s["parent"])
            parent_layer = parent["layer"] if parent else None
            dur = s["end"] - s["start"]
            if layer in ("transforms", "model") and parent_layer == "decomposition":
                out["decomposition.tables_s"] += dur
            if layer == "decomposition" and parent_layer != "decomposition":
                out["decomposition.draws"] += s["counters"].get("draws", 0)
                sampler_s += dur
            if layer == "simulator" and parent_layer != "simulator":
                out["simulator.events"] += s["counters"].get("events", 0)
                sim_s += dur
    out["decomposition.draws_per_s"] = (
        out["decomposition.draws"] / sampler_s if sampler_s else 0.0)
    out["simulator.events_per_s"] = out["simulator.events"] / sim_s if sim_s else 0.0
    return out


def main(argv) -> int:
    spans_path, rtq_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        return cli.main(rtq_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
