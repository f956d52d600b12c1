"""End-to-end benchmark of the `rtq` command line.

    python3 bench/run.py --workload inversion-deep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from the repository root.  Every `rtq` command runs the way a user runs
it: one fresh interpreter per command, `PYTHONPATH=src`, `RTQ_THREADS`
unset.  A run repeats whole rounds of its workload's commands until
`--seconds` have passed (at least one round), checks every command's
artifacts against values computed from the config's numbers alone
(`checks.py`), and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: `setup_s` (median of
several fresh interpreters importing `rtq.cli` and loading the workload's
configs), `round_s` (median wall time of one round of commands) and
`peak_rss_mb` (largest peak RSS of any command process).  With `--trace 1`
the run makes one untraced round and one round of the same commands under
`tracer.py`, each command run untraced and then traced in turn.  It checks
that both wrote the same bytes and reports per-layer self times and work
counts from the spans; the tracing overhead, summed over the commands of
(traced wall time - untraced wall time), is printed above the JSON line.
`--workload all` runs every workload both ways and prints every figure; its
JSON line sums `attempted` and `failed` over the sub-runs and keys each
metric as `<workload>/<metric>`.

One operation is one command invocation together with its checks; it
fails on a nonzero exit or a failed check.  Each command's stdout and
stderr are kept under `.bench_work/`, and new stderr lines are echoed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
TRACER = Path(tracer.__file__).resolve()

CLI_STUB = "import sys; from rtq.cli import entry; sys.argv[0] = 'rtq'; entry()"
SETUP_STUB = "import sys, rtq.cli\nfor p in sys.argv[1:]: rtq.cli.load_config(p)"
SETUP_REPEATS = 5
OP_TIMEOUT_S = 170.0

# the reference models of tests/conftest.py: heavy type 1 (Pareto 2.5), and
# a light (exponential) or heavy (Pareto 4) type 2
REF_MODEL = {
    "lam": 1.0, "q": 0.5, "mu": 1.0,
    "dist1": {"kind": "pareto", "index": 2.5, "mean": 0.6},
    "dist2": {"kind": "exponential", "mean": 0.3},
}
ALT_MODEL = dict(REF_MODEL, dist2={"kind": "pareto", "index": 4.0, "mean": 0.3})

MC_EVENTS = 2_000_000
MC_DRAWS = 1_000_000


@dataclass
class Op:
    name: str
    command: str  # analyze | simulate | sample | verify
    config: str  # also the output subdirectory, shared by ops of one round
    check: object  # (out_dir, model numbers) -> list of failure messages
    extra: list = field(default_factory=list)


@dataclass
class Workload:
    configs: dict
    ops: list


_DEEP = {"n": 2000, "radius": 0.995}
WORKLOADS = {
    # R0 through the FFT series (radius**m ~ 4e-18): transforms + model
    "inversion-deep": Workload(
        configs={"ref": {"model": REF_MODEL, "inversion": _DEEP},
                 "alt": {"model": ALT_MODEL, "inversion": _DEEP}},
        ops=[Op(f"analyze-{c}", "analyze", c, checks.check_analyze)
             for c in ("ref", "alt")],
    ),
    # simulator, sampler table builds and draws, CSV writing
    "monte-carlo": Workload(
        configs={"mc": {"model": REF_MODEL, "sim": {"max_events": MC_EVENTS}}},
        ops=[Op("simulate", "simulate", "mc",
                lambda out, nums: checks.check_simulate(out, nums, MC_EVENTS))]
        + [Op(f"sample-{t}", "sample", "mc",
              lambda out, nums, t=t: checks.check_sample(out, t, nums),
              ["--target", t, "-n", str(MC_DRAWS)])
           for t in ("r0", "r1", "r2")],
    ),
    # the tests' verify config: R0 by segmentwise quadrature
    # (radius**m ~ 0.04), the verify thread pool and the lemma checks
    "verify-small": Workload(
        configs={"verify": {
            "model": REF_MODEL,
            "sim": {"max_events": 300_000},
            "inversion": {"n": 160, "radius": 0.99},
            "verify": {"window": [30, 120], "light_window": [30, 100],
                       "n_states": 40, "samples": 100_000},
        }},
        ops=[Op("verify", "verify", "verify", checks.check_verify)],
    ),
}


@dataclass
class OpResult:
    op: Op
    wall_s: float
    rss_mb: float
    errors: list
    artifacts: list


def _env() -> dict:
    env = dict(os.environ)
    env.pop("RTQ_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(cmd, log_stem: Path, env):
    """Run cmd from the repository root; returns (wall s, exit code, peak RSS MB)."""
    with open(f"{log_stem}.stdout", "wb") as out, open(f"{log_stem}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Runner:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.env = _env()
        self.dir = WORK / name
        self.nums = {c: checks.model_numbers(cfg["model"])
                     for c, cfg in self.wl.configs.items()}
        self._seen_stderr = set()

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "configs").mkdir(parents=True)
        for c, cfg in self.wl.configs.items():
            (self.dir / "configs" / f"{c}.json").write_text(
                json.dumps(dict(cfg, seed=self.seed), indent=2))

    def config_path(self, c) -> str:
        return str(self.dir / "configs" / f"{c}.json")

    def setup_once(self) -> float:
        cmd = [sys.executable, "-c", SETUP_STUB] + [self.config_path(c) for c in self.wl.configs]
        wall, code, _ = _spawn(cmd, self.dir / "setup", self.env)
        if code != 0:
            err = (self.dir / "setup.stderr").read_text().strip().splitlines()
            raise SystemExit(f"bench: set-up failed ({err[-1] if err else code})")
        return wall

    def fresh(self, label: str) -> Path:
        """An empty directory for one round's artifacts, logs and spans."""
        dest = self.dir / label
        shutil.rmtree(dest, ignore_errors=True)
        (dest / "logs").mkdir(parents=True)
        (dest / "spans").mkdir()
        return dest

    def run_op(self, op: Op, dest: Path, traced: bool) -> OpResult:
        out = dest / op.config
        argv = [op.command, "--config", self.config_path(op.config),
                "--seed", str(self.seed), "--out", str(out)] + op.extra
        if traced:
            cmd = [sys.executable, str(TRACER), str(dest / "spans" / f"{op.name}.json")]
        else:
            cmd = [sys.executable, "-c", CLI_STUB]
        wall, code, rss = _spawn(cmd + argv, dest / "logs" / op.name, self.env)
        self._echo_stderr(op, dest / "logs" / f"{op.name}.stderr")
        artifacts = (dest / "logs" / f"{op.name}.stdout").read_text().split()
        if code != 0:
            errors = [f"exit code {code}"]
        else:
            try:
                errors = op.check(str(out), self.nums[op.config])
            except Exception as exc:  # an unreadable artifact fails the op
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        return OpResult(op, wall, rss, errors, artifacts)

    def round(self, label: str, traced: bool) -> list:
        dest = self.fresh(label)
        return [self.run_op(op, dest, traced) for op in self.wl.ops]

    def _echo_stderr(self, op, path):
        for line in path.read_text(errors="replace").splitlines():
            if line.strip() and line not in self._seen_stderr:
                self._seen_stderr.add(line)
                print(f"bench: {self.name} {op.name} stderr: {line}", file=sys.stderr)


def _median_round(rounds, keep=lambda op: True) -> float:
    return statistics.median(sum(r.wall_s for r in rnd if keep(r.op)) for rnd in rounds)


def _counts(rounds):
    flat = [r for rnd in rounds for r in rnd]
    failed = [r for r in flat if r.errors]
    for r in failed:
        print(f"bench: FAILED {r.op.name}: {'; '.join(r.errors)}", file=sys.stderr)
    return len(flat), len(failed)


def run_untraced(runner: Runner, seconds: float):
    runner.prepare()
    setup = [runner.setup_once() for _ in range(SETUP_REPEATS)]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(runner.round("untraced", traced=False))
    attempted, failed = _counts(rounds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "round_s": (_median_round(rounds), "s"),
        "peak_rss_mb": (max(r.rss_mb for rnd in rounds for r in rnd), "MB"),
    }
    # per-command times, medians over rounds; the same figures make up round_s
    info = {}
    for command in dict.fromkeys(op.command for op in runner.wl.ops):
        info[f"{command}_s"] = (
            _median_round(rounds, lambda op, c=command: op.command == c), "s")
    info["rounds"] = (len(rounds), "count")
    return attempted, failed, metrics, info


def _compare_artifacts(untraced, traced):
    """Traced commands must write the same bytes as untraced ones."""
    for u, t in zip(untraced, traced):
        for a, b in zip(u.artifacts, t.artifacts):
            if Path(a).name != Path(b).name:
                t.errors.append(f"traced run wrote {b}, untraced {a}")
            elif Path(a).read_bytes() != Path(b).read_bytes():
                t.errors.append(f"traced {Path(b).name} differs from the untraced one")
        if len(u.artifacts) != len(t.artifacts):
            t.errors.append("traced and untraced runs wrote different artifact lists")


def run_traced(runner: Runner):
    runner.prepare()
    runner.setup_once()  # compiles and caches the package before timing
    # each command untraced and then traced, so that the two see the same
    # state of the host; later commands of a round read earlier ones' output
    u_dest, t_dest = runner.fresh("untraced"), runner.fresh("traced")
    untraced, traced = [], []
    for op in runner.wl.ops:
        untraced.append(runner.run_op(op, u_dest, traced=False))
        traced.append(runner.run_op(op, t_dest, traced=True))
    _compare_artifacts(untraced, traced)
    attempted, failed = _counts([untraced, traced])
    spans = []
    for r in traced:
        path = runner.dir / "traced" / "spans" / f"{r.op.name}.json"
        spans.append(json.loads(path.read_text()) if path.exists() else [])
    layers = tracer.summarize(spans)
    metrics = {}
    for name, value in layers.items():
        if name.endswith(("points", "draws", "events")):
            metrics[name] = (value, "count")
        elif name.endswith("_per_s"):
            metrics[name] = (value, "1/s")
        else:
            metrics[name] = (value, "s")
    untraced_s = sum(r.wall_s for r in untraced)
    traced_s = sum(r.wall_s for r in traced)
    info = {"untraced_round_s": (untraced_s, "s"), "traced_round_s": (traced_s, "s"),
            "trace_overhead_s": (traced_s - untraced_s, "s")}
    return attempted, failed, metrics, info


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(name, seed)
    if trace:
        attempted, failed, metrics, info = run_traced(runner)
    else:
        attempted, failed, metrics, info = run_untraced(runner, seconds)
    for key, (value, unit) in {**metrics, **info}.items():
        print(f"{name} trace={int(trace)} {key} = {value:.6g} {unit}")
    print(f"{name} trace={int(trace)} operations attempted {attempted}, failed {failed}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rtq" / "cli.py").is_file():
        print(f"bench: no rtq sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.workload == "all":
        parts = {name: [run(name, args.seed, args.seconds, bool(t)) for t in (0, 1)]
                 for name in WORKLOADS}
        flat = [(name, part) for name, pair in parts.items() for part in pair]
        result = {
            "correct": all(part["correct"] for _, part in flat),
            "attempted": sum(part["attempted"] for _, part in flat),
            "failed": sum(part["failed"] for _, part in flat),
            "metrics": {f"{name}/{key}": value for name, part in flat
                        for key, value in part["metrics"].items()},
        }
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
