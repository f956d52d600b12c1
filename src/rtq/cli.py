"""Command-line front end: analyze / simulate / sample / verify.

One JSON config file describes the model, the simulation budget, the
inversion grid and the verification windows; unknown keys anywhere are
rejected.  Commands write CSV/JSON artifacts into the output directory
atomically (temp file + rename) and append one record per run to
runs.jsonl.  Everything except that log's timestamp is a pure function of
(config, seed), so repeated runs are byte-identical.

Exit codes: 0 success, 2 configuration problem, 3 numeric failure,
4 insufficient or too-noisy data.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, asymptotics, parallel, transforms, verify
from .decomposition import PAIR_TARGETS, SCALAR_TARGETS, DecompositionSampler
from .errors import (
    AssumptionViolation,
    BadParam,
    InsufficientData,
    NotApplicable,
    OverflowGuard,
    RtqError,
    Unstable,
    WindowTooNoisy,
)
from .model import Erlang, Exponential, ModelParams, ParetoShifted
from .simulator import TARGET_STATES, SimConfig, simulate

__all__ = ["RunConfig", "load_config", "entry", "main"]

_CONFIG_ERRORS = (BadParam, Unstable, AssumptionViolation)
_DATA_ERRORS = (InsufficientData, WindowTooNoisy)
# tail-fit tolerances echoed into verify_report.json next to the fits
_KAPPA_TOL, _C_TOL = 0.15, 0.25
_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class RunConfig:
    params: ModelParams
    sim: SimConfig
    inversion_n: int
    inversion_radius: float
    verify_window: tuple
    verify_light_window: tuple
    verify_n_states: int
    verify_samples: int
    out: str
    seed: int
    raw: dict


def _require_keys(block: dict, allowed: set, where: str):
    if not isinstance(block, dict):
        raise BadParam(f"{where} must be an object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise BadParam(f"unknown keys in {where}: {sorted(unknown)}")


def _number(block: dict, key: str, where: str, default=None):
    """block[key], or `default` when absent; BadParam unless a finite number."""
    value = block.get(key, default)
    if type(value) not in (int, float) or not -math.inf < value < math.inf:
        raise BadParam(f"{where}.{key} must be a finite number, got {value!r}")
    return value


def _count(block: dict, key: str, where: str, default: int, least: int = 1) -> int:
    """block[key] as an int; BadParam unless integral (1e6 counts) and >= least."""
    value = _number(block, key, where, default)
    if value != int(value) or value < least:
        raise BadParam(f"{where}.{key} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _positive(block: dict, key: str, where: str) -> float:
    value = _number(block, key, where)
    if value <= 0:
        raise BadParam(f"{where}.{key} must be positive, got {value}")
    return value


def _window(block: dict, key: str, default: list) -> tuple:
    w = block.get(key, default)
    if not (type(w) is list and [type(j) for j in w] == [int, int] and 10 <= w[0] < w[1]):
        raise BadParam(f"verify.{key} must be two integers 10 <= lo < hi, got {w!r}")
    return tuple(w)


def _parse_dist(block: dict, where: str):
    if not isinstance(block, dict) or "kind" not in block:
        raise BadParam(f"{where} must be an object with a 'kind'")
    kind = block["kind"]
    if kind == "exponential":
        _require_keys(block, {"kind", "rate", "mean"}, where)
        if ("rate" in block) == ("mean" in block):
            raise BadParam(f"{where}: give exactly one of rate/mean")
        if "rate" in block:
            return Exponential(_positive(block, "rate", where))
        mean = _positive(block, "mean", where)
        if 1.0 / mean == math.inf:
            raise BadParam(f"{where}.mean is too small to invert into a rate, got {mean}")
        return Exponential(1.0 / mean)
    if kind == "erlang":
        _require_keys(block, {"kind", "shape", "rate"}, where)
        return Erlang(_count(block, "shape", where, None), _positive(block, "rate", where))
    if kind == "pareto":
        _require_keys(block, {"kind", "index", "scale", "mean"}, where)
        if ("scale" in block) == ("mean" in block):
            raise BadParam(f"{where}: give exactly one of scale/mean")
        index = _positive(block, "index", where)
        if index <= 1:
            raise BadParam(f"{where}.index must exceed 1 for a finite mean, got {index}")
        if "scale" in block:
            return ParetoShifted(index, _positive(block, "scale", where))
        return ParetoShifted.from_mean(index, _positive(block, "mean", where))
    raise BadParam(f"{where}: unknown distribution kind {kind!r}")


def load_config(path: str, seed_override=None, out_override=None) -> RunConfig:
    """Parse and freeze a run configuration.  BadParam for unknown keys,
    blocks that are not objects, missing, non-numeric or infinite numbers,
    law rates, means, scales and indices that are not positive (a Pareto
    index must exceed 1, for a finite mean), counts other than integers >= 1
    (Erlang shape, sim max_events, inversion n, verify n_states and
    samples), a seed other than an integer >= 0 and windows other than ints
    10 <= lo < hi.  Each names its key.  `ModelParams` checks the model
    itself; the catalog's a2 > a1 assumption is left to `tail_catalog`."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadParam(f"cannot read config {path}: {exc}") from None
    _require_keys(raw, {"model", "sim", "inversion", "verify", "out", "seed"}, "config")

    model = raw.get("model")
    _require_keys(model, {"lam", "q", "mu", "dist1", "dist2"}, "model")
    params = ModelParams(
        lam=float(_number(model, "lam", "model")),
        q=float(_number(model, "q", "model")),
        mu=float(_number(model, "mu", "model")),
        dist1=_parse_dist(model.get("dist1"), "model.dist1"),
        dist2=_parse_dist(model.get("dist2"), "model.dist2"),
    )

    seed = _count(raw, "seed", "config", 0, 0) if seed_override is None else int(seed_override)
    if seed < 0:
        raise BadParam(f"--seed must be a non-negative integer, got {seed}")
    sim_block = raw.get("sim", {})
    _require_keys(sim_block, {"max_events"}, "sim")
    sim = SimConfig(seed=seed, **{key: _count(sim_block, key, "sim", None) for key in sim_block})

    inv = raw.get("inversion", {})
    _require_keys(inv, {"n", "radius"}, "inversion")
    ver = raw.get("verify", {})
    _require_keys(ver, {"window", "light_window", "n_states", "samples"}, "verify")

    return RunConfig(
        params=params,
        sim=sim,
        inversion_n=_count(inv, "n", "inversion", 150),
        inversion_radius=float(_number(inv, "radius", "inversion", 0.9)),
        verify_window=_window(ver, "window", [50, 1000]),
        verify_light_window=_window(ver, "light_window", [30, 100]),
        verify_n_states=_count(ver, "n_states", "verify", 50),
        verify_samples=_count(ver, "samples", "verify", 1_000_000),
        out=str(raw.get("out", "out")) if out_override is None else str(out_override),
        seed=seed,
        raw=raw,
    )


# ---------------------------------------------------------------------------
# persistence helpers


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file to write `path` through: a temp file in the same
    directory, renamed to `path` when the block ends and removed when it
    raises, so a reader never sees a partial file.

    The temp file is created with mode 0666 less the umask, the mode a plain
    open(path, "w") gives, and keeps it through the rename.
    """
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, data: str):
    """Write `data` to `path` through `_atomic_file`."""
    with _atomic_file(path) as fh:
        fh.write(data)


def _csv_text(header, *columns) -> str:
    """CSV text of a header and equal-length columns of the small files.

    For `analyze` and `simulate`, whose cells are ints, formatted floats or
    bare words: no field needs quoting, so joined strings are the bytes
    csv.writer would write.  Integer draws go through `_int_csv_rows`.
    """
    row = ",".join(["{}"] * len(header))
    return "\n".join([",".join(header), *map(row.format, *columns)]) + "\n"


def _int_csv_rows(*columns) -> str:
    """CSV rows of one or two equal-length int64 columns, as csv.writer
    writes them, without a header.

    Each distinct row is formatted once and the text joins the looked-up
    strings, so the cost is a sort plus one string per distinct row, not one
    per row.  Two columns are encoded as one exact int64 code per row, after
    shifting each column to start at 0; `OverflowGuard` is raised when the
    codes would not fit in int64.
    """
    if len(columns) == 1:
        uniq, inverse = np.unique(columns[0], return_inverse=True)
        cells = list(map(str, uniq.tolist()))
    else:
        q, o = columns
        q0, o0 = int(q.min()), int(o.min())
        q_span, width = int(q.max()) - q0, int(o.max()) - o0 + 1
        if q_span * width + width - 1 > _INT64_MAX:
            raise OverflowGuard(
                f"cannot encode queue,orbit rows as int64 codes: "
                f"column spans {q_span} and {width - 1}"
            )
        uniq, inverse = np.unique((q - q0) * width + (o - o0), return_inverse=True)
        hi, lo = np.divmod(uniq, width)
        cells = [f"{a},{b}" for a, b in zip((hi + q0).tolist(), (lo + o0).tolist())]
    rows = np.array(cells, dtype=object)[inverse].tolist()
    return "\n".join(rows) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    canon += f"|seed={cfg.seed}"
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _record_run(cfg: RunConfig, command: str, artifacts: list):
    rec = {
        "command": command,
        "config_hash": _config_hash(cfg),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "artifacts": sorted(artifacts),
        "version": __version__,
    }
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(cfg: RunConfig) -> list:
    # every result first, so a numeric error leaves no artifact behind
    try:
        catalog = asymptotics.tail_catalog(cfg.params)
    except (NotApplicable, AssumptionViolation):
        # no power-law type-1 service, or a2 <= a1: the stationary laws
        # exist, but there is no tail catalog to write
        catalog = None
    pmfs = transforms.conditional_pmfs(
        cfg.params, cfg.inversion_n, radius=cfg.inversion_radius
    )
    u = np.linspace(0.0, 0.99, 100)
    kf = transforms.factor_K(cfg.params, u)
    paths = []
    for name, pmf in sorted(pmfs.items()):
        j = [*range(len(pmf)), "deficit"]
        p = [f"{v:.17g}" for v in (*pmf.probs.tolist(), pmf.deficit)]
        path = os.path.join(cfg.out, f"pmf_{name}.csv")
        _atomic_write(path, _csv_text(("j", "probability"), j, p))
        paths.append(path)

    factors = [[f"{v:.17g}" for v in col.real.tolist()] for col in (kf.ka, kf.kb, kf.kc, kf.k)]
    path = os.path.join(cfg.out, "factors.csv")
    _atomic_write(path, _csv_text(("u", "ka", "kb", "kc", "k"),
                                  [f"{v:.4f}" for v in u], *factors))
    paths.append(path)

    if catalog is not None:
        path = os.path.join(cfg.out, "catalog.json")
        _atomic_write(path, _json_text({name: e.to_dict() for name, e in catalog.items()}))
        paths.append(path)
    return paths


def cmd_simulate(cfg: RunConfig) -> list:
    res = simulate(cfg.params, cfg.sim)
    stats = {
        "cycles": len(res.cycles),
        "events": res.events,
        "collected_time": res.collected_time,
        "state_fractions": res.state_fractions().tolist(),
        "state_fraction_stderr": res.state_fraction_stderr().tolist(),
        "pasta_fractions": res.pasta_fractions().tolist(),
        "expected_fractions": [1 - cfg.params.rho, cfg.params.rho1, cfg.params.rho2],
    }
    # every statistic first, so a data error leaves no artifact behind
    pmfs = {law: res.conditional_pmf(law) for law in TARGET_STATES}
    paths = [os.path.join(cfg.out, "sim_stats.json")]
    _atomic_write(paths[0], _json_text(stats))
    for tag, pmf in pmfs.items():
        path = os.path.join(cfg.out, f"hist_{tag}.csv")
        _atomic_write(path, _csv_text(("j", "fraction"), range(pmf.size),
                                      [f"{v:.17g}" for v in pmf]))
        paths.append(path)
    return paths


def cmd_sample(cfg: RunConfig, target: str, n: int) -> list:
    """Write n draws of `target` as CSV, block by block as the sampler
    hands them over, so memory is bounded by the blocks in flight, not n."""
    name = target.lower()
    if name not in SCALAR_TARGETS + PAIR_TARGETS:  # before the file is opened
        raise BadParam(f"unknown target {target!r}; choose from "
                       f"{', '.join(SCALAR_TARGETS + PAIR_TARGETS)}")
    sampler = DecompositionSampler(cfg.params, seed=cfg.seed)
    path = os.path.join(cfg.out, f"samples_{name}.csv")
    with _atomic_file(path) as fh:
        fh.write("queue,orbit\n" if name in PAIR_TARGETS else "value\n")
        sampler.sample_into(name, n, lambda columns: fh.write(_int_csv_rows(*columns)))
    return [path]


def _verify_target(cfg, target, pmfs, sim_res, sampler_pmfs, catalog):
    sources = {"inversion": pmfs[target], "sampler": sampler_pmfs[target]}
    try:
        sources["simulator"] = sim_res.conditional_pmf(target)
    except InsufficientData:
        pass
    entry = catalog[target.lower()]
    window = cfg.verify_window
    if entry.geom < 1.0:
        window = cfg.verify_light_window
        sources["inversion"] = verify.light_queue_pmf(
            cfg.params, max(window[1] + 2, 120)
        )
    return verify.compare(target, sources, cfg.verify_n_states, window, entry)


def _sampler_pmfs(cfg: RunConfig) -> dict:
    """Empirical pmfs of the five laws from verify.samples draws of r0, r1
    and r2, drawn in turn: the counts of 0..n_states are added up block by
    block as the sampler hands the blocks over, and no draws are kept."""
    sampler = DecompositionSampler(cfg.params, seed=cfg.seed)
    size = cfg.verify_n_states + 1
    laws = {"r0": ("R0",), "r1": ("R11", "R12"), "r2": ("R21", "R22")}
    pmfs = {}
    for target, tags in laws.items():
        counts = np.zeros((len(tags), size), dtype=np.int64)

        def add(columns):
            for row, d in zip(counts, columns):
                row += np.bincount(d[d < size], minlength=size)  # a huge draw allocates nothing

        sampler.sample_into(target, cfg.verify_samples, add)
        pmfs.update(zip(tags, counts / cfg.verify_samples))
    return pmfs


def _other_pillars(cfg: RunConfig):
    """What `verify` computes beside the simulator: the inversion pmfs, the
    lemma checks and the sampler pmfs.  The inversion runs on verify's own
    contour, sized from the verify block alone: n, a third more coefficients
    than the top of the tail window, at the radius r with r^(4 n) the
    aliasing tolerance of `conditional_pmfs`.  Its contour is then about 4 n
    points, and the round-off of p_n grows by r^-n, 1e3, at every depth."""
    n_tail = max(cfg.verify_n_states, 4 * cfg.verify_window[1] // 3)
    radius = transforms._ALIAS_TOL ** (1.0 / (4 * n_tail))
    pmfs = transforms.conditional_pmfs(cfg.params, n_tail, radius=radius)
    return pmfs, verify.check_appendix_lemmas(), _sampler_pmfs(cfg)


def cmd_verify(cfg: RunConfig) -> list:
    params = cfg.params
    # first, so a model outside the catalog's assumptions fails before any
    # work; a type-1 law that is not a power law is outside them too
    try:
        catalog = asymptotics.tail_catalog(params)
    except NotApplicable as exc:
        raise BadParam(str(exc)) from None
    # the simulator in one forked child, run as `rtq simulate` runs it (its
    # replicas in-process there), beside the other pillars here; the
    # sampler's threads start only once the child is forked
    (pmfs, lemmas, sampler_pmfs), sim_res = parallel.fork_run(
        lambda: _other_pillars(cfg), lambda: simulate(params, cfg.sim))
    frac = sim_res.state_fractions()
    err = sim_res.state_fraction_stderr()  # below 2 cycles, exit 4 before writing anything
    targets = {
        t: _verify_target(cfg, t, pmfs, sim_res, sampler_pmfs, catalog)
        for t in TARGET_STATES
    }

    expected = np.array([1 - params.rho, params.rho1, params.rho2])
    occupancy = {
        "cycles": len(sim_res.cycles),
        "observed": frac.tolist(),
        "stderr": err.tolist(),
        "expected": expected.tolist(),
        "within_ci": bool(np.all(np.abs(frac - expected) <= 1.96 * err + 1e-12)),
    }
    body = {
        "occupancy": occupancy,
        "targets": targets,
        "lemmas": lemmas,
        "tolerances": {"kappa": _KAPPA_TOL, "c": _C_TOL,
                       "note": "windowed trend checks, not limits"},
    }
    path = os.path.join(cfg.out, "verify_report.json")
    _atomic_write(path, _json_text(body))
    return [path]


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rtq",
        description="stationary analysis of a two-class priority retrial queue",
    )
    parser.add_argument("command", choices=("analyze", "simulate", "sample", "verify"))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument(
        "--target",
        default=None,
        help=f"sampling target: one of {', '.join(SCALAR_TARGETS + PAIR_TARGETS)}",
    )
    parser.add_argument("-n", "--count", type=int, default=100_000,
                        help="number of draws for the sample command")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        if args.command == "analyze":
            artifacts = cmd_analyze(cfg)
        elif args.command == "simulate":
            artifacts = cmd_simulate(cfg)
        elif args.command == "sample":
            if not args.target:
                raise BadParam("sample requires --target")
            if args.count < 1:
                raise BadParam("sample requires a positive --count")
            artifacts = cmd_sample(cfg, args.target, args.count)
        else:
            artifacts = cmd_verify(cfg)
    except _CONFIG_ERRORS as exc:
        print(f"rtq: config error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"rtq: data error: {exc}", file=sys.stderr)
        return 4
    except RtqError as exc:
        print(f"rtq: numeric error: {exc}", file=sys.stderr)
        return 3
    _record_run(cfg, args.command, artifacts)
    for path in artifacts:
        print(path)
    return 0


def entry():
    """The console script, also run by `python -m rtq.cli`.  The objects of
    the imports so far are frozen out of the garbage collector first, so
    that the collections at interpreter exit skip them."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
