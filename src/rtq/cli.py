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
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, asymptotics, transforms, verify
from .decomposition import PAIR_TARGETS, SCALAR_TARGETS, DecompositionSampler
from .errors import (
    AssumptionViolation,
    BadParam,
    InsufficientData,
    NotApplicable,
    RtqError,
    Unstable,
    WindowTooNoisy,
)
from .model import Erlang, Exponential, ModelParams, ParetoShifted, validate
from .simulator import TARGET_STATES, SimConfig, simulate

__all__ = ["RunConfig", "load_config", "entry", "main"]

_CONFIG_ERRORS = (BadParam, Unstable, AssumptionViolation)
_DATA_ERRORS = (InsufficientData, WindowTooNoisy)
# tail-fit tolerances echoed into verify_report.json next to the fits
_KAPPA_TOL, _C_TOL = 0.15, 0.25


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
    unknown = set(block) - allowed
    if unknown:
        raise BadParam(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_dist(block: dict, where: str):
    if not isinstance(block, dict) or "kind" not in block:
        raise BadParam(f"{where} must be an object with a 'kind'")
    kind = block["kind"]
    if kind == "exponential":
        _require_keys(block, {"kind", "rate", "mean"}, where)
        if ("rate" in block) == ("mean" in block):
            raise BadParam(f"{where}: give exactly one of rate/mean")
        rate = block.get("rate", None)
        return Exponential(rate if rate is not None else 1.0 / block["mean"])
    if kind == "erlang":
        _require_keys(block, {"kind", "shape", "rate"}, where)
        return Erlang(block["shape"], block["rate"])
    if kind == "pareto":
        _require_keys(block, {"kind", "index", "scale", "mean"}, where)
        if ("scale" in block) == ("mean" in block):
            raise BadParam(f"{where}: give exactly one of scale/mean")
        if "mean" in block:
            return ParetoShifted.from_mean(block["index"], block["mean"])
        return ParetoShifted(block["index"], block["scale"])
    raise BadParam(f"{where}: unknown distribution kind {kind!r}")


def load_config(path: str, seed_override=None, out_override=None) -> RunConfig:
    """Parse, validate and freeze a run configuration."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadParam(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise BadParam("config root must be a JSON object")
    _require_keys(raw, {"model", "sim", "inversion", "verify", "out", "seed"}, "config")

    model = raw.get("model")
    if not isinstance(model, dict):
        raise BadParam("config needs a 'model' block")
    _require_keys(model, {"lam", "q", "mu", "dist1", "dist2"}, "model")
    for key in ("lam", "q", "mu", "dist1", "dist2"):
        if key not in model:
            raise BadParam(f"model block is missing {key!r}")
    params = validate(
        ModelParams(
            lam=float(model["lam"]),
            q=float(model["q"]),
            mu=float(model["mu"]),
            dist1=_parse_dist(model["dist1"], "model.dist1"),
            dist2=_parse_dist(model["dist2"], "model.dist2"),
        )
    )

    seed = int(raw.get("seed", 0)) if seed_override is None else int(seed_override)
    sim_block = raw.get("sim", {})
    _require_keys(sim_block, {"max_events", "queue_cap"}, "sim")
    sim = SimConfig(seed=seed, **{key: int(v) for key, v in sim_block.items()})

    inv = raw.get("inversion", {})
    _require_keys(inv, {"n", "radius"}, "inversion")
    ver = raw.get("verify", {})
    _require_keys(ver, {"window", "light_window", "n_states", "samples"}, "verify")

    return RunConfig(
        params=params,
        sim=sim,
        inversion_n=int(inv.get("n", 150)),
        inversion_radius=float(inv.get("radius", 0.9)),
        verify_window=tuple(ver.get("window", (50, 1000))),
        verify_light_window=tuple(ver.get("light_window", (30, 100))),
        verify_n_states=int(ver.get("n_states", 50)),
        verify_samples=int(ver.get("samples", 1_000_000)),
        out=str(raw.get("out", "out")) if out_override is None else str(out_override),
        seed=seed,
        raw=raw,
    )


# ---------------------------------------------------------------------------
# persistence helpers


def _atomic_write(path: str, data: str):
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, *columns) -> str:
    """CSV text of a header and equal-length columns.

    Every cell is an int, a formatted float or a bare word, so no field needs
    quoting and joined strings are the bytes csv.writer would write.
    """
    row = ",".join(["{}"] * len(header))
    return "\n".join([",".join(header), *map(row.format, *columns)]) + "\n"


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
    pmfs = transforms.conditional_pmfs(
        cfg.params, cfg.inversion_n, radius=cfg.inversion_radius
    )
    paths = []
    for name, pmf in sorted(pmfs.items()):
        j = [*range(len(pmf)), "deficit"]
        p = [f"{v:.17g}" for v in (*pmf.probs, pmf.deficit)]
        path = os.path.join(cfg.out, f"pmf_{name}.csv")
        _atomic_write(path, _csv_text(("j", "probability"), j, p))
        paths.append(path)

    u = np.linspace(0.0, 0.99, 100)
    kf = transforms.factor_K(cfg.params, u)
    factors = [[f"{v.real:.17g}" for v in col] for col in (kf.ka, kf.kb, kf.kc, kf.k)]
    path = os.path.join(cfg.out, "factors.csv")
    _atomic_write(path, _csv_text(("u", "ka", "kb", "kc", "k"),
                                  [f"{v:.4f}" for v in u], *factors))
    paths.append(path)

    try:
        catalog = asymptotics.tail_catalog(cfg.params)
    except NotApplicable:
        # no power-law type-1 service: there is no tail catalog to write
        catalog = None
    if catalog is not None:
        path = os.path.join(cfg.out, "catalog.json")
        _atomic_write(path, asymptotics.catalog_to_json(catalog) + "\n")
        paths.append(path)
    return paths


def cmd_simulate(cfg: RunConfig) -> list:
    res = simulate(cfg.params, cfg.sim)
    stats = {
        "events": res.events,
        "collected_time": res.collected_time,
        "state_fractions": res.state_fractions().tolist(),
        "state_fraction_stderr": res.state_fraction_stderr().tolist(),
        "pasta_fractions": res.pasta_fractions().tolist(),
        "expected_fractions": [1 - cfg.params.rho, cfg.params.rho1, cfg.params.rho2],
    }
    paths = [os.path.join(cfg.out, "sim_stats.json")]
    _atomic_write(paths[0], _json_text(stats))
    for tag, (state, coord) in TARGET_STATES.items():
        pmf = res.conditional_pmf(state, coord)
        path = os.path.join(cfg.out, f"hist_{tag}.csv")
        _atomic_write(path, _csv_text(("j", "fraction"), range(pmf.size),
                                      [f"{v:.17g}" for v in pmf]))
        paths.append(path)
    return paths


def cmd_sample(cfg: RunConfig, target: str, n: int) -> list:
    sampler = DecompositionSampler(cfg.params, seed=cfg.seed)
    drawn = sampler.sample(target, n)
    path = os.path.join(cfg.out, f"samples_{target.lower()}.csv")
    if isinstance(drawn, tuple):
        text = _csv_text(("queue", "orbit"), drawn[0].tolist(), drawn[1].tolist())
    else:
        text = _csv_text(("value",), drawn.tolist())
    _atomic_write(path, text)
    return [path]


def _verify_target(cfg, target, pmfs, sim_res, sampler_pmfs, catalog):
    sources = {"inversion": pmfs[target]}
    if target in sampler_pmfs:
        sources["sampler"] = sampler_pmfs[target]
    state, coord = TARGET_STATES[target]
    try:
        sources["simulator"] = sim_res.conditional_pmf(state, coord)
    except InsufficientData:
        pass
    entry = catalog[target.lower()]
    window = cfg.verify_window
    if entry.geom < 1.0:
        window = cfg.verify_light_window
        sources["inversion"] = verify.light_queue_pmf(
            cfg.params, max(window[1] + 2, 120)
        )
    j_hi = min(window[1], len(pmfs[target]) - 2)
    return verify.compare(
        cfg.params, target, sources, n_states=cfg.verify_n_states,
        window=(window[0], j_hi), catalog=catalog,
    )


def cmd_verify(cfg: RunConfig) -> list:
    params = cfg.params
    n_tail = max(cfg.inversion_n, 4 * cfg.verify_window[1] // 3)
    pmfs = transforms.conditional_pmfs(params, n_tail, radius=0.995)
    sim_res = simulate(params, cfg.sim)
    sampler = DecompositionSampler(params, seed=cfg.seed)
    nd = cfg.verify_samples
    # drawn in TARGET_STATES order: R0, then the (R11, R12) and (R21, R22) pairs
    draws = (sampler.sample_r0(nd), *sampler.sample_r1_pair(nd),
             *sampler.sample_r2_pair(nd))
    sampler_pmfs = {
        target: verify.empirical_pmf(d, cfg.verify_n_states)
        for target, d in zip(TARGET_STATES, draws)
    }
    catalog = asymptotics.tail_catalog(params)
    reports = [
        _verify_target(cfg, t, pmfs, sim_res, sampler_pmfs, catalog)
        for t in TARGET_STATES
    ]

    frac = sim_res.state_fractions()
    err = sim_res.state_fraction_stderr()
    expected = np.array([1 - params.rho, params.rho1, params.rho2])
    occupancy = {
        "observed": frac.tolist(),
        "stderr": err.tolist(),
        "expected": expected.tolist(),
        "within_ci": bool(np.all(np.abs(frac - expected) <= 1.96 * err + 1e-12)),
    }
    body = {
        "occupancy": occupancy,
        "targets": {r.target: r.to_dict() for r in reports},
        "lemmas": verify.check_appendix_lemmas(),
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
    except ValueError as exc:
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
