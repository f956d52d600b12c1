"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one round of the `inversion-deep` and `monte-carlo` workloads, then
feeds every check in `checks.py` its real artifacts, which must pass, and
deliberately wrong copies of them (a pmf shifted by one state, a steeper
tail, swapped occupancies, draws moved by one, ...), each of which must be
rejected.  The verify-report check gets a well-formed report built here and
broken copies of it.  Exits 1 if a good input fails or a wrong one passes.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import checks
from run import MC_EVENTS, WORKLOADS, Runner

SEED = 0


def _shift(probs, deficit):
    """The pmf of X + 1, truncated at the same n."""
    return np.concatenate([[0.0], probs[:-1]]), deficit + probs[-1]


def _steeper(probs, deficit):
    """Reweight p_j, and the mass beyond n, by (j+1)^-0.5: the tail
    exponent grows by 0.5."""
    w = probs * (np.arange(probs.size) + 1.0) ** -0.5
    d = deficit * (probs.size + 1.0) ** -0.5
    return w / (w.sum() + d), d / (w.sum() + d)


def _cases(inv_dir, mc_dir, nums_ref, nums_alt):
    pmf = {name: checks.read_pmf(f"{inv_dir}/ref/pmf_{name}.csv")
           for name in ("R0", "R11", "R12", "R21", "R22")}
    alt21 = checks.read_pmf(f"{inv_dir}/alt/pmf_R21.csv")
    factors = checks.read_columns(f"{inv_dir}/ref/factors.csv")
    stats = checks.read_json(f"{mc_dir}/sim_stats.json")
    r0 = checks.read_samples(f"{mc_dir}/samples_r0.csv")
    r1 = checks.read_samples(f"{mc_dir}/samples_r1.csv")
    r2 = checks.read_samples(f"{mc_dir}/samples_r2.csv")
    h_r0 = checks.read_hist(mc_dir, "R0")
    h_r12 = checks.read_hist(mc_dir, "R12")
    report = {
        "targets": {t: {"tv": {"inversion|sampler": 0.004, "inversion|simulator": 0.01}}
                    for t in checks.TARGETS},
        "occupancy": {"expected": list(nums_ref["occupancy"])},
        "lemmas": [{"name": name, "statistic": 1.0, "ok": True} for name in (
            "compound-geometric tail", "poisson count over heavy interval",
            "convolution tail closure", "random-sum tail closure")],
    }

    def factors_with(name, fn):
        out = dict(factors)
        out[name] = fn(factors[name].copy())
        return out

    def stats_with(**kw):
        return dict(copy.deepcopy(stats), **kw)

    def report_with(edit):
        r = copy.deepcopy(report)
        edit(r)
        return r

    def bump(v):
        v[50] = 1.0 + 1e-9
        return v

    occ = stats["state_fractions"]
    tail = lambda name, p, d, kappa, win=(50, 1000): checks.check_tail(p, d, win, kappa, name)
    # (check, good input, {mutation: wrong input}); inputs are argument tuples
    return [
        (lambda p, d: checks.check_pmf(p, d, "R12"), pmf["R12"], {
            "negative entry": (np.where(np.arange(pmf["R12"][0].size) == 5, -1e-3,
                                        pmf["R12"][0]), pmf["R12"][1] + 1e-3),
            "deficit off by 1e-3": (pmf["R12"][0], pmf["R12"][1] + 1e-3),
        }),
        (lambda p, d: checks.check_mean(p, d, nums_ref["psi"], nums_ref["a1"], "R0"),
         pmf["R0"], {"R0 shifted by one state": _shift(*pmf["R0"])}),
        (lambda p, d: checks.check_mean(p, d, nums_ref["r21_mean"], None, "R21"),
         pmf["R21"], {"R21 shifted by one state": _shift(*pmf["R21"])}),
        (lambda p, d: tail("R0", p, d, nums_ref["a1"]), pmf["R0"],
         {"R0 tail steeper by 0.5": _steeper(*pmf["R0"])}),
        (lambda p, d: tail("R11", p, d, nums_ref["a1"] - 1), pmf["R11"],
         {"R11 tail steeper by 0.5": _steeper(*pmf["R11"])}),
        (lambda p, d: tail("R12", p, d, nums_ref["a1"] - 1), pmf["R12"],
         {"R12 with R0's tail": pmf["R0"]}),
        (lambda p, d: tail("R22", p, d, nums_ref["a1"] - 1), pmf["R22"],
         {"R22 tail steeper by 0.5": _steeper(*pmf["R22"])}),
        (lambda p, d: tail("R21", p, d, nums_alt["a2"] - 1, (50, 800)), alt21,
         {"alt R21 with R11's tail": pmf["R11"]}),
        (checks.check_factors, (factors,), {
            "ka above 1": (factors_with("ka", bump),),
            "kb reversed in u": (factors_with("kb", lambda v: v[::-1]),),
            "k off by 1%": (factors_with("k", lambda v: v * 1.01),),
        }),
        (lambda s: checks.check_sim_stats(s, MC_EVENTS, nums_ref), (stats,), {
            "one event short": (stats_with(events=stats["events"] - 1),),
            "idle and busy1 swapped": (stats_with(
                state_fractions=[occ[1], occ[0], occ[2]]),),
            "busy1 and busy2 swapped": (stats_with(
                state_fractions=[occ[0], occ[2], occ[1]]),),
        }),
        (lambda v: checks.check_sample_mean(v, nums_ref["psi"], "r0"), (r0,),
         {"r0 draws plus one": (r0 + 1,)}),
        (lambda v: checks.check_sample_mean(v, nums_ref["r21_mean"], "r2 queue"),
         (r2[:, 0],), {"r2 queue plus one": (r2[:, 0] + 1,)}),
        (lambda v, h: checks.check_tv(v, h, "r0"), (r0, h_r0), {
            "r0 draws plus one": (r0 + 1, h_r0),
            "r0 against the R12 histogram": (r0, h_r12),
        }),
        (lambda v, h: checks.check_tv(v, h, "r1 R12"), (r1[:, 1], h_r12),
         {"r1 queue column as orbit": (r1[:, 0], h_r12)}),
        (lambda r: checks.check_report(r, nums_ref), (report,), {
            "a target missing": (report_with(lambda r: r["targets"].pop("R22")),),
            "a TV of 0.06": (report_with(
                lambda r: r["targets"]["R11"]["tv"].update({"sampler|simulator": 0.06})),),
            "expected occupancy swapped": (report_with(
                lambda r: r["occupancy"].update(expected=[occ[1], occ[0], occ[2]])),),
            "a lemma not ok": (report_with(lambda r: r["lemmas"][2].update(ok=False)),),
            "a lemma without a statistic": (report_with(
                lambda r: r["lemmas"][0].update(statistic=float("nan"))),),
            "three lemmas": (report_with(lambda r: r["lemmas"].pop()),),
        }),
    ]


def main() -> int:
    dirs = {}
    for name in ("inversion-deep", "monte-carlo"):
        runner = Runner(name, SEED)
        runner.prepare()
        for r in runner.round("untraced", traced=False):
            if r.errors:
                print(f"selftest: {r.op.name} failed: {r.errors}")
                return 1
        dirs[name] = runner.dir / "untraced"
    nums = {c: checks.model_numbers(WORKLOADS["inversion-deep"].configs[c]["model"])
            for c in ("ref", "alt")}
    bad = 0
    cases = _cases(dirs["inversion-deep"], dirs["monte-carlo"] / "mc", nums["ref"],
                   nums["alt"])
    for check, good, wrong in cases:
        errs = check(*good)
        if errs:
            bad += 1
            print(f"FAIL good input rejected: {errs}")
        for label, args in wrong.items():
            errs = check(*args)
            bad += not errs
            print(f"{'ok  ' if errs else 'FAIL'} {label}: "
                  f"{errs[0] if errs else 'not rejected'}")
    print(f"selftest: {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
