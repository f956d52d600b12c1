"""Output checks for the `rtq` benchmark, computed apart from `rtq`.

Every expected value comes from the config's numbers alone -- rates, loads,
psi, the tail indices and the moments of the service laws -- and every
check is plain numpy on the artifacts.  Nothing here imports `rtq`.  Each
check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np


def _moments(dist: dict):
    """(mean, second moment, power-tail index or None) of a config service
    law given by its mean: exponential, or Pareto with an index."""
    m = dist["mean"]
    if dist["kind"] == "exponential":
        return m, 2.0 * m * m, None
    if dist["kind"] == "pareto":
        a = float(dist["index"])
        s = m * (a - 1.0)  # scale
        return m, (2.0 * s * s / ((a - 1.0) * (a - 2.0)) if a > 2 else math.inf), a
    raise ValueError(f"unknown service kind {dist['kind']!r}")


def model_numbers(model: dict) -> dict:
    """Loads, psi, tail indices and R21's mean from a config's model block."""
    lam, q, mu = model["lam"], model["q"], model["mu"]
    lam1, lam2 = lam * q, lam * (1.0 - q)
    m1, _, a1 = _moments(model["dist1"])
    m2, m2sq, a2 = _moments(model["dist2"])
    rho1, rho2 = lam1 * m1, lam2 * m2
    rho = rho1 + rho2
    return {
        "lam1": lam1, "lam2": lam2, "rho1": rho1, "rho2": rho2, "rho": rho,
        "psi": rho * lam2 / (mu * (1.0 - rho)),
        "a1": a1, "a2": a2,
        # queue given a type-2 service: type-1 arrivals over its elapsed part
        "r21_mean": lam1 * m2sq / (2.0 * m2),
        "occupancy": [1.0 - rho, rho1, rho2],
    }


# ---------------------------------------------------------------------------
# artifact readers


def _rows(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_pmf(path):
    """(probabilities, deficit) from a pmf_*.csv."""
    _, rows = _rows(path)
    if rows[-1][0] != "deficit":
        raise ValueError(f"{path}: last row is not the deficit")
    return np.array([float(r[1]) for r in rows[:-1]]), float(rows[-1][1])


def read_columns(path) -> dict:
    header, rows = _rows(path)
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def read_samples(path) -> np.ndarray:
    """Integer draws: shape (n,) for one column, (n, 2) for queue/orbit."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    return data[:, 0] if len(header) == 1 else data


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inversion-deep


def check_pmf(probs, deficit, label) -> list:
    errs = []
    if np.any(probs < 0) or deficit < 0:
        errs.append(f"{label}: negative probability or deficit")
    total = float(probs.sum()) + deficit
    if abs(total - 1.0) > 1e-7:
        errs.append(f"{label}: probabilities plus deficit sum to {total:.10f}")
    return errs


def check_mean(probs, deficit, expected, kappa, label, rel_tol=1e-3) -> list:
    """Mean of a pmf truncated at n against its exact value.

    The mass beyond n is the deficit S(n).  For a survival S(j) ~ S(n)
    (j/n)^-kappa it carries n S(n) kappa / (kappa - 1) of the mean; for a
    light tail (kappa None) about n S(n).
    """
    n = probs.size - 1
    mean = float(np.arange(n + 1) @ probs)
    tail = n * deficit * (kappa / (kappa - 1.0) if kappa else 1.0)
    if abs(mean + tail - expected) > rel_tol * expected:
        return [f"{label}: mean {mean:.6g} (+{tail:.2g} beyond n) vs {expected:.6g}"]
    return []


def tail_exponent(probs, deficit, window) -> float:
    """Least-squares slope of log P{X > j} against log j over the window."""
    surv = deficit + np.cumsum(probs[::-1])[::-1] - probs  # P{X > j}
    j = np.arange(window[0], window[1] + 1)
    s = surv[j]
    if np.any(s <= 0):
        return math.nan
    slope, _ = np.polyfit(np.log(j), np.log(s), 1)
    return -float(slope)


def check_tail(probs, deficit, window, kappa, label, rel_tol=0.15) -> list:
    fitted = tail_exponent(probs, deficit, window)
    if not abs(fitted - kappa) <= rel_tol * kappa:
        return [f"{label}: tail exponent {fitted:.4g} on {list(window)} vs {kappa:.4g}"]
    return []


def check_factors(cols: dict) -> list:
    errs = []
    for name in ("ka", "kb", "kc", "k"):
        v = cols[name]
        if np.any(v <= 0) or np.any(v > 1.0 + 1e-12):
            errs.append(f"factors: {name} leaves (0, 1]")
        if np.any(np.diff(v) < -1e-12):
            errs.append(f"factors: {name} decreases in u")
    if np.any(np.diff(cols["u"]) <= 0):
        errs.append("factors: u is not increasing")
    prod = cols["ka"] * cols["kb"] * cols["kc"]
    if np.max(np.abs(prod - cols["k"])) > 1e-12:
        errs.append("factors: k differs from ka*kb*kc")
    return errs


def check_analyze(out_dir, nums) -> list:
    """All checks on one `rtq analyze` output directory."""
    errs = []
    pmfs = {}
    for name in ("R0", "R11", "R12", "R21", "R22"):
        probs, deficit = pmfs[name] = read_pmf(f"{out_dir}/pmf_{name}.csv")
        errs += check_pmf(probs, deficit, name)
    a1, a2 = nums["a1"], nums["a2"]
    errs += check_mean(*pmfs["R0"], nums["psi"], a1, "R0")
    errs += check_mean(*pmfs["R21"], nums["r21_mean"], a2 - 1.0 if a2 else None, "R21")
    errs += check_tail(*pmfs["R0"], (50, 1000), a1, "R0")
    for name in ("R11", "R12", "R22"):
        errs += check_tail(*pmfs[name], (50, 1000), a1 - 1.0, name)
    if a2 is not None:
        errs += check_tail(*pmfs["R21"], (50, 800), a2 - 1.0, "R21")
    errs += check_factors(read_columns(f"{out_dir}/factors.csv"))
    return errs


# ---------------------------------------------------------------------------
# monte-carlo

# a sample mean or occupancy may stray this many standard errors.  Heavy
# tails skew the law of a sample mean and batch means give only 19 degrees
# of freedom, so the limit is wide; a shift by one state or a swap of two
# occupancies still lands hundreds of standard errors away.
SE_LIMIT = 8.0


def check_sim_stats(stats: dict, events: int, nums) -> list:
    errs = []
    if stats["events"] != events:
        errs.append(f"simulate: {stats['events']} events, configured {events}")
    frac = np.array(stats["state_fractions"])
    se = np.array(stats["state_fraction_stderr"])
    z = np.abs(frac - nums["occupancy"]) / se
    if not np.all(z <= SE_LIMIT):
        errs.append(f"simulate: occupancies {frac.round(4).tolist()} are "
                    f"{z.round(1).tolist()} standard errors from {nums['occupancy']}")
    return errs


def check_sample_mean(values, expected, label) -> list:
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size)
    if not abs(values.mean() - expected) <= SE_LIMIT * se:
        return [f"{label}: sample mean {values.mean():.5g} vs {expected:.5g} "
                f"(standard error {se:.2g})"]
    return []


def tv_to_hist(values, hist) -> float:
    """Total variation between the law of integer draws and a histogram."""
    emp = np.bincount(np.asarray(values, dtype=np.int64)) / np.size(values)
    size = max(emp.size, hist.size)
    return 0.5 * float(np.abs(np.pad(emp, (0, size - emp.size))
                              - np.pad(hist, (0, size - hist.size))).sum())


def check_tv(values, hist, label, tol=0.05) -> list:
    tv = tv_to_hist(values, hist)
    if not tv < tol:
        return [f"{label}: TV {tv:.4f} to the simulator histogram (limit {tol})"]
    return []


def read_hist(out_dir, tag) -> np.ndarray:
    return read_columns(f"{out_dir}/hist_{tag}.csv")["fraction"]


def check_simulate(out_dir, nums, events) -> list:
    return check_sim_stats(read_json(f"{out_dir}/sim_stats.json"), events, nums)


def check_sample(out_dir, target, nums) -> list:
    """Checks on samples_<target>.csv; needs the round's simulator histograms."""
    drawn = read_samples(f"{out_dir}/samples_{target}.csv")
    if target == "r0":
        return (check_sample_mean(drawn, nums["psi"], "r0")
                + check_tv(drawn, read_hist(out_dir, "R0"), "r0"))
    tags = {"r1": ("R11", "R12"), "r2": ("R21", "R22")}[target]
    errs = []
    for col, tag in zip(drawn.T, tags):
        errs += check_tv(col, read_hist(out_dir, tag), f"{target} {tag}")
    if target == "r2":
        errs += check_sample_mean(drawn[:, 0], nums["r21_mean"], "r2 queue")
    return errs


# ---------------------------------------------------------------------------
# verify-small

TARGETS = ["R0", "R11", "R12", "R21", "R22"]
# The compound-geometric lemma's statistic spreads about 0.05 around 1.05
# across seeds against a tolerance of 0.15, so its verdict flips on a few
# percent of seeds; only its presence is checked.
SEED_DEPENDENT_LEMMAS = {"compound-geometric tail"}


def check_report(report: dict, nums) -> list:
    errs = []
    targets = report.get("targets", {})
    if sorted(targets) != TARGETS:
        errs.append(f"verify: targets {sorted(targets)}")
    for name, body in targets.items():
        tvs = body.get("tv", {})
        if not tvs:
            errs.append(f"verify: {name} has no TV distances")
        for pair, tv in tvs.items():
            if not tv < 0.05:
                errs.append(f"verify: {name} {pair} TV {tv:.4f} (limit 0.05)")
    expected = report.get("occupancy", {}).get("expected")
    if expected is None or not np.allclose(expected, nums["occupancy"], rtol=0, atol=1e-12):
        errs.append(f"verify: expected occupancy {expected} vs {nums['occupancy']}")
    lemmas = report.get("lemmas", [])
    if len(lemmas) != 4:
        errs.append(f"verify: {len(lemmas)} lemmas reported")
    for lem in lemmas:
        if lem.get("name") in SEED_DEPENDENT_LEMMAS:
            if not math.isfinite(lem.get("statistic", math.nan)):
                errs.append(f"verify: lemma {lem.get('name')!r} has no statistic")
        elif lem.get("ok") is not True:
            errs.append(f"verify: lemma {lem.get('name')!r} not ok")
    return errs


def check_verify(out_dir, nums) -> list:
    return check_report(read_json(f"{out_dir}/verify_report.json"), nums)
