"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(bypassing capture) so the gate reads as a checklist in any pytest run.
"""

import filecmp
import math
import json
import os

import numpy as np
import pytest

from paper_forms import eval_R1_raw, eval_R2_raw
from rtq import cli
from rtq import transforms as T
from rtq import verify
from rtq.decomposition import DecompositionSampler
from rtq.model import ModelParams, ParetoShifted, Exponential
from rtq.simulator import TARGET_STATES


def _report(capfd, num: int, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_server_state_occupancies(capfd, ref_params, big_sim):
    target = np.array([1.0 - ref_params.rho, ref_params.rho1, ref_params.rho2])
    frac = big_sim.state_fractions()
    half_width = 1.96 * big_sim.state_fraction_stderr()
    ok = bool(np.all(np.abs(frac - target) <= half_width))
    _report(
        capfd, 1, ok,
        f"occupancies {np.round(frac, 5)} vs {target} "
        f"within 95% CI half-widths {np.round(half_width, 5)} "
        f"({big_sim.events} events, {len(big_sim.cycles)} regeneration cycles)",
    )


def test_criterion_02_transform_identities(capfd, ref_params):
    p = ref_params
    z = np.linspace(0.0, 1.0, 11)
    h = T.solve_h(p, z + 0j)
    alpha = T.solve_alpha(p, p.lambda2 - p.lambda2 * z + 0j)
    err_h = float(np.max(np.abs(h - alpha)))

    grid = np.linspace(0.1, 0.9, 5)
    err_raw = 0.0
    for z1 in grid:
        for z2 in grid:
            err_raw = max(
                err_raw,
                abs(T.eval_R1(p, z1 + 0j, z2 + 0j) - eval_R1_raw(p, z1 + 0j, z2 + 0j)),
                abs(T.eval_R2(p, z1 + 0j, z2 + 0j) - eval_R2_raw(p, z1 + 0j, z2 + 0j)),
            )

    err_fact = 0.0
    for u in np.linspace(0.05, 0.95, 11):
        h_u = T.solve_h(p, u + 0j)
        g = T.eval_g(p, u + 0j, h_u)
        kf = T.factor_K(p, u + 0j, h_u)
        s = p.lam - p.lam * g
        lhs = (1 - p.mixed_service.lst(s)) / (p.dist2.lst(s) - u)
        rhs = p.rho * p.p / (1 - p.rho) * kf.ka * kf.kb * kf.kc
        err_fact = max(err_fact, abs(lhs - rhs))

    ok = err_h <= 1e-10 and err_raw <= 1e-8 and err_fact <= 1e-9
    _report(
        capfd, 2, ok,
        f"busy-root identity {err_h:.2e} (tol 1e-10), raw-vs-factored "
        f"{err_raw:.2e} (tol 1e-8), idle-factorization {err_fact:.2e} (tol 1e-9)",
    )


def test_criterion_03_three_way_bulk_agreement(capfd, bulk_pmfs, million_draws, big_sim):
    worst, lines = 0.0, []
    for name in TARGET_STATES:
        sources = {
            "inversion": bulk_pmfs[name],
            "sampler": verify.empirical_pmf(million_draws[name], 50),
            "simulator": big_sim.conditional_pmf(name),
        }
        keys = sorted(sources)
        tvs = [
            verify.tv_distance(sources[a], sources[b], 50)
            for i, a in enumerate(keys) for b in keys[i + 1:]
        ]
        worst = max(worst, max(tvs))
        lines.append(f"{name} {max(tvs):.4f}")
    ok = worst <= 0.02
    _report(capfd, 3, ok, f"max pairwise TV over first 50 states: {', '.join(lines)} (tol 0.02)")


def test_criterion_04_orbit_idle_tail(capfd, ref_params, tail_pmfs, ref_catalog):
    cat = ref_catalog["r0"]
    fit = verify.fit_tail(tail_pmfs["R0"], (50, 1000))
    kappa_err = abs(fit.kappa - cat.kappa) / cat.kappa
    pinned = verify.fit_tail(tail_pmfs["R0"], (50, 1000), known_kappa=cat.kappa, L0=cat.L0)
    c_err = abs(pinned.c - cat.c) / cat.c
    ok = kappa_err <= 0.15 and c_err <= 0.25
    _report(
        capfd, 4, ok,
        f"orbit|idle tail: fitted exponent {fit.kappa:.3f} vs {cat.kappa} "
        f"({kappa_err:.1%}, tol 15%), pinned constant {pinned.c:.4f} vs "
        f"{cat.c:.4f} ({c_err:.1%}, tol 25%)",
    )


def test_criterion_05_conditional_tail_structure(capfd, tail_pmfs, alt_tail_pmfs, alt_catalog):
    lines, ok = [], True
    for name in ("R11", "R12", "R22"):
        fit = verify.fit_tail(tail_pmfs[name], (50, 1000))
        err = abs(fit.kappa - 1.5) / 1.5
        ok = ok and err <= 0.15
        lines.append(f"{name} {fit.kappa:.3f} ({err:.1%})")
    expect = alt_catalog["r21"].kappa
    fit21 = verify.fit_tail(alt_tail_pmfs["R21"], (50, 800))
    err21 = abs(fit21.kappa - expect) / expect
    ok = ok and abs(expect - 3.0) < 1e-12 and err21 <= 0.15
    lines.append(f"heavy-type-2 R21 {fit21.kappa:.3f} vs 3.0 ({err21:.1%})")
    _report(capfd, 5, ok, f"tail exponents: {', '.join(lines)} (tol 15%)")


def test_criterion_06_light_tail_geometric_ratio(capfd, ref_params, ref_catalog):
    cat = ref_catalog["r21"]
    pmf = verify.light_queue_pmf(ref_params, 120)
    ratio = verify.fit_geom_ratio(pmf, (30, 100))
    err = abs(ratio - cat.geom) / cat.geom
    ok = cat.geom < 1.0 and err <= 0.10
    _report(
        capfd, 6, ok,
        f"queue|type-2 decay ratio {ratio:.6f} vs {cat.geom:.6f} ({err:.2%}, tol 10%)",
    )


def test_criterion_07_busy_period_tail(capfd, ref_params):
    a = ref_params.dist1.tail.a
    L0 = ref_params.dist1.tail.L0
    predicted = (1.0 - ref_params.rho1) ** (-(a + 1.0))
    ds = DecompositionSampler(ref_params, seed=0)
    durations = ds.busy_durations(10_000_000)
    t_grid = np.array([60.0, 100.0, 160.0])
    surv = np.array([(durations > t).mean() for t in t_grid])
    ratio = float(np.mean(surv * t_grid**a / L0)) / predicted
    ok = abs(ratio - 1.0) <= 0.25
    _report(
        capfd, 7, ok,
        f"busy-period tail ratio {ratio:.3f} of predicted {predicted:.3f} "
        f"on t in {t_grid.tolist()} (1e7 draws, tol 25%)",
    )


def test_criterion_08_orbit_increment_sandwich(capfd, ref_params, ref_catalog):
    cat = ref_catalog["h12"]
    lo, hi = ref_catalog["h12_lower"].c, ref_catalog["h12_upper"].c

    def pgf(z):
        z = np.asarray(z, dtype=complex)
        return T.eval_H_beta1(ref_params, np.ones_like(z), z)

    pmf = T.extract_pmf(pgf, 2000, radius=0.995, label="orbit increment")
    fit = verify.fit_tail(pmf, (50, 1000), known_kappa=cat.kappa, L0=cat.L0)
    err = abs(fit.c - cat.c) / cat.c
    ok = lo < fit.c < hi and err <= 0.20
    _report(
        capfd, 8, ok,
        f"fitted constant {fit.c:.4f} strictly inside ({lo:.4f}, {hi:.4f}) "
        f"and {err:.2%} from exact {cat.c:.4f} (tol 20%)",
    )


def test_criterion_09_structural_lemmas(capfd):
    checks = verify.check_appendix_lemmas()
    bad = [c for c in checks if not c["ok"]]
    ok = len(checks) == 4 and not bad
    detail = ", ".join(
        f"{c['name']} {c['statistic']:.3f}/{c['predicted']:.3f} (tol {c['tolerance']})"
        for c in checks
    )
    _report(capfd, 9, ok, f"lemma ratio checks: {detail}")


def test_criterion_10_determinism(capfd, tmp_path):
    config = {
        "model": {
            "lam": 1.0, "q": 0.5, "mu": 1.0,
            "dist1": {"kind": "pareto", "index": 2.5, "mean": 0.6},
            "dist2": {"kind": "exponential", "mean": 0.3},
        },
        "sim": {"max_events": 50_000},
        "inversion": {"n": 60, "radius": 0.8},
        "verify": {},
        "seed": 7,
        "out": "unused",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        for command in ("analyze", "simulate"):
            rc = cli.main([command, "--config", str(cfg_path), "--out", str(out_dir)])
            assert rc == 0
        outs.append(out_dir)
    names = sorted(
        f for f in os.listdir(outs[0]) if f != "runs.jsonl"
    )
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
    ok = len(names) > 0 and not mismatch and not errors
    _report(
        capfd, 10, ok,
        f"{len(match)} artifacts byte-identical across repeated runs "
        f"(mismatched: {mismatch or 'none'})",
    )


# One-argument PGF of each catalog entry whose tail is c j^-kappa L0 with a
# non-integer kappa on both models: the queue part of a two-argument factor
# is its value at (z, 1), the orbit part its value at (1, z).
def _one(z):
    return np.ones_like(z)


_CATALOG_PGFS = {
    "ka": lambda p, z: T.factor_K(p, z).ka,
    "kb": lambda p, z: T.factor_K(p, z).kb,
    "kc": lambda p, z: T.factor_K(p, z).kc,
    "ka_plus_kc": lambda p, z: T.factor_K(p, z).ka * T.factor_K(p, z).kc,
    "k": lambda p, z: T.factor_K(p, z).k,
    "s11": lambda p, z: T.eval_S_beta(p, 1, z, _one(z)),
    "s12": lambda p, z: T.eval_S_beta(p, 1, _one(z), z),
    "h11": lambda p, z: T.eval_H_beta1(p, z, _one(z)),
    "h12": lambda p, z: T.eval_H_beta1(p, _one(z), z),
    "m11": lambda p, z: T.eval_M1(p, z, _one(z)),
    "m12": lambda p, z: T.eval_M1(p, _one(z), z),
    "m22": lambda p, z: T.eval_M2(p, _one(z), z),
    "r11": lambda p, z: T.eval_R1(p, z, _one(z)),
    "r12": lambda p, z: T.eval_R1(p, _one(z), z),
    "r22": lambda p, z: T.eval_R2(p, _one(z), z),
}


def _constant_at_one(pgf, kappa):
    """C of P{X > j} ~ C j^-kappa, read off the PGF at z -> 1.

    The tail generating function T(z) = (1 - P(z)) / (1 - z) then has
    T(1 - eps) = T(1) + C Gamma(1 - kappa) eps^(kappa - 1) + O(eps) for a
    non-integer kappa in (1, 2) (Flajolet & Odlyzko, "Singularity analysis of
    generating functions", SIAM J. Discrete Math. 3, 1990).  Six eps,
    log-spaced in [1e-5, 1e-2], fix the basis eps^0, eps^(kappa - 1), eps,
    eps^kappa, eps^2, eps^(kappa + 1), and C is the second coefficient over
    Gamma(1 - kappa)."""
    eps = np.logspace(-5, -2, 6)
    tail = ((1.0 - pgf(1.0 - eps + 0j)) / eps).real
    powers = np.array([0.0, kappa - 1, 1.0, kappa, 2.0, kappa + 1])
    coef = np.linalg.solve(eps[:, None] ** powers, tail)
    return coef[1] / math.gamma(1.0 - kappa)


def test_criterion_11_catalog_constants_at_z_to_1(capfd, ref_params, alt_params,
                                                   ref_catalog, alt_catalog):
    worst, where = 0.0, ""
    for model, p, cat in (("ref", ref_params, ref_catalog), ("alt", alt_params, alt_catalog)):
        for name, pgf in _CATALOG_PGFS.items():
            entry = cat[name]
            assert entry.geom == 1.0 and 1.0 < entry.kappa < 2.0, (model, name)
            got = _constant_at_one(lambda z: pgf(p, z), entry.kappa)
            err = abs(got / (entry.c * entry.L0) - 1.0)
            if not err <= worst:
                worst, where = err, f"{model} {name}"
    ok = worst <= 1e-5
    _report(
        capfd, 11, ok,
        f"worst |C/catalog - 1| {worst:.2e} ({where}) over {len(_CATALOG_PGFS)} "
        f"power entries on ref and alt, read off T(1 - eps) (tol 1e-5)",
    )
