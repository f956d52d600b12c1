"""Cross-validation between the analytic, sampled and simulated pictures.

Three independent routes produce each conditional law (contour inversion of
the transforms, the factor samplers, the event-loop simulator) and a fourth
gives its tail (the asymptote catalog).  This module quantifies agreement:
`compare` builds one target's entry of verify_report.json from
total-variation distances over the bulk and windowed tail fits against its
catalog entry, and `check_appendix_lemmas` gives deterministic property
checks of the limit lemmas the tail results rest on (compound geometric
sums, Poisson counts over heavy-tailed intervals, convolution and
random-sum closure), each computed from exact laws.

Heavy-tail caveat: simulation only validates the bulk; tails come from
inversion pmfs, and all tolerances are windowed-trend judgements, not
limits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import asymptotics, transforms
from .errors import WindowTooNoisy
from .model import ModelParams, ParetoShifted
from .transforms import Pmf

__all__ = [
    "TailFit",
    "survival_of",
    "empirical_pmf",
    "tv_distance",
    "fit_tail",
    "fit_geom_ratio",
    "light_queue_pmf",
    "compare",
    "check_appendix_lemmas",
]

@dataclass
class TailFit:
    window: tuple
    kappa: float | None  # None for a ratio fit, which has no exponent
    c: float
    r2: float | None  # None unless the exponent was fitted
    method: str  # "loglog-regression" or "ratio"


def _as_pmf(source) -> Pmf:
    """A Pmf as is, or a pmf vector with its missing mass as the deficit.
    Integer draws are refused: they would be read as a vector of counts."""
    if isinstance(source, Pmf):
        return source
    arr = np.asarray(source)
    if arr.dtype.kind in "iu":
        raise TypeError("integer draws are not a pmf: count them first with "
                        "empirical_pmf(samples, n)")
    probs = arr.astype(float)
    return Pmf(probs=probs, deficit=max(0.0, 1.0 - float(probs.sum())))


def survival_of(source) -> np.ndarray:
    """P{X > j}, j = 0..N, from a Pmf or a pmf vector."""
    return _as_pmf(source).survival()


def empirical_pmf(samples: np.ndarray, n: int) -> np.ndarray:
    """Relative frequencies of 0..n (mass beyond n is excluded, and costs
    no memory however far beyond it lies)."""
    samples = np.asarray(samples, dtype=np.int64)
    return np.bincount(samples[samples <= n], minlength=n + 1) / samples.size


def tv_distance(a, b, n: int) -> float:
    """Total variation over the states 0..n-1, between Pmfs or pmf vectors."""
    pa, pb = _as_pmf(a).probs, _as_pmf(b).probs
    pa = np.pad(pa, (0, max(0, n - pa.size)))[:n]
    pb = np.pad(pb, (0, max(0, n - pb.size)))[:n]
    return 0.5 * float(np.abs(pa - pb).sum())


def fit_tail(source, window, known_kappa: float | None = None, L0: float = 1.0) -> TailFit:
    """Windowed power-law fit of a survival function.

    Without known_kappa: least squares of log P{X>j} against log j; the fit
    must explain the window (R^2 >= 0.9) or WindowTooNoisy is raised.  With
    known_kappa: only the constant, as the average of P{X>j} j^kappa / L0.
    """
    j_lo, j_hi = int(window[0]), int(window[1])
    if j_lo < 10:
        raise ValueError("tail windows start at j >= 10")
    surv = survival_of(source)
    if j_hi >= surv.size:
        raise ValueError(f"window end {j_hi} beyond available range {surv.size - 1}")
    j = np.arange(j_lo, j_hi + 1)
    s = surv[j]
    if isinstance(source, Pmf) and source.deficit > s[0] / 10.0:
        raise WindowTooNoisy(
            f"pmf deficit {source.deficit:.2e} dominates window mass {s[0]:.2e}"
        )
    if np.any(s <= 0):
        raise WindowTooNoisy("survival hits zero inside the window")
    if known_kappa is not None:
        c = float(np.mean(s * j.astype(float) ** known_kappa)) / L0
        return TailFit((j_lo, j_hi), known_kappa, c, None, "ratio")
    x, y = np.log(j.astype(float)), np.log(s)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    if r2 < 0.9:
        raise WindowTooNoisy(f"log-log fit explains only R^2={r2:.3f} on {window}")
    return TailFit((j_lo, j_hi), -float(slope), math.exp(intercept) / L0, r2,
                   "loglog-regression")


# share of the PGF's radius of analyticity beyond 1 that light_queue_pmf's
# contour reaches out to
_LIGHT_MARGIN = 0.85


def light_queue_pmf(params: ModelParams, n: int) -> Pmf:
    """Queue-given-low-priority-service pmf when the type-2 law is light.

    Its coefficients fall geometrically, far below the round-off floor of a
    contour inside the unit disk, so this inverts on a circle of radius
    1 + `_LIGHT_MARGIN` * r / lambda1 -- inside the PGF's disk of
    analyticity, which extends to 1 + r / lambda1.
    """
    t2 = params.dist2.tail
    if t2.is_power:
        raise ValueError("light-tail inversion needs a light-tailed type-2 law")
    radius = 1.0 + _LIGHT_MARGIN * t2.r / params.lambda1

    def pgf(z):
        z = np.asarray(z, dtype=complex)
        return transforms.eval_S_beta(params, 2, z, np.ones_like(z))

    pmf = transforms.extract_pmf(pgf, n, radius=radius,
                                 label="queue | serving type 2 (light)")
    return replace(pmf, deficit=0.0)


def fit_geom_ratio(source, window) -> float:
    """Average successive survival ratio; the decay rate of a light tail."""
    j_lo, j_hi = int(window[0]), int(window[1])
    surv = survival_of(source)
    s = surv[j_lo : j_hi + 2]
    if np.any(s <= 0):
        raise WindowTooNoisy("survival hits zero inside the window")
    return float(np.mean(s[1:] / s[:-1]))


def compare(target: str, sources: dict, n_states: int, window: tuple,
            entry: asymptotics.PowerTail) -> dict:
    """One target's entry of verify_report.json: the TV distances between
    `sources` (Pmfs or pmf vectors) over states 0..n_states-1, keyed "a|b",
    and the fits of sources["inversion"] over `window` against the catalog
    `entry` (a decay ratio when it is geometric)."""
    names = sorted(sources)
    tv = {f"{a}|{b}": tv_distance(sources[a], sources[b], n_states)
          for i, a in enumerate(names) for b in names[i + 1 :]}
    inversion = sources["inversion"]
    kappa_rel_err = None
    if entry.geom == 1.0:
        free = fit_tail(inversion, window, L0=entry.L0)
        pinned = fit_tail(inversion, window, known_kappa=entry.kappa, L0=entry.L0)
        fits = {"inversion": free, "inversion-pinned": pinned}
        kappa_rel_err = abs(free.kappa - entry.kappa) / entry.kappa
        c_rel_err = abs(pinned.c - entry.c) / entry.c
    else:
        ratio = fit_geom_ratio(inversion, window)
        fits = {"inversion": TailFit(tuple(window), None, ratio, None, "ratio")}
        c_rel_err = abs(ratio - entry.geom) / entry.geom
    return {
        "target": target,
        "tv": tv,
        "fits": {name: asdict(fit) for name, fit in fits.items()},
        "catalog": entry.to_dict(),
        "kappa_rel_err": kappa_rel_err,
        "c_rel_err": c_rel_err,
    }


# ---------------------------------------------------------------------------
# limit-lemma property checks on synthetic instances


# EULER inversion (Abate & Whitt 1995): discretisation error about e^-A, then
# binomial averaging of the partial sums _EULER_N .. _EULER_N + _EULER_M
_EULER_A = 18.4
_EULER_N = 38
_EULER_M = 11


def _euler_survival(lst, t):
    """P{X > t} at every t > 0 of a 1-d array, from the LST of X >= 0.

    Inverts (1 - lst(s)) / s, the Laplace transform of the survival, by the
    Abate-Whitt EULER algorithm; lst takes complex arrays with Re s > 0.
    """
    t = np.asarray(t, dtype=float)[:, None]
    k = np.arange(_EULER_N + _EULER_M + 1)
    s = (_EULER_A + 2j * np.pi * k) / (2.0 * t)
    terms = ((1.0 - np.asarray(lst(s), dtype=complex)) / s).real * (-1.0) ** k
    terms[:, 0] /= 2.0  # the trapezoidal rule's half weight at s = A / 2t
    partial = np.cumsum(terms, axis=1)[:, _EULER_N:]
    binom = np.array([math.comb(_EULER_M, i) for i in range(_EULER_M + 1)]) / 2.0**_EULER_M
    return math.exp(_EULER_A / 2.0) / t[:, 0] * (partial @ binom)


def _lemma(name: str, statistic: float, tolerance: float, note: str) -> dict:
    """A lemma check's report entry: every statistic is a ratio whose
    predicted limit is 1."""
    return {"name": name, "statistic": statistic, "predicted": 1.0,
            "tolerance": tolerance, "ok": abs(statistic - 1.0) <= tolerance,
            "note": note}


def _lemma_compound_geometric():
    # geometric number N >= 1 of iid heavy summands Y:
    # P{S > t} ~ E[N] (1 - F(t)) + E[N(N-1)] E[Y] f(t), the second-order
    # term centring the ratio at the window's finite t
    sigma = 0.5
    dist = ParetoShifted(2.5, 1.0)
    t_grid = np.array([40.0, 60.0, 90.0, 140.0])

    def lst_s(s):
        b = dist.lst(s)
        return (1.0 - sigma) * b / (1.0 - sigma * b)

    exact = _euler_survival(lst_s, t_grid)
    mean_n = 1.0 / (1.0 - sigma)
    fact2_n = 2.0 * sigma / (1.0 - sigma) ** 2
    pred = mean_n * dist.survival(t_grid) + fact2_n * dist.mean * dist._density(t_grid)
    return _lemma("compound-geometric tail", float(np.mean(exact / pred)), 0.15,
                  "exact P(S>t) by transform inversion over (E[N] survival + "
                  f"E[N(N-1)] E[Y] density), averaged over t in {t_grid.tolist()}")


def _lemma_poisson_count():
    # Poisson count over a heavy-tailed interval: P{N_lam(T) > j} ~ P{T > j/lam}
    lam = 1.0
    dist = ParetoShifted(2.5, 1.0)
    b = dist.poisson_mixture_pmf(lam, 1000)  # the survival is read up to j = 1000
    surv = 1.0 - np.cumsum(b)
    j = np.arange(100, 1001)
    return _lemma("poisson count over heavy interval",
                  float(np.mean(surv[j] / dist.survival(j / lam))), 0.10,
                  "exact count pmf vs interval survival, j in [100, 1000]")


def _lemma_convolution():
    # heavy + light convolution: tail constants add (the light one adds 0)
    n = 40_000
    j = np.arange(1, n + 1, dtype=float)
    heavy = j ** -3.5
    heavy = np.concatenate([[0.0], heavy / heavy.sum()])
    light = 0.3 * 0.7 ** np.arange(200)
    conv = np.convolve(heavy, light)[: n + 1]
    sheavy = survival_of(heavy)
    sconv = survival_of(conv / conv.sum())
    jj = np.arange(500, 5001)
    return _lemma("convolution tail closure", float(np.mean(sconv[jj] / sheavy[jj])),
                  0.10, "numeric convolution of a power pmf with a geometric pmf")


def _random_sum_cdf(count_pmf, summand_pmf):
    """P{S <= j}, j = 0..t, of S = Y_1 + ... + Y_N from the pmfs of N and Y
    on 0..t.  Exact when every Y is at least 1: then S <= t needs N <= t and
    every Y_i <= t, so the truncated pmfs hold all the mass that counts."""
    t = summand_pmf.size - 1
    conv = np.zeros(t + 1)
    conv[0] = 1.0  # the law of Y^{*0}
    pmf = count_pmf[0] * conv
    for n in range(1, t + 1):
        conv = np.convolve(conv, summand_pmf)[: t + 1]
        pmf += count_pmf[n] * conv
    return np.cumsum(pmf)


# Bernoulli numbers B_2, B_4, ..., B_12, for the Euler-Maclaurin tail of zeta
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _zeta(s: float) -> float:
    """Riemann zeta(s) for real s > 1: the first n - 1 = 9 terms of the
    series, then the Euler-Maclaurin sum for the rest, from n on."""
    n = 10
    total = sum(k**-s for k in range(1, n)) + n ** (1 - s) / (s - 1) + 0.5 * n**-s
    rising = s  # s (s + 1) ... (s + 2j - 2)
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / math.factorial(2 * j) * rising * n ** (1 - s - 2 * j)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def _lemma_random_sum():
    # random sum with heavy count and heavy summands of equal index h:
    # P{S > j} ~ (c_N mu_Y^h + mu_N c_Y) j^-h.  Both laws are floor(U^-1/h),
    # with pmf m^-h - (m+1)^-h on m >= 1, so the survival is (m+1)^-h exactly
    # (c = 1, mean = zeta(h)) and the pre-asymptotic shift bias decays like h/t.
    h = 2.5
    t_grid = np.array([25, 35, 50, 75])
    m = np.arange(t_grid[-1] + 1, dtype=float)
    pmf = np.zeros_like(m)
    pmf[1:] = m[1:] ** -h - (m[1:] + 1.0) ** -h
    exact = 1.0 - _random_sum_cdf(pmf, pmf)[t_grid]
    mu = _zeta(h)
    const = mu**h + mu
    return _lemma("random-sum tail closure",
                  float(np.mean(exact / (const * t_grid.astype(float) ** -h))), 0.20,
                  "exact P(S>t) by finite convolution vs c_N mu_Y^h + mu_N c_Y, "
                  "heavy count and summands")


def check_appendix_lemmas() -> list:
    """Property checks of the four limit lemmas on synthetic instances.

    Report-only and deterministic: each entry states a ratio statistic of
    exact laws, the predicted limit and whether the statistic lands within
    the (artifact-chosen) tolerance.
    """
    return [
        _lemma_compound_geometric(),
        _lemma_poisson_count(),
        _lemma_convolution(),
        _lemma_random_sum(),
    ]
