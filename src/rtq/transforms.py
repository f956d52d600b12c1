"""Generating functions of the stationary conditional distributions.

Everything here is a numeric evaluator on the closed unit square (and on
circles of radius < 1 for coefficient extraction): the Type-1 busy-period
transform and its fixed-point relatives, the three orbit factors Ka/Kb/Kc,
the idle-orbit transform R0, the service-excess factors S, the
difference-quotient factors H, the geometric factors M1/M2, and the full
conditional transforms R1/R2.

All evaluators follow numpy's convention: arguments are taken as complex
arrays and the result has their broadcast shape, so scalar arguments, real
or complex, give a complex numpy scalar (`np.complex128`), as one-element
arrays give a one-element complex array.  The public `eval_*` functions
take points only and solve for h themselves; the factors they share come
from one kernel, `_factors`, which `conditional_pmfs` calls on its
contour's two slices.  Every LST is taken at `_arg`, which is exactly 0 at
z1 = z2 = 1, so every evaluator is exactly 1 there when the laws' LSTs
are exactly 1 at 0.

Every transform inverted here is a PGF with real coefficients, so it takes
conjugate values at z and conj(z).  `conditional_pmfs` and `extract_pmf`
therefore evaluate only the upper half of the contour, indices 0..m//2
(`_ring`), and recover the coefficients by a real inverse FFT, which makes
them real by construction.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InversionError, NoConvergence, QuadratureFailure
from .model import ModelParams

__all__ = [
    "Pmf",
    "KFactors",
    "solve_alpha",
    "solve_h",
    "eval_g",
    "factor_K",
    "eval_R0",
    "eval_S_beta",
    "eval_H_beta1",
    "eval_H_beta2",
    "eval_M1",
    "eval_M2",
    "eval_R1",
    "eval_R2",
    "extract_pmf",
    "conditional_pmfs",
]

_ALIAS_TOL = 1e-12  # bound on radius^m, the aliasing error of the R0 series
_K_QUAD_TOL = 1e-10  # agreement of successive Gauss-Legendre orders for int K
_K_MAX_ORDER = 256  # highest Gauss-Legendre order tried for int K
_ROOT_TOL = 1e-12  # Newton step size at which a busy-period root is accepted
_ROOT_MAX_ITER = 10_000


# the paper's three orbit factors and their product K = Ka Kb Kc
KFactors = namedtuple("KFactors", ["ka", "kb", "kc", "k"])


@dataclass
class Pmf:
    """Truncated probability vector p_0..p_N with explicit missing mass."""

    probs: np.ndarray
    deficit: float

    def __len__(self):
        return self.probs.size

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def survival(self) -> np.ndarray:
        """P{X > j} for j = 0..N, counting the deficit as tail mass."""
        tail = np.cumsum(self.probs[::-1])[::-1]
        out = np.empty_like(tail)
        out[:-1] = tail[1:]
        out[-1] = 0.0
        return out + self.deficit


def _arg(params, z1, z2):
    """lam - lam1 z1 - lam2 z2, the argument of every LST taken here, written
    as lam1 (1 - z1) + lam2 (1 - z2) so that it is exactly 0 at z1 = z2 = 1
    for every lam and q."""
    return params.lambda1 * (1.0 - z1) + params.lambda2 * (1.0 - z2)


def _busy_root(params, s):
    """Solve x = beta1(s + lam1 (1 - x)) by a few Picard sweeps (which select
    the probabilistically minimal root from 0) followed by Newton polishing.

    Newton runs on an active set: a pass evaluates the LST and its
    derivative only at the points whose last step exceeded `_ROOT_TOL`, and
    a point leaves the set after its first step at or below it, so every
    point's final step is at most `_ROOT_TOL`."""
    d = params.dist1
    lam1 = params.lambda1
    s = np.asarray(s, dtype=complex)
    x = 0.0
    for _ in range(4):
        x = d.lst(s + lam1 * (1.0 - x))
    x = np.asarray(x)  # 0-d for a scalar argument; updated by mask below
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_ROOT_MAX_ITER):
        xa = x[active]
        b, db = d.lst_and_deriv(s[active] + lam1 * (1.0 - xa))
        step = (b - xa) / (-lam1 * db - 1.0)
        xa -= step
        # the root is a transform of a law, so |x| <= 1; past the circle the
        # LST's argument is clamped to Re >= 0 and the next step overshoots
        xa /= np.maximum(np.abs(xa), 1.0)
        x[active] = xa
        active[active] = np.abs(step) > _ROOT_TOL
        if not active.any():
            return x[()]
    raise NoConvergence(f"busy-period fixed point stalled (last step {np.max(np.abs(step)):.2e})")


def solve_alpha(params: ModelParams, s):
    """Minimal root of the busy-period equation a = beta1(s + lam1 - lam1 a)."""
    return _busy_root(params, s)


def solve_h(params: ModelParams, z2):
    """Minimal root of h = beta1(`_arg`(h, z2)); exactly 1 at z2 = 1, where a
    type-1 busy period ends with probability 1 and Newton can stop an ulp
    short, which the equilibrium LST of a type-1 index near 1 turns into an
    error of several percent at u = `_arg`(h(1), 1)."""
    z2 = np.asarray(z2, dtype=complex)
    h = _busy_root(params, params.lambda2 * (1.0 - z2))
    return np.where(z2 == 1.0, 1.0 + 0j, h)[()]


def eval_g(params: ModelParams, z2, h=None):
    """g(z2) = q h(z2) + p z2, the batch-size transform."""
    z2 = np.asarray(z2, dtype=complex)
    if h is None:
        h = solve_h(params, z2)
    return params.q * h + params.p * z2


def factor_K(params: ModelParams, u, h=None) -> KFactors:
    """The three orbit factors Ka, Kb, Kc and their product K at u.

    At s = lam (1 - g(u)) = `_arg`(h, u) the busy-period root is h = beta1(s),
    so each factor is a compound-geometric form in the equilibrium LSTs
    beta1e and beta2e at s, with no removable point at u = 1 and
    denominators at least 1 in modulus.
    """
    u = np.asarray(u, dtype=complex)
    if h is None:
        h = solve_h(params, u)
    s = _arg(params, h, u)
    return _orbit_factors(params, params.dist1_eq.lst(s), params.dist2_eq.lst(s))


def _geom(r, x):
    """(1 - r) / (1 - r x), written so that it is exactly 1 at x = 1: numpy
    divides complex numbers through the divisor's reciprocal, so
    (1 - r) / (1 - r) can miss 1 by an ulp."""
    return 1.0 / (1.0 + r / (1.0 - r) * (1.0 - x))


def _orbit_factors(params, b1e, b2e) -> KFactors:
    """Ka, Kb, Kc and K from beta1e and beta2e, each exactly 1 where both are."""
    rho1, rho2 = params.rho1, params.rho2
    ka = _geom(rho1, b1e)
    kb = 1.0 - (rho1 * (1.0 - b1e) + rho2 * (1.0 - b2e)) / params.rho
    kc = _geom(params.vartheta, ka * b2e)
    return KFactors(ka, kb, kc, ka * kb * kc)


@cache
def _gl_rule(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0  # mapped to [0,1]


def _k_integral(params, z):
    """integral of K(u) du along the straight segment from each z to 1, in
    the shape of z, refined by doubling the Gauss-Legendre order until two
    successive orders agree to `_K_QUAD_TOL`.

    K has a (1 - u)^(a - 1) term at u = 1 (a the type-1 Pareto index), so
    the rule runs in t with u = 1 - (1 - z) t^2, which turns the endpoint
    term into t^(2a - 1): int_z^1 K = (1 - z) int_0^1 2 t K(u(t)) dt."""
    seg = 1.0 - np.asarray(z, dtype=complex)
    prev = None
    order = 16
    while order <= _K_MAX_ORDER:
        t, w = _gl_rule(order)
        u = 1.0 - seg[..., None] * (t * t)  # (..., order)
        val = seg * (factor_K(params, u).k @ (2.0 * t * w))
        if prev is not None and np.max(np.abs(val - prev)) <= _K_QUAD_TOL:
            return val
        prev = val
        order *= 2
    raise QuadratureFailure(
        f"K-integral did not stabilise below {_K_QUAD_TOL:g} at order {_K_MAX_ORDER}"
    )


def eval_R0(params: ModelParams, z2):
    """Orbit transform given an idle server: exp(-psi * int_z^1 K)."""
    return np.exp(-params.psi * _k_integral(params, z2))


def eval_S_beta(params: ModelParams, i: int, z1, z2):
    """Equilibrium service LST of type i composed with lam - lam1 z1 - lam2 z2."""
    d = params.dist1_eq if i == 1 else params.dist2_eq
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    return d.lst(_arg(params, z1, z2))


_Factors = namedtuple("_Factors", ["s1", "s2", "h1", "h2", "kf", "m1", "m2"])


def _factors(params, z1, z2, h=None) -> _Factors:
    """S_beta_i, H_beta_i, the orbit factors at z2, M1 and M2 at (z1, z2),
    h = h(z2), from one pass of each equilibrium LST beta_ie at
    s = `_arg`(z1, z2), with its derivative, and one at the busy-period
    point u = `_arg`(h, z2).

    S_beta_i is beta_ie(s), and the orbit factors at z2 are those of the
    beta_ie(u).  The paper's quotient (beta_i(s) - beta_i(u)) / (m_i (u - s)),
    m_i the type-i mean, is written in beta_ie, for which
    beta_i(x) = 1 - m_i x beta_ie(x):

        H_beta_i = beta_ie(u) + s (beta_ie(s) - beta_ie(u)) / (s - u).

    On the orbit slice z1 = 1, |s| / |s - u| stays bounded as z2 -> 1, so
    the divided difference's round-off, of order eps / |s - u|, is scaled
    back to round-off by s.  u is written as s is, so z1 = h gives s = u
    bitwise, and there the divided difference is its limit, the
    derivative beta_ie'(s)."""
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    if h is None:
        h = solve_h(params, z2)
    s, u = np.broadcast_arrays(_arg(params, z1, z2), _arg(params, h, z2))
    laws = []
    for d in (params.dist1_eq, params.dist2_eq):
        b_s, db_s = d.lst_and_deriv(s)
        b_u = d.lst(u)
        diff = np.divide(b_s - b_u, s - u, out=np.array(db_s, dtype=complex), where=s != u)
        # s = u = 0 only at z1 = z2 = 1, where s beta_ie'(s) -> 0 even if
        # beta_ie has no mean and its derivative reads -inf
        diff[s == 0] = 0.0
        laws.append((b_s, b_u, (b_u + s * diff)[()]))
    (s1, u1, h1), (s2, u2, h2) = laws
    kf = _orbit_factors(params, u1, u2)
    m2 = params.vartheta * h2 * kf.ka * kf.kc + (1.0 - params.vartheta)
    return _Factors(s1, s2, h1, h2, kf, _geom(params.rho1, h1), m2)


def _conditionals(f: _Factors, r0):
    """R1 = M2 M1 S_beta1 R0 and R2 = S_beta2 Ka Kc R0 from the factors at
    (z1, z2) and R0 at z2."""
    return f.m2 * f.m1 * f.s1 * r0, f.s2 * f.kf.ka * f.kf.kc * r0


def eval_H_beta1(params: ModelParams, z1, z2):
    return _factors(params, z1, z2).h1


def eval_H_beta2(params: ModelParams, z1, z2):
    return _factors(params, z1, z2).h2


def eval_M1(params: ModelParams, z1, z2):
    """Geometric factor (1 - rho1) / (1 - rho1 * H_beta1)."""
    return _factors(params, z1, z2).m1


def eval_M2(params: ModelParams, z1, z2):
    """Factor vartheta H_beta2 Ka Kc + 1 - vartheta."""
    return _factors(params, z1, z2).m2


def eval_R1(params: ModelParams, z1, z2):
    """Factored conditional transform given a Type-1 service in progress."""
    return _conditionals(_factors(params, z1, z2), eval_R0(params, z2))[0]


def eval_R2(params: ModelParams, z1, z2):
    """Factored conditional transform given a Type-2 service in progress."""
    return _conditionals(_factors(params, z1, z2), eval_R0(params, z2))[1]


def _ring(radius, m):
    """Indices 0..m//2 of the m-point ring of the given radius: the upper
    half, which fixes a PGF with real coefficients on the whole ring."""
    k = np.arange(m // 2 + 1)
    return radius * np.exp(2j * np.pi * k / m)


def _check_roundoff(n, radius):
    """Reject (n, radius) pairs whose round-off amplification is hopeless.

    Recovering p_j multiplies the FFT's absolute round-off (~1e-15) by
    radius^(-j), so a small radius with a deep cutoff yields pure noise; a
    radius closer to 1 must be used instead.
    """
    if radius < 1.0 and 1e-16 * radius ** (-float(n)) > 1e-6:
        raise InversionError(
            f"radius {radius} amplifies round-off by {radius ** (-float(n)):.1e} "
            f"at coefficient {n}; use a radius closer to 1 for this depth"
        )


def _r0_on_contour(params, z, kvals, m):
    """R0 at the points z, indices 0..m//2 of the m-point inversion contour.

    K has a nonnegative power series with K(1) = 1, so the segment integral
    splits as int_z^1 K = int_0^1 K - sum_n k_n z^(n+1)/(n+1).  The real
    inverse FFT of the half-ring values of K gives k_n radius^n, and the
    real forward FFT of those terms over n + 1 sums the series back on the
    half ring; the aliased tail carries a factor radius^m, which the
    contour size chosen by `conditional_pmfs` keeps below `_ALIAS_TOL`.
    The series is cross-checked against direct quadrature at one contour
    point.
    """
    total = _k_integral(params, np.array([0.0 + 0j]))[0]
    kn = np.fft.irfft(np.conj(kvals), m)  # k_n * radius^n
    partial = np.conj(np.fft.rfft(kn / np.arange(1, m + 1)))
    integral = total - z * partial
    check = _k_integral(params, z[:1])[0]
    if abs(integral[0] - check) > 1e-8:
        raise QuadratureFailure(
            f"series and quadrature forms of the R0 integral disagree by "
            f"{abs(integral[0] - check):.2e}"
        )
    return np.exp(-params.psi * integral)


def _coeffs_from_ring(values, m, n, radius, label=""):
    """Power-series coefficients p_0..p_n of a PGF with real coefficients
    from its values at indices 0..m//2 of the m-point ring |z| = radius.

    The values at the other indices are the conjugates of these, so the
    real inverse FFT of the conjugated values is the coefficient vector
    itself, real for odd and even m."""
    if not np.all(np.isfinite(values)):
        raise InversionError(f"{label or 'pmf'}: PGF is not finite on the contour")
    probs = np.fft.irfft(np.conj(values), m)[: n + 1] * radius ** -np.arange(n + 1)
    lowest = probs.min()
    if lowest < -1e-6:
        raise InversionError(f"{label or 'pmf'}: coefficient {lowest:.3e} below -1e-6")
    if lowest < -1e-9:
        warnings.warn(f"{label or 'pmf'}: clipping negative dust down to {lowest:.3e}")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total > 1.0 + 1e-7:
        raise InversionError(f"{label or 'pmf'}: probabilities sum to {total:.10g} > 1")
    return Pmf(probs=probs, deficit=max(0.0, 1.0 - total))


def extract_pmf(f, n: int, radius: float = 0.9, label: str = "") -> Pmf:
    """Invert a one-argument PGF by sampling it on a circle of given radius.

    The contour has 4n points, and f is evaluated on its upper half only,
    the 2n + 1 points of `_ring`: a PGF has real coefficients, so its
    values there fix the rest.  The result carries the unrecovered tail
    mass as `deficit`.  A radius above 1 is allowed for PGFs analytic
    beyond the unit disk (light-tailed laws), where it is the only way to
    resolve geometrically small coefficients.  `label` names the PGF in
    error messages.
    """
    if n < 1:
        raise InversionError("need n >= 1 coefficients")
    if radius <= 0.0:
        raise InversionError("inversion radius must be positive")
    m = 4 * n
    _check_roundoff(n, radius)
    at_one = complex(np.asarray(f(1.0 + 0j), dtype=complex).reshape(-1)[0])
    if not abs(at_one - 1.0) <= 1e-8:  # so that NaN fails too
        raise InversionError(f"{label or 'pmf'}: PGF at 1 is {at_one:.10f}, not 1")
    z = _ring(radius, m)
    values = np.asarray(f(z), dtype=complex).reshape(z.size)
    return _coeffs_from_ring(values, m, n, radius, label=label)


def conditional_pmfs(params: ModelParams, n: int, radius: float = 0.9) -> dict:
    """Marginal pmfs of the five conditional counts by contour inversion.

    R0:  orbit | idle;  R11/R12: queue/orbit | Type-1 in service;
    R21/R22: queue/orbit | Type-2 in service.  One shared contour is used so
    the expensive fixed points and the R0 integral are computed once.  The
    contour has m = max(4n, k + 1) points, k the least with radius^k at
    most `_ALIAS_TOL`, so the R0 series is exact at working precision.
    h, the orbit factors, R0 and the five transforms are evaluated on its
    upper half only, indices 0..m//2 (m//2 + 1 points, for odd m as for
    even), and each is inverted from there by one real FFT.
    """
    if n < 1:
        raise InversionError("need n >= 1 coefficients")
    if not 0.0 < radius < 1.0:
        raise InversionError(f"inversion radius must lie in (0, 1), got {radius}")
    m = max(4 * n, math.ceil(math.log(_ALIAS_TOL) / math.log(radius)) + 1)
    _check_roundoff(n, radius)
    z = _ring(radius, m)
    one = np.ones_like(z)

    # the queue slice (z, 1) has h(1) = 1, so u = 0 there and the orbit
    # factors and R0 are 1; the orbit slice (1, z) feeds K to R0
    queue = _factors(params, z, one, one)
    orbit = _factors(params, one, z)
    r0 = _r0_on_contour(params, z, orbit.kf.k, m)
    r11, r21 = _conditionals(queue, 1.0)
    r12, r22 = _conditionals(orbit, r0)
    vals = {"R0": r0, "R11": r11, "R12": r12, "R21": r21, "R22": r22}

    labels = {
        "R0": "orbit | idle",
        "R11": "queue | serving type 1",
        "R12": "orbit | serving type 1",
        "R21": "queue | serving type 2",
        "R22": "orbit | serving type 2",
    }
    return {
        name: _coeffs_from_ring(v, m, n, radius, label=f"{name}: {labels[name]}")
        for name, v in vals.items()
    }
