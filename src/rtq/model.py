"""Service-time laws and validated parameters of the two-class priority retrial queue.

A service distribution exposes the handful of functionals the rest of the
package needs: the Laplace-Stieltjes transform (LST) on the closed right
half-plane and its derivative, both from one kernel (`lst_and_deriv`), the
survival function, exact samplers, the equilibrium (stationary-excess) law
and a tail descriptor.  Erlang laws use closed forms, and the exponential
law is the shape-1 Erlang: one class, so the same transforms and the same
draws, and its own equilibrium law.  The shifted Pareto law has its LST in
closed form: for survival (1 + t)**(-b) it is b e^s E_{b+1}(s), with E_p the
generalized exponential integral (DLMF 8.19) summed by its power series near
0 and by its continued fraction beyond; the orders b + 1 and b give the
derivative.  Any index b > 0 is covered, and a law of scale c takes the
scale-1 LST at c s, so no scale is too small or too large.  The shifted
Pareto law also gives the pmf of the Poisson count over one service time, by
exp-sinh quadrature, for the limit-lemma checks of `verify`.

The LST evaluators follow numpy's convention: the argument is taken as
`np.asarray(s, dtype=complex)` and the result has its shape, so a scalar,
real or complex, gives a complex numpy scalar (`np.complex128`, a subclass
of `complex`), as a one-element array gives a one-element complex array.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import BadParam, Unstable

__all__ = [
    "TailDescriptor",
    "ServiceDist",
    "Exponential",
    "Erlang",
    "ParetoShifted",
    "Mixture",
    "ModelParams",
]


@dataclass(frozen=True)
class TailDescriptor:
    """Tail shape P{T > t} ~ L0 * exp(-r t) * t**(-a) as t -> infinity."""

    r: float
    a: float
    L0: float

    @property
    def is_power(self) -> bool:
        return self.r == 0.0


class ServiceDist:
    """Common interface of service-time laws; subclasses fill in the law.

    A law defines one LST kernel, `lst_and_deriv`, which gives the LST and
    its derivative together; `lst` and `lst_deriv` are its two halves."""

    kind: str

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def tail(self) -> TailDescriptor:
        raise NotImplementedError

    def lst_and_deriv(self, s):
        """(E exp(-s T), its derivative -E[T exp(-s T)]) for Re(s) >= 0,
        complex and of the shape of s.  The one LST kernel each law defines."""
        raise NotImplementedError

    def lst(self, s):
        """E exp(-s T): the first half of `lst_and_deriv`."""
        return self.lst_and_deriv(s)[0]

    def lst_deriv(self, s):
        """d/ds of the LST: the second half of `lst_and_deriv`."""
        return self.lst_and_deriv(s)[1]

    def survival(self, t):
        raise NotImplementedError

    def equilibrium(self) -> "ServiceDist":
        """Law with density survival(t)/mean (stationary excess)."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def sample_length_biased(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draws from the length-biased law, density t f(t) / mean."""
        raise NotImplementedError


class Erlang(ServiceDist):
    kind = "erlang"

    def __init__(self, shape: int, rate: float):
        if int(shape) != shape or shape < 1:
            raise BadParam(f"erlang shape must be a positive integer, got {shape}")
        if not (rate > 0 and math.isfinite(rate)):
            raise BadParam(f"erlang rate must be positive, got {rate}")
        self.shape = int(shape)
        self.rate = float(rate)

    def __repr__(self):
        return f"Erlang(shape={self.shape}, rate={self.rate})"

    @property
    def mean(self):
        return self.shape / self.rate

    @property
    def tail(self):
        k = self.shape
        # rate^(k - 1) / (k - 1)! in log space, so that neither the power nor
        # the factorial overflows on its own; a numpy exp overflows to inf,
        # which `tail_catalog` refuses
        return TailDescriptor(
            r=self.rate, a=-(k - 1),
            L0=float(np.exp((k - 1) * np.log(self.rate) - math.lgamma(k))),
        )

    def lst_and_deriv(self, s):
        # powers of nu / (nu + s) only, which lies in the unit disk for
        # Re(s) >= 0, so no power of nu overflows however large the shape
        k, nu = self.shape, self.rate
        den = nu + np.asarray(s, dtype=complex)
        ratio = nu / den
        return ratio**k, -k * nu / den**2 * ratio ** (k - 1)

    def survival(self, t):
        # P{Poisson(x) < shape} at x = rate t, its terms summed in log space;
        # 1 for x <= 0 and 0 for x = inf
        x = self.rate * np.asarray(t, dtype=float)
        inside = (x > 0) & (x < math.inf)
        xs = np.where(inside, x, 1.0)[..., None]
        logterm = np.arange(self.shape) * np.log(xs) - xs - _log_factorials(self.shape - 1)
        return np.where(inside, np.exp(_logsumexp(logterm)), x <= 0)[()]

    def equilibrium(self):
        # classical identity: the excess of an Erlang(k) is an equal mixture
        # of Erlang(1..k) with the same rate; an exponential law is its own
        if self.shape == 1:
            return self
        comps = [Erlang(i, self.rate) for i in range(1, self.shape + 1)]
        return Mixture([1.0 / self.shape] * self.shape, comps)

    def sample(self, rng, size):
        return rng.gamma(self.shape, 1.0 / self.rate, size)

    def sample_length_biased(self, rng, size):
        return rng.gamma(self.shape + 1, 1.0 / self.rate, size)


class Exponential(Erlang):
    """The shape-1 Erlang law: one class, so the same LSTs and draws."""

    kind = "exponential"

    def __init__(self, rate: float):
        super().__init__(1, rate)


def _log_factorials(kmax: int) -> np.ndarray:
    """log k! for k = 0..kmax."""
    return np.array([math.lgamma(k + 1.0) for k in range(kmax + 1)])


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp(a) over the last axis, each row shifted by its maximum."""
    top = a.max(axis=-1, keepdims=True)
    return np.log(np.exp(a - top).sum(axis=-1)) + top[..., 0]


def _expsinh_rule(step, half_width):
    u = np.arange(-half_width, half_width + step / 2, step)
    t = np.exp(0.5 * np.pi * np.sinh(u))
    w = t * 0.5 * np.pi * np.cosh(u) * step
    keep = (w > 1e-300) & np.isfinite(t)
    return t[keep], w[keep]


# 1/Gamma(1 + z) = 1 + sum_k _RECIP_GAMMA[k - 1] z^k to round-off for |z| <= 1:
# the coefficients c_2..c_26 of Abramowitz & Stegun 6.1.34, to 17 decimals
_RECIP_GAMMA = np.array([
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
    -0.04219773455554433, -0.00962197152787697, 0.0072189432466631, -0.00116516759185907,
    -0.00021524167411495, 0.00012805028238812, -2.013485478079e-05, -1.25049348214e-06,
    1.13302723198e-06, -2.056338417e-07, 6.1160951e-09, 5.00200764e-09, -1.18127457e-09,
    1.0434267e-10, 7.78226e-12, -3.69681e-12, 5.1004e-13, -2.058e-14, -5.35e-15, 1.23e-15,
    -1.2e-16,
])
# |x| up to which E_p(x) is summed by its power series, and by its continued
# fraction beyond: at 2.0 the alternating series loses 1e-13 to cancellation,
# and at 1.0 more of the inversion's points would go to the deep fraction
_SERIES_RADIUS = 1.4
# enough terms for |x| <= 1.4, where (-x)^k / k! < 1e-28 from k = 30 on
_SERIES_TERMS = 30
# continued-fraction depth at |x| = 1.4, twice what a relative 1e-15 needs
# there; the depth needed falls about like 1/|x|, and 10 more levels cover
# large |x| (checked for orders 0.02 to 21 and |x| from 1.4 to 1e5)
_FRACTION_DEPTH = 250


@cache
def _series_constants(orders):
    """What `_exp_en_series` needs of each order, for the orders tuple:
    rows (n, eps, D P + Q, (1 + eps D) P, n!) and the Horner coefficients
    of (-x)^k, k != n, of shape (len(orders), _SERIES_TERMS, 1), read-only."""
    rows = []
    coefs = np.zeros((len(orders), _SERIES_TERMS, 1))
    for row, p in enumerate(orders):
        n = max(round(p - 1.0), 0)
        eps = p - 1.0 - n
        # 1/G = (1 + eps D) P with 1/Gamma(1 - eps) = 1 + eps D, so (1/G - 1)/eps
        # = D P + Q with Q = (P - 1)/eps, built up without dividing by eps
        P, Q = 1.0, 0.0
        for j in range(1, n + 1):
            Q += P / j
            P *= 1.0 + eps / j
        D = -np.polyval(_RECIP_GAMMA[::-1], -eps)
        # n! is beyond the largest float from n = 171 on, where |(-x)^n / n!|
        # is below 1e-280: that float in its place keeps the term negligible
        n_fact = min(math.factorial(n), sys.float_info.max)
        rows.append((n, eps, D * P + Q, (1.0 + eps * D) * P, n_fact))
        coefs[row, :, 0] = [0.0 if k == n else 1.0 / (math.factorial(k) * (p - 1.0 - k))
                            for k in range(_SERIES_TERMS)]
    coefs.flags.writeable = False
    return tuple(rows), coefs


def _exp_en_series(orders, x):
    """e^x E_p(x) for each order p > 0 of `orders` (a tuple) at the points
    x, 0 < |x| <= _SERIES_RADIUS, from the power series of DLMF 8.19.

    With n = max(round(p - 1), 0), eps = p - 1 - n and
    G = Gamma(1 - eps) / prod_{j=1..n} (1 + eps/j),
        E_p(x) = (-x)^n/n! (1 - G x^eps)/eps - sum_{k != n} (-x)^k / (k! (k + 1 - p)),
    which joins the series' terms Gamma(1 - p) x^(p - 1) and k = n: both grow
    like 1/eps and cancel.  The quotient is G ((1/G - 1)/eps - expm1(eps ln x)/eps),
    with (1/G - 1)/eps from series in eps and ln x for the second part at
    eps = 0, so near-integer orders keep full accuracy and integer ones need
    no branch.  The sums over k run by Horner's rule, every order at once.
    The constants of each order are computed once per orders tuple
    (`_series_constants`); only the arithmetic in x runs per call.
    """
    rows, coefs = _series_constants(orders)
    log_x = np.log(x)
    lead = np.empty((len(orders), x.size), dtype=complex)
    for row, (n, eps, dpq, den, n_fact) in enumerate(rows):
        power = np.expm1(eps * log_x) / eps if eps else log_x
        lead[row] = (-x) ** n / n_fact * (dpq - power) / den
    poly = np.zeros_like(lead)
    for k in reversed(range(_SERIES_TERMS)):
        poly *= x
        np.subtract(coefs[:, k], poly, out=poly)
    return np.exp(x) * (lead + poly)


def _exp_en_fraction(orders, x):
    """e^x E_p(x) for each order p > 0 of `orders` at the points x,
    |x| > _SERIES_RADIUS, from the continued fraction of DLMF 8.19
        1/(x + p - 1 p/(x + p + 2 - 2 (p + 1)/(x + p + 4 - ...))),
    evaluated bottom-up from the depth the smallest |x| needs."""
    depth = int(_FRACTION_DEPTH * _SERIES_RADIUS / np.abs(x).min()) + 10
    p = np.array(orders)[:, None]
    i = np.arange(depth, 0, -1.0)[:, None, None]  # levels, bottom first
    f = x + (p + 2.0 * depth)
    for b_prev, a_i in zip(p + 2.0 * (i - 1), i * (p + (i - 1))):
        f = x + b_prev - a_i / f
    return 1.0 / f


class ParetoShifted(ServiceDist):
    """Survival (1 + t/scale)**(-index); all moments below `index` finite."""

    kind = "pareto"

    def __init__(self, index: float, scale: float):
        if not (index > 0 and math.isfinite(index)):
            raise BadParam(f"pareto index must be positive, got {index}")
        if not (scale > 0 and math.isfinite(scale)):
            raise BadParam(f"pareto scale must be positive, got {scale}")
        self.index = float(index)
        self.scale = float(scale)

    @classmethod
    def from_mean(cls, index: float, mean: float):
        if index <= 1:
            raise BadParam("pareto index must exceed 1 to prescribe a mean")
        return cls(index, mean * (index - 1))

    def __repr__(self):
        return f"ParetoShifted(index={self.index}, scale={self.scale})"

    @property
    def mean(self):
        return self.scale / (self.index - 1) if self.index > 1 else math.inf

    @property
    def tail(self):
        # a numpy power overflows to inf, which `tail_catalog` refuses
        return TailDescriptor(r=0.0, a=self.index,
                              L0=float(np.float64(self.scale) ** self.index))

    def _density(self, t):
        a, s = self.index, self.scale
        return (a / s) * (1 + t / s) ** (-(a + 1))

    @staticmethod
    def _clamp_halfplane(arr):
        # round-off from upstream root solves can leave Re(s) at -1e-16;
        # snap that to the boundary, reject anything genuinely negative
        tiny = (arr.real < 0) & (arr.real >= -1e-9)
        if tiny.any():
            arr = np.where(tiny, 1j * arr.imag, arr)
        if np.any(arr.real < 0):
            raise BadParam("pareto LST requires Re(s) >= 0")
        return arr

    def lst_and_deriv(self, s):
        # the scale-1 law's LST at x = scale s is b e^x E_{b+1}(x), b = index,
        # and as E_p' = -E_{p-1} its derivative is b e^x (E_{b+1} - E_b)(x);
        # s = 0 gives 1 and -mean exactly (-inf for an index <= 1)
        b, c = self.index, self.scale
        arr = self._clamp_halfplane(np.asarray(s, dtype=complex))
        x = c * arr.reshape(-1)
        val, deriv = np.ones_like(x), np.full_like(x, -self.mean)
        far = np.abs(x) > _SERIES_RADIUS
        for pts, exp_en in ((~far & (x != 0), _exp_en_series), (far, _exp_en_fraction)):
            if pts.any():
                f_up, f_b = exp_en((b + 1.0, b), x[pts])
                val[pts] = b * f_up
                deriv[pts] = c * b * (f_up - f_b)
        return val.reshape(arr.shape)[()], deriv.reshape(arr.shape)[()]

    def survival(self, t):
        return (1 + np.asarray(t, dtype=float) / self.scale) ** (-self.index)

    def equilibrium(self):
        # integrating the survival function lowers the index by one and
        # keeps the scale
        return ParetoShifted(self.index - 1, self.scale)

    def sample(self, rng, size):
        # an index near 0, as of the equilibrium law of an index near 1, can
        # draw beyond the largest float: that draw is inf, without a warning
        u = rng.random(size)
        with np.errstate(divide="ignore", over="ignore"):
            return self.scale * (u ** (-1.0 / self.index) - 1.0)

    def sample_length_biased(self, rng, size):
        """Closed form, no rejection: t f(t) / mean is proportional to
        x (1 + x)**-(index + 1) at x = t / scale, the beta-prime(2, index - 1)
        law of a Gamma(2) over an independent Gamma(index - 1) (Devroye,
        Non-Uniform Random Variate Generation, 1986, ch. IX).  Near index 1
        the Gamma(index - 1) can underflow to 0, and a draw beyond the largest
        float is inf, without a warning."""
        if self.index <= 1:
            raise BadParam("pareto index must exceed 1 for a length-biased law")
        g2 = rng.standard_gamma(2.0, size)
        with np.errstate(divide="ignore", over="ignore"):
            return self.scale * g2 / rng.standard_gamma(self.index - 1.0, size)

    def poisson_mixture_pmf(self, lam: float, kmax: int) -> np.ndarray:
        """b_k = E[(lam T)^k exp(-lam T) / k!] for k = 0..kmax, by exp-sinh
        quadrature: the law of the number of Poisson(lam) arrivals in a service."""
        t, w = _expsinh_rule(0.05, 5.0)  # a fixed rule of 201 nodes
        t, w = self.scale * t, self.scale * w
        logwf = np.log(w) + np.log(self._density(t))
        loglt = np.log(lam * t)
        out = np.empty(kmax + 1)
        ks = np.arange(kmax + 1)
        logfact = _log_factorials(kmax)
        for lo in range(0, kmax + 1, 2048):
            k = ks[lo : lo + 2048, None]
            logterm = k * loglt - lam * t - logfact[lo : lo + 2048, None]
            out[lo : lo + 2048] = np.exp(_logsumexp(logterm + logwf))
        return out


class Mixture(ServiceDist):
    """Finite mixture of service laws (used for the merged arrival stream's
    service time and for Erlang equilibria)."""

    kind = "mixture"

    def __init__(self, weights, components):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or len(components) != w.size or np.any(w < 0):
            raise BadParam("mixture needs matching nonnegative weights")
        if abs(w.sum() - 1.0) > 1e-12:
            raise BadParam("mixture weights must sum to 1")
        self.weights = w
        self.components = list(components)

    def __repr__(self):
        return f"Mixture({list(self.weights)}, {self.components})"

    @property
    def mean(self):
        return float(sum(w * c.mean for w, c in zip(self.weights, self.components)))

    @property
    def tail(self):
        # the heaviest component wins: smallest decay rate, then smallest
        # power index; matching components pool their L0 mass
        key = min((c.tail.r, c.tail.a) for c in self.components)
        L0 = sum(
            w * c.tail.L0
            for w, c in zip(self.weights, self.components)
            if (c.tail.r, c.tail.a) == key
        )
        return TailDescriptor(r=key[0], a=key[1], L0=float(L0))

    def lst_and_deriv(self, s):
        parts = [c.lst_and_deriv(s) for c in self.components]
        val = sum(w * v for w, (v, _) in zip(self.weights, parts))
        return val, sum(w * d for w, (_, d) in zip(self.weights, parts))

    def survival(self, t):
        return sum(w * c.survival(t) for w, c in zip(self.weights, self.components))

    def equilibrium(self):
        means = np.array([c.mean for c in self.components])
        w = self.weights * means / self.mean
        return Mixture(w, [c.equilibrium() for c in self.components])

    def _sample_components(self, rng, size, weights, draw):
        # pick a component per draw by `weights`, then draw(component, count)
        which = rng.choice(len(self.components), size=size, p=weights)
        out = np.empty(size)
        for i, c in enumerate(self.components):
            m = which == i
            if m.any():
                out[m] = draw(c, int(m.sum()))
        return out

    def sample(self, rng, size):
        return self._sample_components(rng, size, self.weights, lambda c, k: c.sample(rng, k))

    def sample_length_biased(self, rng, size):
        means = np.array([c.mean for c in self.components])
        return self._sample_components(
            rng, size, self.weights * means / self.mean,
            lambda c, k: c.sample_length_biased(rng, k),
        )


@dataclass(frozen=True)
class ModelParams:
    """Raw parameters plus derived loads of the priority retrial queue.

    lam      total Poisson arrival rate
    q        probability an arrival is Type-1 (queue, priority)
    mu       per-customer retrial rate from the orbit
    dist1/2  service-time laws for Type-1 / Type-2 customers

    Construction checks the model: BadParam unless q is in (0, 1), lam and
    mu are finite and positive and both laws have a finite positive mean,
    and Unstable unless rho < 1.  The stationary law exists for every
    model that passes; the tail catalog's a2 > a1 assumption is checked by
    `asymptotics.tail_catalog` alone.
    """

    lam: float
    q: float
    mu: float
    dist1: ServiceDist
    dist2: ServiceDist

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise BadParam(f"q must be in (0,1), got {self.q}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise BadParam(f"arrival rate must be positive, got {self.lam}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise BadParam(f"retrial rate must be positive, got {self.mu}")
        for name, d in (("dist1", self.dist1), ("dist2", self.dist2)):
            if not (0 < d.mean < math.inf):
                raise BadParam(f"{name} must have a finite positive mean")
        if self.rho >= 1.0:
            raise Unstable(f"rho = {self.rho:.6g} >= 1; the system is not stable")

    @property
    def p(self):
        return 1.0 - self.q

    @property
    def lambda1(self):
        return self.lam * self.q

    @property
    def lambda2(self):
        return self.lam * self.p

    @property
    def rho1(self):
        return self.lambda1 * self.dist1.mean

    @property
    def rho2(self):
        return self.lambda2 * self.dist2.mean

    @property
    def rho(self):
        return self.rho1 + self.rho2

    @property
    def vartheta(self):
        return self.rho2 / (1.0 - self.rho1)

    @property
    def psi(self):
        return self.rho * self.lambda2 / (self.mu * (1.0 - self.rho))

    @cached_property
    def mixed_service(self) -> Mixture:
        """Service law of a typical customer: q-p mixture of the two laws."""
        return Mixture([self.q, self.p], [self.dist1, self.dist2])

    @cached_property
    def mixed_service_eq(self) -> ServiceDist:
        return self.mixed_service.equilibrium()

    @cached_property
    def dist1_eq(self) -> ServiceDist:
        return self.dist1.equilibrium()

    @cached_property
    def dist2_eq(self) -> ServiceDist:
        return self.dist2.equilibrium()

