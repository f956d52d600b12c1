"""Service-time laws and validated parameters of the two-class priority retrial queue.

A service distribution exposes the handful of functionals the rest of the
package needs: the Laplace-Stieltjes transform (LST) on the closed right
half-plane and its derivative, both from one kernel (`lst_and_deriv`), the
survival function, exact samplers, the equilibrium (stationary-excess) law
and a tail descriptor.  Exponential and Erlang laws use closed forms; the
shifted Pareto law evaluates its LST by double-exponential quadrature on a
ray rotated so that exp(-s t) decays without oscillating, which makes
complex arguments (needed for generating-function inversion) cost the same
as real ones.  The rotated integrand is written in real modulus and phase
and summed over blocks of arguments, and one pass gives the LST and its
derivative together.  The quadrature rule depends on the index alone: the
LST of scale c at s is the scale-1 LST at c s, so no scale is too small or
too large for it.  The shifted Pareto law also gives the pmf of the Poisson
count over one service time, on the same quadrature nodes, for the
limit-lemma checks of `verify`.

The LST evaluators follow numpy's convention: the argument is taken as
`np.asarray(s, dtype=complex)` and the result has its shape, so a scalar,
real or complex, gives a complex numpy scalar (`np.complex128`, a subclass
of `complex`), as a one-element array gives a one-element complex array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import AssumptionViolation, BadParam, QuadratureFailure, Unstable

__all__ = [
    "TailDescriptor",
    "ServiceDist",
    "Exponential",
    "Erlang",
    "ParetoShifted",
    "Mixture",
    "ModelParams",
    "validate",
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
    def moment2(self) -> float:
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


class Exponential(ServiceDist):
    kind = "exponential"

    def __init__(self, rate: float):
        if not (rate > 0 and math.isfinite(rate)):
            raise BadParam(f"exponential rate must be positive, got {rate}")
        self.rate = float(rate)

    def __repr__(self):
        return f"Exponential(rate={self.rate})"

    @property
    def mean(self):
        return 1.0 / self.rate

    @property
    def moment2(self):
        return 2.0 / self.rate**2

    @property
    def tail(self):
        return TailDescriptor(r=self.rate, a=0.0, L0=1.0)

    def lst_and_deriv(self, s):
        den = self.rate + np.asarray(s, dtype=complex)
        return self.rate / den, -self.rate / den**2

    def survival(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))

    def equilibrium(self):
        return self

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)

    def sample_length_biased(self, rng, size):
        return rng.gamma(2.0, 1.0 / self.rate, size)


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
    def moment2(self):
        return self.shape * (self.shape + 1) / self.rate**2

    @property
    def tail(self):
        k = self.shape
        return TailDescriptor(
            r=self.rate, a=-(k - 1), L0=self.rate ** (k - 1) / math.factorial(k - 1)
        )

    def lst_and_deriv(self, s):
        k, nu = self.shape, self.rate
        den = nu + np.asarray(s, dtype=complex)
        return (nu / den) ** k, -k * nu**k / den ** (k + 1)

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
        # of Erlang(1..k) with the same rate
        comps = [Erlang(i, self.rate) for i in range(1, self.shape + 1)]
        return Mixture([1.0 / self.shape] * self.shape, comps)

    def sample(self, rng, size):
        return rng.gamma(self.shape, 1.0 / self.rate, size)

    def sample_length_biased(self, rng, size):
        return rng.gamma(self.shape + 1, 1.0 / self.rate, size)


def _log_factorials(kmax: int) -> np.ndarray:
    """log k! for k = 0..kmax."""
    return np.array([math.lgamma(k + 1.0) for k in range(kmax + 1)])


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp(a) over the last axis, each row shifted by its maximum."""
    top = a.max(axis=-1, keepdims=True)
    return np.log(np.exp(a - top).sum(axis=-1)) + top[..., 0]


# quadrature levels tried in order: (step, half-width) of the exp-sinh rule
_ESH_LEVELS = [(0.08, 4.6), (0.05, 5.0), (0.032, 5.4), (0.02, 5.8)]
# LST arguments per kernel block; a block's (points x nodes) float64
# temporaries, about 400 kB each, then stay near a core's cache size
_LST_BLOCK = 256


def _expsinh_rule(step, half_width):
    u = np.arange(-half_width, half_width + step / 2, step)
    t = np.exp(0.5 * np.pi * np.sinh(u))
    w = t * 0.5 * np.pi * np.cosh(u) * step
    keep = (w > 1e-300) & np.isfinite(t)
    return t[keep], w[keep]


def _unit_pareto_lst(index, s_arr, rule):
    """(lst, lst_deriv) of ParetoShifted(index, 1) at every s of s_arr from
    one exp-sinh pass.

    With s = |s| e^{i theta} the ray is rotated to t e^{-i theta}, so
    exp(-s t) = exp(-|s| t) decays without oscillating; the density is
    analytic off (-inf, -1].  With c = cos theta and sn = sin theta the
    rotated integrand is, in real arithmetic,
        index exp(-|s| t - (index+1)/2 log(1 + 2 c t + t^2))
            * exp(i (index+1) atan2(sn t, 1 + c t)),
    which the rule sums against w for the LST and against w t for the
    derivative, times e^{-i theta} and -e^{-2 i theta} after the sum.
    With T = tan(phase / 2), cos(phase) = (1 - T^2) / (1 + T^2) and
    sin(phase) = 2 T / (1 + T^2): numpy's float64 tan costs a fraction of
    its cos and sin together.
    """
    t, w = rule
    a1 = index + 1.0
    t2 = t * t
    # columns: weights of the LST and of its derivative's integrand
    weights = index * np.stack([w, w * t], axis=1)
    flat = s_arr.reshape(-1)
    mod = np.abs(flat)
    theta = np.angle(flat)
    c, sn = np.cos(theta), np.sin(theta)
    re = np.empty((flat.size, 2))
    im = np.empty((flat.size, 2))
    for lo in range(0, flat.size, _LST_BLOCK):
        blk = slice(lo, lo + _LST_BLOCK)
        # exp underflows to 0.0 below -745.2, so the nodes (sorted by t)
        # with |s| t > 746 for the whole block add nothing; skip them
        k = np.searchsorted(mod[blk].min() * t, 746.0)
        ct = np.multiply.outer(c[blk], t[:k])
        half = np.arctan2(np.multiply.outer(sn[blk], t[:k]), 1.0 + ct)
        half *= 0.5 * a1
        tan = np.tan(half)
        mag = np.log1p(2.0 * ct + t2[:k])
        mag *= -0.5 * a1
        mag -= np.multiply.outer(mod[blk], t[:k])
        np.exp(mag, out=mag)
        tan2 = tan * tan
        mag /= 1.0 + tan2
        re[blk] = (mag - mag * tan2) @ weights[:k]
        im[blk] = (mag * tan) @ weights[:k]  # half the imaginary part
    rot = np.exp(-1j * theta)
    val = (re[:, 0] + 2j * im[:, 0]) * rot
    val[flat == 0] = 1.0
    deriv = (re[:, 1] + 2j * im[:, 1]) * (-rot * rot)
    return val.reshape(s_arr.shape), deriv.reshape(s_arr.shape)


@cache
def _pareto_rule(index):
    """(nodes, weights) of the coarsest exp-sinh level that agrees with the
    next finer one to ~1e-12 on a probe grid, for ParetoShifted(index, 1).

    A scale c law needs no rule of its own: its LST at s is the scale-1 LST
    at c s, and its derivative gains a factor c.
    """
    probe = np.array(
        [1e-3, 0.1, 1.0, 10.0, 50.0, 0.005 + 0.9j, 0.01 - 2j, 2 + 1j, 1e-4 + 0.3j]
    )
    prev = None
    for step, hw in _ESH_LEVELS:
        rule = _expsinh_rule(step, hw)
        vals = _unit_pareto_lst(index, probe, rule)[0]
        if prev is not None and np.max(np.abs(vals - prev)) < 1e-12:
            return rule
        prev = vals
    raise QuadratureFailure(
        f"LST quadrature for pareto index {index} did not stabilise at 1e-12"
    )


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
    def moment2(self):
        a, s = self.index, self.scale
        return 2 * s**2 / ((a - 1) * (a - 2)) if a > 2 else math.inf

    @property
    def tail(self):
        return TailDescriptor(r=0.0, a=self.index, L0=self.scale**self.index)

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
        c = self.scale
        arr = self._clamp_halfplane(np.asarray(s, dtype=complex))
        val, deriv = _unit_pareto_lst(self.index, c * arr, _pareto_rule(self.index))
        return val[()], (c * deriv)[()]

    def survival(self, t):
        return (1 + np.asarray(t, dtype=float) / self.scale) ** (-self.index)

    def equilibrium(self):
        # integrating the survival function lowers the index by one and
        # keeps the scale
        return ParetoShifted(self.index - 1, self.scale)

    def sample(self, rng, size):
        u = rng.random(size)
        return self.scale * (u ** (-1.0 / self.index) - 1.0)

    def sample_length_biased(self, rng, size):
        # t f(t) / mean = index * t / (t + scale) * (density of the
        # equilibrium law), so accept equilibrium draws with probability
        # t / (t + scale); the acceptance rate is exactly 1 / index
        if self.index <= 1:
            raise BadParam("pareto index must exceed 1 for a length-biased law")
        proposal = self.equilibrium()
        out = np.empty(size)
        got = 0
        while got < size:
            t = proposal.sample(rng, int((size - got) * self.index * 1.1) + 16)
            t = t[rng.random(t.size) * (t + self.scale) < t][: size - got]
            out[got : got + t.size] = t
            got += t.size
        return out

    def poisson_mixture_pmf(self, lam: float, kmax: int) -> np.ndarray:
        """b_k = E[(lam T)^k exp(-lam T) / k!] for k = 0..kmax: the law of
        the number of Poisson(lam) arrivals during one service time."""
        t, w = _pareto_rule(self.index)
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
    def moment2(self):
        return float(sum(w * c.moment2 for w, c in zip(self.weights, self.components)))

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
    """

    lam: float
    q: float
    mu: float
    dist1: ServiceDist
    dist2: ServiceDist

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


def validate(params: ModelParams) -> ModelParams:
    """Check ranges, stability and the tail-ordering assumption.

    Returns the same (immutable) params on success so calls can be chained.
    """
    if not (0.0 < params.q < 1.0):
        raise BadParam(f"q must be in (0,1), got {params.q}")
    if not (params.lam > 0 and math.isfinite(params.lam)):
        raise BadParam(f"arrival rate must be positive, got {params.lam}")
    if not (params.mu > 0 and math.isfinite(params.mu)):
        raise BadParam(f"retrial rate must be positive, got {params.mu}")
    for name, d in (("dist1", params.dist1), ("dist2", params.dist2)):
        if not (0 < d.mean < math.inf):
            raise BadParam(f"{name} must have a finite positive mean")
        if isinstance(d, ParetoShifted) and d.index <= 1:
            raise BadParam(f"{name}: pareto index must exceed 1")
    if params.rho >= 1.0:
        raise Unstable(f"rho = {params.rho:.6g} >= 1; the system is not stable")
    t1, t2 = params.dist1.tail, params.dist2.tail
    if t1.is_power and t2.is_power and t2.a <= t1.a:
        raise AssumptionViolation(
            f"power-law indices must satisfy a2 > a1, got a1={t1.a}, a2={t2.a}"
        )
    return params
