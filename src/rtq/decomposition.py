"""Exact stochastic representations of the conditional-distribution factors.

All of them rest on one primitive, Theta(tau): the length of a type-1 busy
period whose root lasts tau.  `theta` grows a forest of such trees one
generation at a time, with one Poisson(lam1 x the generation's total
service) draw per tree.  With X_g the orbit input of an arrival, itself
(low priority) or the low-priority arrivals over a busy period (high),
Poisson superposition makes two identities exact in law:
- the X_g of the Poisson(lam tau) arrivals during tau sum to
  Poisson(lam2 Theta(tau));
- Theta(a) + Theta(b) has the law of Theta(a + b).
So a factor is one forest over its root durations and one Poisson per
coordinate.  A (queue, orbit) pair also has a direct time d, whose arrivals
join the queue or the orbit one by one by type: it is (Poisson(lam1 d),
Poisson(lam2 (d + Theta(root)))).  With G(r) a Geometric(1 - r) - 1 count
and T1e, T2e, Te the equilibrium type-1, type-2 and merged services:
- Ka: G(rho1) T1e, summed;  Kb: one Te;  K = Ka + Kb + Kc;
- Kc: G(vartheta) stages, each a Ka root and a T2e, summed;
- H: V uniform in a length-biased service T*, V direct and T* - V root;
- S: an equilibrium service, all direct;  M1: G(rho1) type-1 H, summed;
- M2: with probability vartheta a type-2 H and a Ka and a Kc root, else 0;
- R1 = M2 + M1 + S1 and R2 = S2 + Ka + Kc, each with an R0 in the orbit.
R0, the orbit given an idle server, is Poisson(psi) candidate K draws, each
kept with probability 1/(K+1) and then contributing K+1.  The samplers are
exact in distribution and vectorised over their n draws, with no tables, no
truncation, no rejection loop and no call into the analytic evaluators.

Streams: `sample_into` splits n draws into blocks of _BLOCK; block i draws
from its own stream, key (0, k + i) of the `parallel.make_rng` layout, with
k the blocks the sampler drew before.  Threads draw the blocks (numpy
releases the GIL) a few per worker ahead of the caller, which receives them
in block order, so draws never depend on the core count and their memory
does not grow with n.  Primitives called directly draw from the sampler's
`rng`, on key (0,).
"""

from __future__ import annotations

import contextlib
import copy

import numpy as np

from . import parallel
from .errors import OverflowGuard, RecursionDepthExceeded
from .model import ModelParams

__all__ = ["DecompositionSampler", "PAIR_TARGETS", "SCALAR_TARGETS"]

SCALAR_TARGETS = ("xg", "ka", "kb", "kc", "k", "r0")
PAIR_TARGETS = ("h1", "h2", "m1", "m2", "s1", "s2", "r1", "r2")
# each target as the sampler method and the leading arguments that draw it
_CALLS = {
    **{t: (f"sample_{t}",) for t in SCALAR_TARGETS},
    "h1": ("sample_h_pair", 1), "h2": ("sample_h_pair", 2),
    "s1": ("sample_s_pair", 1), "s2": ("sample_s_pair", 2),
    "m1": ("sample_m1_pair",), "m2": ("sample_m2_pair",),
    "r1": ("sample_r1_pair",), "r2": ("sample_r2_pair",),
}
_BLOCK = 1 << 16  # draws per block of `sample`, each on a stream of its own
_INT64_MAX = np.iinfo(np.int64).max
_POISSON_MAX = _INT64_MAX - 10 * np.sqrt(_INT64_MAX)  # numpy's largest Poisson mean


def _group_sums(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of float `values`; run i has length
    counts[i].  Empty draws need no branch: numpy's size-0 draws leave the
    generator's state unchanged, and an empty run sums to 0."""
    owner = np.repeat(np.arange(counts.size), counts)
    return np.bincount(owner, weights=values, minlength=counts.size)


def _poisson(rng: np.random.Generator, lam):
    """rng.poisson(lam), or OverflowGuard before the draw when a mean is not
    finite or is above the largest that numpy draws."""
    if np.size(lam) and not np.max(lam) <= _POISSON_MAX:  # NaN fails the test too
        raise OverflowGuard(f"a Poisson mean of {np.max(lam):.3g} is beyond {_POISSON_MAX:.3g}")
    return rng.poisson(lam)


class DecompositionSampler:
    """Draws from the factor laws of a fixed parameter set.

    The sampler holds no state beyond its random stream and the count of
    blocks `sample` has drawn, so building one is free; draws depend only on
    (params, seed) and the call order.
    """

    def __init__(self, params: ModelParams, seed: int = 0):
        self.params = params
        self.seed = seed
        self.blocks = 0
        self.rng = parallel.make_rng(seed, 0)

    # primitives
    def theta(self, roots: np.ndarray, mean: float) -> np.ndarray:
        """Theta: lengths of type-1 busy periods whose roots last `roots`.
        The trees may hold 30 times their mean total of services, and at
        least a million, a guard fixed before any draw: a tree has
        1 + lam1 `mean` / (1 - rho1) services on average, with `mean` the law
        mean of a root, taken as 1 service when infinite."""
        p = self.params
        per_tree = 1.0 + p.lambda1 * mean / (1.0 - p.rho1) if mean < np.inf else 1.0
        max_nodes = max(1_000_000, int(30 * roots.size * per_tree))
        total = np.array(roots, dtype=float)
        alive = np.flatnonzero(total)
        svc, used = total[alive], float(total.size)
        while alive.size:
            # a Poisson of mean over 2 max_nodes is at most max_nodes with
            # probability under e^(-0.3 max_nodes): raise before drawing it
            if p.lambda1 * svc.sum() > 2 * max_nodes:
                raise RecursionDepthExceeded(f"busy-period trees exceeded {max_nodes} services")
            kids = _poisson(self.rng, p.lambda1 * svc)
            used += kids.sum(dtype=float)  # a float sum cannot wrap around
            if used > max_nodes:
                raise RecursionDepthExceeded(f"busy-period trees exceeded {max_nodes} services")
            on = kids > 0
            alive, kids = alive[on], kids[on]
            svc = _group_sums(kids, p.dist1.sample(self.rng, int(kids.sum())))
            total[alive] += svc
        return total

    def busy_durations(self, n: int) -> np.ndarray:
        """Lengths of n independent high-priority busy periods: Theta of n
        type-1 root services."""
        root = self.params.dist1
        return self.theta(root.sample(self.rng, n), root.mean)

    def sample_xg(self, n: int) -> np.ndarray:
        """Orbit input of one effective arrival: itself (low priority) or
        the low-priority arrivals over one busy period (high priority)."""
        p = self.params
        out = np.ones(n, dtype=np.int64)
        hi = self.rng.random(n) < p.q
        out[hi] = _poisson(self.rng, p.lambda2 * self.busy_durations(int(hi.sum())))
        return out

    def _orbit(self, roots, mean, direct=0.0) -> np.ndarray:
        """The low-priority arrivals during `direct` and the orbit input over `roots`."""
        return _poisson(self.rng, self.params.lambda2 * (direct + self.theta(roots, mean)))

    def _pair(self, direct, roots, mean):
        """(queue, orbit) of a direct time and a root duration."""
        return _poisson(self.rng, self.params.lambda1 * direct), self._orbit(roots, mean, direct)

    # the pieces: root durations with their law mean, and direct times
    def _ka_root(self, n: int):
        p = self.params
        stages = self.rng.geometric(1.0 - p.rho1, n) - 1
        svc = p.dist1_eq.sample(self.rng, int(stages.sum()))
        return _group_sums(stages, svc), p.rho1 / (1.0 - p.rho1) * p.dist1_eq.mean

    def _kc_root(self, n: int):
        p, vt = self.params, self.params.vartheta
        stages = self.rng.geometric(1.0 - vt, n) - 1
        m = int(stages.sum())
        ka, ka_mean = self._ka_root(m)
        step = ka + p.dist2_eq.sample(self.rng, m)
        return _group_sums(stages, step), vt / (1.0 - vt) * (ka_mean + p.dist2_eq.mean)

    def _ka_kc_root(self, n: int):
        (a, a_mean), (c, c_mean) = self._ka_root(n), self._kc_root(n)
        return a + c, a_mean + c_mean

    def _h(self, which: int, n: int):
        """(direct, root, mean) of H; E[T* - V] = E[T*] / 2, the equilibrium mean."""
        p = self.params
        dist, eq = (p.dist1, p.dist1_eq) if which == 1 else (p.dist2, p.dist2_eq)
        t = dist.sample_length_biased(self.rng, n)
        if not np.isfinite(t).all():
            raise OverflowGuard(
                f"a length-biased type-{which} service is beyond the largest float")
        v = t * self.rng.random(n)
        return v, t - v, eq.mean

    def _m1(self, n: int):
        rho1 = self.params.rho1
        stages = self.rng.geometric(1.0 - rho1, n) - 1
        v, root, mean = self._h(1, int(stages.sum()))
        return _group_sums(stages, v), _group_sums(stages, root), rho1 / (1.0 - rho1) * mean

    def _m2(self, n: int):
        vt = self.params.vartheta
        on = np.flatnonzero(self.rng.random(n) < vt)
        v, h_root, h_mean = self._h(2, on.size)
        k_root, k_mean = self._ka_kc_root(on.size)
        direct, root = np.zeros(n), np.zeros(n)
        direct[on], root[on] = v, h_root + k_root
        return direct, root, vt * (h_mean + k_mean)

    def _s(self, which: int, n: int) -> np.ndarray:
        return (self.params.dist1_eq if which == 1 else self.params.dist2_eq).sample(self.rng, n)

    # the orbit factors
    def sample_ka(self, n: int) -> np.ndarray:
        """The low-priority arrivals over an equilibrium busy period, or 0."""
        return self._orbit(*self._ka_root(n))

    def sample_kb(self, n: int) -> np.ndarray:
        """The orbit input over an equilibrium service of the merged stream."""
        eq = self.params.mixed_service_eq
        return self._orbit(eq.sample(self.rng, n), eq.mean)

    def sample_kc(self, n: int) -> np.ndarray:
        return self._orbit(*self._kc_root(n))

    def sample_k(self, n: int) -> np.ndarray:
        root, mean = self._ka_kc_root(n)
        eq = self.params.mixed_service_eq
        return self._orbit(root + eq.sample(self.rng, n), mean + eq.mean)

    def sample_r0(self, n: int) -> np.ndarray:
        """Orbit size given an idle server, exp(-psi int_z^1 K); the
        Poisson(n psi) candidates go to uniform draws, Poisson(psi) each."""
        owner = self.rng.integers(0, n, _poisson(self.rng, self.params.psi * n))
        cand = self.sample_k(owner.size)
        keep = self.rng.random(cand.size) * (cand + 1.0) < 1.0
        return np.bincount(owner, np.where(keep, cand + 1.0, 0.0), n).astype(np.int64)

    # bivariate (queue, orbit) factors
    def sample_h_pair(self, which: int, n: int):
        """One step of the difference-quotient factor H for type `which`."""
        return self._pair(*self._h(which, n))

    def sample_s_pair(self, which: int, n: int):
        """Arrivals during an equilibrium type-`which` service, by type."""
        t = self._s(which, n)
        p = self.params
        return _poisson(self.rng, p.lambda1 * t), _poisson(self.rng, p.lambda2 * t)

    def sample_m1_pair(self, n: int):
        """Geometric compound of H factors for the high-priority class."""
        return self._pair(*self._m1(n))

    def sample_m2_pair(self, n: int):
        """With probability vartheta a low-priority H with a Ka and a Kc."""
        return self._pair(*self._m2(n))

    def sample_r1_pair(self, n: int):
        """(queue, orbit) given a high-priority service in progress."""
        (d2, r2, m2), (d1, r1, m1) = self._m2(n), self._m1(n)
        q, o = self._pair(d2 + d1 + self._s(1, n), r2 + r1, m2 + m1)
        return q, o + self.sample_r0(n)

    def sample_r2_pair(self, n: int):
        """(queue, orbit) given a low-priority service in progress."""
        q, o = self._pair(self._s(2, n), *self._ka_kc_root(n))
        return q, o + self.sample_r0(n)

    # dispatch
    def sample_into(self, target: str, n: int, write) -> None:
        """Draw n values of a named factor and pass them to `write` one
        block at a time, in block order, each block a tuple of columns:
        (values,) or (queue, orbit).

        The draws come in blocks of _BLOCK, block i from stream
        (0, k + i) with k the blocks drawn so far, on a thread pool
        that runs a few blocks ahead of `write`.  When a block or `write`
        raises, the blocks not yet started are never drawn.
        """
        call = _CALLS.get(target.lower())
        if call is None:
            raise ValueError(f"unknown target {target!r}; choose from "
                             f"{', '.join(SCALAR_TARGETS + PAIR_TARGETS)}")
        method, *args = call
        sizes = [min(_BLOCK, n - start) for start in range(0, max(n, 1), _BLOCK)]
        first, self.blocks = self.blocks, self.blocks + len(sizes)

        def block(i):
            sub = copy.copy(self)
            sub.rng = parallel.make_rng(self.seed, 0, first + i)
            drawn = getattr(sub, method)(*args, sizes[i])
            return drawn if isinstance(drawn, tuple) else (drawn,)

        with contextlib.closing(parallel.imap(block, range(len(sizes)))) as blocks:
            for drawn in blocks:
                write(drawn)

    def sample(self, target: str, n: int):
        """Draw n values of a named factor; pair targets return a tuple.
        The blocks of `sample_into`, joined."""
        parts = []
        self.sample_into(target, n, parts.append)
        columns = tuple(np.concatenate(col) for col in zip(*parts))
        return columns if len(columns) > 1 else columns[0]
