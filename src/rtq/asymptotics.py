"""Closed-form tail asymptotes for every factor of the stationary laws.

When the high-priority service time is regularly varying with index a1
(survival ~ L0 * t^-a1), every derived count inherits a power tail whose
constant and exponent are explicit in the model parameters.  This module
evaluates that whole catalog.  Entries describe survival functions:

    P{X > j} ~ c * geom^j * j^(-kappa) * L0.

Counts driven by the low-priority service law switch between a power branch
and a geometric branch depending on whether that law is heavy or light
tailed.  One entry (the orbit part of the low-priority H factor) is known
only up to little-o and refuses pointwise evaluation.  A constant that
overflows a float is refused with OverflowGuard, never written as inf.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AssumptionViolation, NotApplicable, OverflowGuard
from .model import ModelParams

__all__ = ["PowerTail", "tail_catalog"]


@dataclass(frozen=True)
class PowerTail:
    """One survival asymptote P{X > j} ~ c * geom^j * j^(-kappa) * L0."""

    c: float
    kappa: float
    L0: float = 1.0
    geom: float = 1.0
    validity: str = "exact-asymptote"
    description: str = ""

    def evaluate(self, j) -> float:
        if self.validity == "little-o":
            raise NotApplicable(
                f"{self.description or 'entry'} is known only up to little-o; "
                "no constant is available"
            )
        return self.c * self.geom**j * float(j) ** (-self.kappa) * self.L0

    def to_dict(self) -> dict:
        return asdict(self)


@np.errstate(all="ignore")  # an overflow or a division by 0 leaves inf or nan for `put`
def tail_catalog(params: ModelParams) -> dict:
    """All tail asymptotes of a model whose type-2 law is lighter-tailed.

    Continuous-time entries (busy periods, equilibrium services) take a time
    argument; all others take an integer count.  Raises NotApplicable when
    the high-priority service tail is not a power law, and
    AssumptionViolation when both tails are power laws with a2 <= a1: the
    catalog assumes the type-2 tail is the lighter one, which the
    stationary law itself does not need.  OverflowGuard names the first
    entry whose constant c or L0 is not a finite float.
    """
    t1, t2 = params.dist1.tail, params.dist2.tail
    if not t1.is_power:
        raise NotApplicable("tail catalog requires a power-tailed type-1 service law")
    if t2.is_power and t2.a <= t1.a:
        raise AssumptionViolation(
            f"power-law indices must satisfy a2 > a1, got a1={t1.a}, a2={t2.a}"
        )
    a = t1.a
    L1 = t1.L0
    # numpy scalars, so that a power overflows to inf, not to OverflowError
    lam1, lam2, mu, rho1, rho2, rho, vt = map(np.float64, (
        params.lambda1, params.lambda2, params.mu,
        params.rho1, params.rho2, params.rho, params.vartheta))
    one1 = 1.0 - rho1
    alpha1 = params.dist1.mean / one1  # mean type-1 busy period

    cat = {}

    def put(name, c, kappa, L0=L1, geom=1.0, validity="exact-asymptote", desc=""):
        if not (math.isfinite(c) and math.isfinite(L0)):
            raise OverflowGuard(f"tail catalog entry {name!r} has a constant of c={c:.3g}, "
                                f"L0={L0:.3g}, which is not a finite float")
        cat[name] = PowerTail(
            c=float(c), kappa=float(kappa), L0=float(L0), geom=float(geom),
            validity=validity, description=desc,
        )

    # --- continuous time -------------------------------------------------
    put("busy_period", one1 ** -(a + 1), a, desc="type-1 busy period (time)")
    put("busy_eq", one1 ** -(a + 1) / (alpha1 * (a - 1)), a - 1,
        desc="equilibrium type-1 busy period (time)")
    put("service1_eq", lam1 / (rho1 * (a - 1)), a - 1,
        desc="equilibrium type-1 service (time)")
    put("service_eq", lam1 / (rho * (a - 1)), a - 1,
        desc="equilibrium merged service (time)")
    if t2.is_power:
        put("service2_eq", lam2 / (rho2 * (t2.a - 1)), t2.a - 1, L0=t2.L0,
            desc="equilibrium type-2 service (time)")
    else:
        put("service2_eq", lam2 / (rho2 * t2.r), t2.a, L0=t2.L0,
            geom=math.exp(-t2.r), desc="equilibrium type-2 service (time)")

    # --- orbit-building blocks -------------------------------------------
    put("xg", params.q * lam2**a * one1 ** -(a + 1), a,
        desc="orbit input of one effective arrival")
    ka_c = lam1 * lam2 ** (a - 1) / ((a - 1) * one1**a)
    put("ka", ka_c, a - 1, desc="first orbit factor")
    put("kb", lam1 * lam2 ** (a - 1) / (rho * (a - 1) * one1 ** (a - 1)), a - 1,
        desc="second orbit factor")
    put("kc", vt / (1.0 - vt) * ka_c, a - 1, desc="third orbit factor")
    kac_c = lam1 * lam2 ** (a - 1) / ((1.0 - rho) * (a - 1) * one1 ** (a - 1))
    put("ka_plus_kc", kac_c, a - 1, desc="combined first and third factors")
    put("k", lam1 * lam2 ** (a - 1) / (rho * (1.0 - rho) * (a - 1) * one1 ** (a - 1)),
        a - 1, desc="full orbit factor")
    put("r0", lam1 * lam2**a / (a * mu * (1.0 - rho) ** 2 * one1 ** (a - 1)), a,
        desc="orbit given an idle server")

    # --- service-excess splits -------------------------------------------
    put("s11", lam1**a / (rho1 * (a - 1)), a - 1,
        desc="queue part of the type-1 excess factor")
    s12_c = lam1 * lam2 ** (a - 1) / (rho1 * (a - 1))
    put("s12", s12_c, a - 1, desc="orbit part of the type-1 excess factor")
    if t2.is_power:
        put("s21", lam2 * lam1 ** (t2.a - 1) / (rho2 * (t2.a - 1)), t2.a - 1,
            L0=t2.L0, desc="queue part of the type-2 excess factor")
        put("s22", lam2**t2.a / (rho2 * (t2.a - 1)), t2.a - 1,
            L0=t2.L0, desc="orbit part of the type-2 excess factor")
    else:
        r = t2.r
        put("s21", lam2 * lam1 * (lam1 + r) ** (t2.a - 1) / (rho2 * r), t2.a,
            L0=t2.L0, geom=lam1 / (lam1 + r),
            desc="queue part of the type-2 excess factor")
        put("s22", lam2 * lam2 * (lam2 + r) ** (t2.a - 1) / (rho2 * r), t2.a,
            L0=t2.L0, geom=lam2 / (lam2 + r),
            desc="orbit part of the type-2 excess factor")
    s21 = cat["s21"]

    # --- difference-quotient factors -------------------------------------
    put("h11", cat["s11"].c, a - 1, desc="queue part of the type-1 H factor")
    chat = (one1 / rho1) * (one1**-a - 1.0)  # normalized H12 constant
    put("h12", chat * s12_c, a - 1, desc="orbit part of the type-1 H factor")
    put("h12_lower", a * s12_c, a - 1, validity="lower-bound",
        desc="lower envelope for the orbit part of the type-1 H factor")
    put("h12_upper", a / one1 ** (a - 1) * s12_c, a - 1, validity="upper-bound",
        desc="upper envelope for the orbit part of the type-1 H factor")
    put("h21", s21.c, s21.kappa, s21.L0, s21.geom,
        desc="queue part of the type-2 H factor")
    put("h22", 0.0, a - 1, validity="little-o",
        desc="orbit part of the type-2 H factor")

    # --- geometric compounds ---------------------------------------------
    put("m11", rho1 / one1 * cat["s11"].c, a - 1, desc="queue part of M1")
    put("m12", rho1 / one1 * cat["h12"].c, a - 1, desc="orbit part of M1")
    put("m21", vt * s21.c, s21.kappa, s21.L0, s21.geom, desc="queue part of M2")
    put("m22", vt * kac_c, a - 1, desc="orbit part of M2")

    # --- stationary conditional laws -------------------------------------
    put("r11", lam1**a / (rho1 * one1 * (a - 1)), a - 1,
        desc="queue given a type-1 service")
    put("r12", (rho2 / (1.0 - rho) + 1.0 / rho1)
        * lam1 * lam2 ** (a - 1) / ((a - 1) * one1**a), a - 1,
        desc="orbit given a type-1 service")
    put("r21", s21.c, s21.kappa, s21.L0, s21.geom,
        desc="queue given a type-2 service")
    put("r22", kac_c, a - 1, desc="orbit given a type-2 service")

    return cat
