"""The paper's published forms of M1, R1 and R2: the oracles of criterion 02.

These are the difference-quotient forms the balance equations give.  They
have removable singularities (z1 = h(z2), z2 = beta2(lam (1 - g(z2))),
s12 = 0), so they hold on the open unit square only and `rtq.transforms`
inverts the factored forms instead.  Each is built from the public
`solve_h`, `eval_g` and `eval_R0` and checks the factored form at interior
points.
"""

from __future__ import annotations

import numpy as np

from rtq.model import ModelParams
from rtq.transforms import eval_g, eval_R0, solve_h


def _points(params, z1, z2):
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    return z1, z2, solve_h(params, z2)


def eval_M1_raw(params: ModelParams, z1, z2):
    """Published difference-quotient form of M1."""
    z1, z2, h = _points(params, z1, z2)
    b1 = params.dist1.lst(params.lam - params.lambda1 * z1 - params.lambda2 * z2)
    return (1.0 - params.rho1) * (h - z1) / (b1 - z1)


def _w_fn(params, z1, z2, h, g):
    lam, lam1, lam2 = params.lam, params.lambda1, params.lambda2
    s12 = lam - lam1 * z1 - lam2 * z2
    b2_12 = params.dist2.lst(s12)
    b2_g = params.dist2.lst(lam * (1.0 - g))
    return (lam - lam1 * h - lam2 * b2_g) * (b2_12 - z2) + (
        lam - lam1 * z1 - lam2 * b2_12
    ) * (z2 - b2_g)


def eval_R1_raw(params: ModelParams, z1, z2):
    """Published form of R1, given a type-1 service in progress."""
    z1, z2, h = _points(params, z1, z2)
    lam, lam1, lam2 = params.lam, params.lambda1, params.lambda2
    g = eval_g(params, z2, h)
    s12 = lam - lam1 * z1 - lam2 * z2
    b1 = params.dist1.lst(s12)
    b2_g = params.dist2.lst(lam * (1.0 - g))
    return (
        (1.0 - params.rho)
        / params.rho1
        * _w_fn(params, z1, z2, h, g)
        / ((b2_g - z2) * (z1 - b1))
        * (1.0 - b1)
        / s12
        * eval_R0(params, z2)
    )


def eval_R2_raw(params: ModelParams, z1, z2):
    """Published form of R2, given a type-2 service in progress."""
    z1, z2, h = _points(params, z1, z2)
    lam, lam1, lam2 = params.lam, params.lambda1, params.lambda2
    g = eval_g(params, z2, h)
    s12 = lam - lam1 * z1 - lam2 * z2
    b2_12 = params.dist2.lst(s12)
    b2_g = params.dist2.lst(lam * (1.0 - g))
    return (
        (1.0 - params.rho)
        / params.rho2
        * (lam * (1.0 - g))
        / (b2_g - z2)
        * (1.0 - b2_12)
        / s12
        * eval_R0(params, z2)
    )
