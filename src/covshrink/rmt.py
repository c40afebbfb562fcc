"""Random-matrix layer: Stieltjes transforms and the Marchenko-Pastur law.

Covers the MP Stieltjes transform, the MP density and its closed-form CDF
for the identity population (both take scalars or arrays), and the
closed-form Hilbert and boundary transforms.  A leaf module: it imports no
other part of the package.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MPModel:
    """Marchenko-Pastur model for concentration c = lim p/n in (0, 1).

    Support edges are lambda_minus = (1 - sqrt(c))^2 and
    lambda_plus = (1 + sqrt(c))^2.  Once sqrt(c) rounds to 2**-54 or less (c
    up to about 3.1e-33) both round to 1.0 in float64, leaving no support,
    and c is refused.
    """

    c: float
    lambda_minus: float = field(init=False)
    lambda_plus: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"concentration must lie in (0, 1), got {self.c}")
        r = math.sqrt(self.c)
        lo, hi = (1.0 - r) ** 2, (1.0 + r) ** 2
        if lo == hi:
            raise ValueError(f"concentration {self.c} is too small for float64: the support "
                             "edges (1 - sqrt(c))^2 and (1 + sqrt(c))^2 both round to 1.0; "
                             "need c above about 3.1e-33")
        object.__setattr__(self, "lambda_minus", lo)
        object.__setattr__(self, "lambda_plus", hi)


def mp_density(x, model: MPModel):
    """Marchenko-Pastur density sqrt((x - lm)(lp - x)) / (2 pi c x), zero off-support."""
    xv = np.asarray(x, dtype=float)
    lo, hi = model.lambda_minus, model.lambda_plus
    inside = (xv > lo) & (xv < hi)
    out = np.zeros_like(xv)
    xs = xv[inside]
    out[inside] = np.sqrt((xs - lo) * (hi - xs)) / (2.0 * np.pi * model.c * xs)
    if np.ndim(x) == 0:
        return float(out)
    return out


def mp_cdf(x, model: MPModel):
    """Closed-form MP CDF; a float in gives a float out, an array an array.

    With R = sqrt((x - lm)(lp - x)), theta = atan2(2x - lm - lp, 2R) and
    Delta = atan2(-R (x + 1 - c), x^2 - 2cx + (1 - c)^2), the antiderivative of
    the density gives 2 pi c F(x) = R + (1 - c) Delta + 2c (theta + pi/2).
    Delta folds the difference of the antiderivative's two arcsines into one
    atan2, so no cancellation grows as c -> 0.  Against 40-digit numerical
    integration the error stays below 7e-13 for c from 1e-8 to 1 - 1e-6,
    and near 1e-15 for c >= 0.01.  x is clipped to the support, so F is
    exactly 0 at or below lm and exactly 1 at or above lp.
    """
    lo, hi, c = model.lambda_minus, model.lambda_plus, model.c
    xv = np.clip(np.asarray(x, dtype=float), lo, hi)
    r = np.sqrt((xv - lo) * (hi - xv))
    theta = np.arctan2(2.0 * xv - lo - hi, 2.0 * r)
    delta = np.arctan2(-r * (xv + 1.0 - c), xv * xv - 2.0 * c * xv + (1.0 - c) ** 2)
    out = np.clip((r + (1.0 - c) * delta + 2.0 * c * (theta + 0.5 * np.pi)) / (2.0 * np.pi * c),
                  0.0, 1.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def identity_hilbert(x: float, model: MPModel) -> float:
    """Closed-form Hilbert transform (principal value) for the identity population.

    H(x) = (1 - c - x) / (2 c x) on the support.
    """
    if x == 0.0:
        raise ValueError("Hilbert transform undefined at x = 0")
    return (1.0 - model.c - x) / (2.0 * model.c * x)


def boundary_stieltjes(x: float, model: MPModel) -> complex:
    """Boundary value of the MP Stieltjes transform on the support.

    m(x) = (1 - c - x + i sqrt((x - lm)(lp - x))) / (2 c x).  The real part
    is identity_hilbert, the imaginary part is pi times the density.
    """
    if x == 0.0:
        raise ValueError("boundary transform undefined at x = 0")
    lo, hi = model.lambda_minus, model.lambda_plus
    disc = max((x - lo) * (hi - x), 0.0)
    return complex(1.0 - model.c - x, math.sqrt(disc)) / (2.0 * model.c * x)


def mp_stieltjes(z: complex, model: MPModel) -> complex:
    """MP Stieltjes transform at z in the upper half-plane.

    Solves the quadratic c z m^2 - (1 - c - z) m + 1 = 0 and picks the root
    with positive imaginary part, the only one that is a Stieltjes transform.
    """
    z = complex(z)
    if z.imag <= 0.0:
        raise ValueError(f"argument must lie in the upper half-plane, got {z}")
    c = model.c
    b = 1.0 - c - z
    root = np.sqrt(b * b - 4.0 * c * z)
    m1 = (b + root) / (2.0 * c * z)
    m2 = (b - root) / (2.0 * c * z)
    return m1 if m1.imag > 0.0 else m2

