"""Generation cost families and their derivatives.

Costs are per-bus functions C_i(u_i) that share a common shape: there is a
convex "common" cost C_o and per-bus scalings zeta_i > 0 such that the
marginal cost satisfies  C_i'(u) = C_o'(zeta_i * u).  The supported families:

- power:          C_i(u) = (c_i / r) u^r + b_i      (r even, >= 2)
- quadratic:      the power family tagged with r = 2
- shifted_common: C_i(u) = (1 / r) u^r + b_i        (zeta_i = 1 for all i)

The common marginal y -> y^(r-1) is strictly increasing and has the analytic
inverse y -> sign(y) |y|^(1/(r-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_FAMILIES = ("power", "quadratic", "shifted_common")


class CostError(ValueError):
    pass


@dataclass(frozen=True)
class CostModel:
    family: str
    r: int
    c: np.ndarray   # per-bus leading coefficient (ones for shifted_common)
    b: np.ndarray   # per-bus constant offset

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise CostError(f"unknown cost family {self.family!r}")
        if self.r < 2 or self.r % 2 != 0:
            raise CostError("cost exponent r must be an even integer >= 2")
        if self.family == "quadratic" and self.r != 2:
            raise CostError("quadratic family requires r = 2")
        if not np.all(np.asarray(self.c) > 0):       # NaN fails too
            raise CostError("cost coefficients must be strictly positive "
                            "(strict convexity)")
        if not np.all(np.isfinite(self.b)):
            raise CostError("cost offsets b must be finite")
        if self.family == "shifted_common" and np.any(np.asarray(self.c) != 1.0):
            raise CostError("shifted_common family requires c = 1 on every bus")

    @cached_property
    def zeta(self):
        """Per-bus scaling in C_i'(u) = C_o'(zeta_i u) (ones for
        shifted_common, whose c is all ones)."""
        return self.c ** (1.0 / (self.r - 1))

    def values(self, u):
        """Per-bus cost C_i(u_i); u may carry leading batch dims."""
        u = np.asarray(u, dtype=float)
        return (self.c / self.r) * _power(u, self.r) + self.b

    def grad(self, u):
        """Marginal cost C_i'(u_i) = c_i u^(r-1)."""
        return self.c * _power(np.asarray(u, dtype=float), self.r - 1)

    def curvature(self, u):
        """Second derivative C_i''(u_i) = c_i (r-1) u^(r-2), nonnegative."""
        u = np.asarray(u, dtype=float)
        if self.r == 2:
            return np.broadcast_to(self.c, u.shape).astype(float)
        return self.c * (self.r - 1) * _power(u, self.r - 2)

    def grad_inverse(self, y):
        """Per-bus inverse of the marginal cost: u with C_i'(u) = y_i."""
        return self.common_grad_inverse(y) / self.zeta

    def common_grad(self, y):
        """Common marginal C_o'(y) = y^(r-1) (odd power, sign preserving)."""
        y = np.asarray(y, dtype=float)
        return y ** (self.r - 1)

    def common_grad_inverse(self, y):
        """Invert the common marginal: x with x^(r-1) = y, in closed form."""
        y = np.asarray(y, dtype=float)
        return np.sign(y) * np.abs(y) ** (1.0 / (self.r - 1))


def _power(u, k):
    """u**k for an integer k >= 1 by repeated multiplication: libm pow, which
    ** calls for exponents other than 2, is some twenty times slower."""
    out = u
    for _ in range(k - 1):
        out = out * u
    return out


def power_costs(r, c, b=None) -> CostModel:
    c = np.asarray(c, dtype=float)
    b = np.zeros_like(c) if b is None else np.asarray(b, dtype=float)
    family = "quadratic" if r == 2 else "power"
    return CostModel(family=family, r=int(r), c=c, b=b)


def quadratic_costs(c, b=None) -> CostModel:
    return power_costs(2, c, b)


def shifted_common_costs(r, n, b=None) -> CostModel:
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    return CostModel(family="shifted_common", r=int(r), c=np.ones(n), b=b)


def random_power_costs(n, rng, r=4) -> CostModel:
    """Random cost draw used throughout the experiments: c ~ U(0,1), b ~ U(0, 1e-3)."""
    c = rng.uniform(0.0, 1.0, size=n)
    b = rng.uniform(0.0, 1e-3, size=n)
    c = np.maximum(c, 1e-12)   # strict convexity even on a measure-zero draw
    return power_costs(r, c, b)
