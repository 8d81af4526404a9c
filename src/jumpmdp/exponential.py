"""ETDRK4, the exponential RK4 of Cox & Matthews (J. Comput. Phys. 176, 2002).

For x' = L x + N(x) with a diagonal L, the step treats L x exactly and N
explicitly, so the stiffness of L sets no step limit.  jump_sde imports this
module only when a model declares its linear part, so a run of any other
model neither loads nor, without a bytecode cache, compiles it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["phi_coefficients", "etdrk4_step"]


# Below |z| = 1 the phi functions are summed from 18 Taylor terms (the first
# omitted one is below 1e-16 of the sum there); above it the direct formulas
# lose less than 1e-14 to cancellation.
_PHI_SWITCH = 1.0
_PHI_TERMS = 18
# Taylor coefficients, lowest order first: phi1(z) = sum z^n / (n+1)!, and
# f_i / h = sum c_n z^n / (n+3)! with c_n = (n+1)^2, n+1 and 1-n for f1, f2, f3
_PHI_SERIES = tuple(
    np.array([num(n) / math.factorial(n + shift) for n in range(_PHI_TERMS)])
    for num, shift in (
        (lambda n: 1, 1),
        (lambda n: (n + 1) ** 2, 3),
        (lambda n: n + 1, 3),
        (lambda n: 1 - n, 3),
    )
)


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out


def phi_coefficients(h, linear: np.ndarray) -> tuple[np.ndarray, ...]:
    """(E, E2, Q, f1, f2, f3) of the ETDRK4 step of length h, elementwise in z = h L.

    E = e^z, E2 = e^{z/2}, Q = h phi1(z/2) / 2 and
    f1 = h (-4 - z + e^z (4 - 3z + z^2)) / z^3,
    f2 = h (2 + z + e^z (z - 2)) / z^3,
    f3 = h (-4 - 3z - z^2 + e^z (4 - z)) / z^3
    (Cox & Matthews 2002).  The direct formulas cancel as z -> 0 (Kassam &
    Trefethen 2005), so below |z| = _PHI_SWITCH each is its Taylor series.
    h broadcasts against linear; every entry depends on its own z alone.
    """
    h = np.asarray(h, dtype=float)
    z = h * linear
    e, e2 = np.exp(z), np.exp(0.5 * z)

    def split(w):
        # Taylor arguments (0 off the series) and direct ones (1 on it, off w = 0)
        small = np.abs(w) < _PHI_SWITCH
        return small, np.where(small, w, 0.0), np.where(small, 1.0, w)

    small, zs, zd = split(z)
    z3 = zd**3
    direct = (
        (-4.0 - zd + e * (4.0 - 3.0 * zd + zd * zd)) / z3,
        (2.0 + zd + e * (zd - 2.0)) / z3,
        (-4.0 - 3.0 * zd - zd * zd + e * (4.0 - zd)) / z3,
    )
    f1, f2, f3 = (
        h * np.where(small, _horner(series, zs), d) for series, d in zip(_PHI_SERIES[1:], direct)
    )
    small, ws, wd = split(0.5 * z)
    q = 0.5 * h * np.where(small, _horner(_PHI_SERIES[0], ws), np.expm1(wd) / wd)
    return e, e2, q, f1, f2, f3


def etdrk4_step(n: Callable, x: np.ndarray, e, e2, q, f1, f2, f3) -> np.ndarray:
    """One ETDRK4 step of x' = L x + n(x), coefficients from phi_coefficients.

    With L = 0 it is classical RK4 in exact arithmetic.
    """
    nx = n(x)
    a = e2 * x + q * nx
    na = n(a)
    b = e2 * x + q * na
    nb = n(b)
    c = e2 * a + q * (2.0 * nb - nx)
    return e * x + f1 * nx + 2.0 * f2 * (na + nb) + f3 * n(c)
