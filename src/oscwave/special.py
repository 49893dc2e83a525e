"""Gaussian-normalized complementary error function and Tricomi's U.

Two conventions to be aware of:

* ``erfc_paper(z)`` is the bare Gaussian tail integral_z^inf e^{-t^2} dt,
  i.e. (sqrt(pi)/2) times the standard erfc.  All closed-form propagator
  weights in this library are written against this normalization.
* ``tricomi_u(a, c, z)`` is the z -> infinity recessive solution of
  Kummer's equation, evaluated through its real integral representation
  U(a,c,z) = (1/Gamma(a)) integral_0^inf e^{-zt} t^{a-1} (1+t)^{c-a-1} dt,
  valid for a > 0, z > 0.  The parameter families used downstream are
  (1, 3/2), (1/2, 1/2) and (2, 5/2).

U is singular at z = 0 when c > 1 (it behaves like
Gamma(c-1)/Gamma(a) * z^{1-c}); use ``tricomi_u_small_z`` for that limit.
"""

import math

import numpy as np

__all__ = [
    "erfc_paper",
    "tricomi_u",
    "tricomi_u_deriv",
    "tricomi_u_small_z",
]

SQRT_PI = np.sqrt(np.pi)

# the standard erfc, elementwise over an array
_erfc_std = np.vectorize(math.erfc, otypes=[float])

# tricomi_u evaluates the integral representation by the trapezoid rule on
# U_QUAD_POINTS nodes; below U_SERIES_CUTOFF it substitutes the singular
# small-z form (only relevant for c > 1), whose relative error is O(z): a
# guard for arguments below any physical scale.  Against mpmath's hyperu
# the log-substituted integral is within 7e-14 relative for the three
# downstream families wherever it is used, for (1/2, 1/2) down to
# z = 1e-300.  Near c = 1 it loses digits at tiny z: the integrand stays
# O(1) up to v ~ -ln z and then drops double-exponentially, while the node
# range grows like -ln z, so the fixed node count steps over the drop ever
# more coarsely (step 0.79 at z = 1e-290).  Relative errors for
# (a, c) = (1, 1): 1.8e-15 at z = 1e-100, 6.1e-11 at 1e-200, 9.9e-9 at
# 1e-290; for (0.99, 0.99) at 1e-290: 8.1e-11
U_QUAD_POINTS = 900
U_SERIES_CUTOFF = 1.0e-12

# most z values integrated in one node table (U_QUAD_POINTS doubles each)
_U_BLOCK = 1024

# below U_Z_FLOOR the node range stops at v = log(60/U_Z_FLOOR) = 694.9,
# where for c <= 1 the integrand has decayed only to e^{(c-1)v}; the tail
# cut off there stays below e^{-30} (~1e-13 of U) only for c <= U_C_MAX
U_Z_FLOOR = 1.0e-300
U_C_MAX = 1.0 - 30.0 / np.log(60.0 / U_Z_FLOOR)


def erfc_paper(z):
    """Gaussian tail integral_z^inf e^{-t^2} dt for z >= 0.

    Equals (sqrt(pi)/2) * erfc(z) in the standard normalization.
    Accepts scalars or arrays; rejects negative or non-finite input.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("erfc_paper needs finite arguments")
    if np.any(z < 0):
        raise ValueError("erfc_paper is defined here for z >= 0 only")
    out = (SQRT_PI / 2.0) * _erfc_std(z)
    return float(out) if out.ndim == 0 else out


def tricomi_u_small_z(a, c, z):
    """Small-z behavior of U(a, c, z) for c > 1.

    The singular part is Gamma(c-1)/Gamma(a) * z^{1-c}.  For 1 < c < 2 the
    next contribution is the constant Gamma(1-c)/Gamma(a-c+1), and keeping
    it tightens the error from O(1) to O(z^{2-c}).
    """
    if c <= 1:
        raise ValueError("small-z singular form applies to c > 1 only")
    lead = math.gamma(c - 1.0) / math.gamma(a) * z ** (1.0 - c)
    b = a - c + 1.0
    # at the poles b = 0, -1, -2, ... 1/Gamma(b) and the constant vanish
    if c < 2.0 and not (b <= 0 and b == int(b)):
        lead += math.gamma(1.0 - c) / math.gamma(b)
    return lead


def _u_integral(a, c, z):
    # substitute t = e^v; integrand e^{-z e^v + a v} (1+e^v)^{c-a-1} decays
    # exponentially as v -> -inf and double-exponentially as v -> +inf,
    # where the trapezoid rule converges geometrically.  Row k of the node
    # table serves z[k]; contiguous rows sum in numpy's pairwise order, so
    # a z gives the same bits alone or inside an array
    v_min = -42.0 / a - np.maximum(0.0, np.log(z))
    # 60/z overflows below z ~ 3e-307; the floor caps v_max at 694.9
    # there, above the clamp below for every c < 0.93
    v_max = np.log(60.0 / np.maximum(z, U_Z_FLOOR))
    if c < 1.0:
        # the algebraic factor alone already kills the integrand
        v_max = np.minimum(v_max, 48.0 / (1.0 - c))
    v_max = np.maximum(v_max, v_min + 1.0)
    v = np.ascontiguousarray(np.linspace(v_min, v_max, U_QUAD_POINTS, axis=-1))
    ev = np.exp(v)
    integrand = np.exp(-z[:, None] * ev + a * v + (c - a - 1.0) * np.log1p(ev))
    dv = v[:, 1] - v[:, 0]
    total = dv * (np.sum(integrand, axis=-1)
                  - 0.5 * (integrand[:, 0] + integrand[:, -1]))
    return total / math.gamma(a)


def tricomi_u(a, c, z):
    """Tricomi confluent hypergeometric U(a, c, z) for a > 0, z > 0.

    z may be a scalar (the result is a float) or an array of any shape.
    Relative accuracy against mpmath: within 7e-14 for the families
    (1, 3/2), (1/2, 1/2) and (2, 5/2) down to U_SERIES_CUTOFF (for c <= 1
    down to z = 1e-300), and O(z) below it for c > 1.  Near c = 1 the
    900-node trapezoid rule spans a range that grows like -ln z, so tiny
    z loses digits: for (1, 1) 1.8e-15 at z = 1e-100, 6.1e-11 at 1e-200
    and 9.9e-9 at 1e-290; for (0.99, 0.99) 8.1e-11 at 1e-290.
    """
    a = float(a)
    c = float(c)
    if a <= 0:
        raise ValueError("integral representation needs a > 0")
    z = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(z)) or np.any(z <= 0):
        raise ValueError("tricomi_u needs z > 0")
    if U_C_MAX < c <= 1.0 and np.any(z < U_Z_FLOOR):
        raise ValueError(
            f"tricomi_u is not supported for {U_C_MAX:.4f} < c <= 1 at "
            f"z < {U_Z_FLOOR:g} (got c = {c:g}): the integral's node range "
            "would cut off its slowly decaying tail")
    # below the cutoff the small-z form replaces the integral, which is
    # then not evaluated at all (its node range overflows near 1e-307)
    small = (z < U_SERIES_CUTOFF) & (c > 1.0)
    out = np.empty(z.shape)
    if np.any(small):
        out[small] = tricomi_u_small_z(a, c, z[small])
    rest = z[~small]
    # blocks of at most _U_BLOCK z bound the node table's memory
    out[~small] = np.concatenate([
        _u_integral(a, c, block)
        for block in np.array_split(rest, rest.size // _U_BLOCK + 1)])
    return float(out) if out.ndim == 0 else out


def tricomi_u_deriv(a, c, z):
    """dU/dz through the contiguous relation dU(a,c,z)/dz = -a U(a+1, c+1, z)."""
    return -a * tricomi_u(a + 1.0, c + 1.0, z)
