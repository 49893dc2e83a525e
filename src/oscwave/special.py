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
# U_QUAD_POINTS nodes, or on as many more as keep the node step at most
# U_MAX_STEP; below U_SERIES_CUTOFF it substitutes the singular small-z
# form (only relevant for c > 1), whose relative error is O(z): a guard
# for arguments below any physical scale.  Against mpmath's hyperu the
# log-substituted integral is within 7e-14 relative for the three
# downstream families wherever it is used, for (1/2, 1/2) down to
# z = 1e-300; their node ranges stay under 270, so they always take
# U_QUAD_POINTS nodes.  Near c = 1 the integrand stays O(1) up to
# v ~ -ln z and then drops double-exponentially, while the node range
# grows like -ln z (to 740 at z = 1e-290), and a fixed 900 nodes stepped
# over the drop ever more coarsely (step 0.79 at 1e-290: relative error
# 9.9e-9 for (a, c) = (1, 1), 8.1e-11 for (0.99, 0.99)).  With the step
# capped at 0.3 both stay within 1.2e-14 from z = 1e-100 to 1e-300 (one z
# per decade), and within 5e-14 above
U_QUAD_POINTS = 900
U_MAX_STEP = 0.3
U_SERIES_CUTOFF = 1.0e-12

# most entries of one node table (1024 z at U_QUAD_POINTS nodes)
_U_BLOCK = 1024 * U_QUAD_POINTS

# below U_Z_FLOOR the node range stops at v = log(60/U_Z_FLOOR) = 694.9,
# where for c <= 1 the integrand has decayed only to e^{(c-1)v}; the tail
# cut off there stays below e^{-30} (~1e-13 of U) only for c <= U_C_MAX
U_Z_FLOOR = 1.0e-300
U_C_MAX = 1.0 - 30.0 / np.log(60.0 / U_Z_FLOOR)

# natural log of the largest double, less a margin for the rounding of
# lgamma, exp and the power in U's leading term near that bound
_LOG_MAX = math.log(np.finfo(float).max) - 1.0e-9


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


def _check_double_range(a, c, z):
    # for c > 1, U(a, c, z) ~ Gamma(c-1)/Gamma(a) z^{1-c} passes the largest
    # double as z falls below e^{log_over}; for c <= 1 it stays bounded as
    # z -> 0.  Compared in logs: that bound may be subnormal, with few bits
    if c <= 1.0:
        return
    log_over = (math.lgamma(c - 1.0) - math.lgamma(a) - _LOG_MAX) / (c - 1.0)
    with np.errstate(divide="ignore"):
        if np.any(np.log(z) < log_over):
            raise ValueError(
                f"U({a:g}, {c:g}, z) leaves the double range below "
                f"z = {math.exp(log_over):.4g}")


def tricomi_u_small_z(a, c, z):
    """Small-z behavior of U(a, c, z) for c > 1.

    The singular part is Gamma(c-1)/Gamma(a) * z^{1-c}.  For 1 < c < 2 the
    next contribution is the constant Gamma(1-c)/Gamma(a-c+1), and keeping
    it tightens the error from O(1) to O(z^{2-c}).
    """
    if c <= 1:
        raise ValueError("small-z singular form applies to c > 1 only")
    _check_double_range(a, c, z)
    ratio = math.gamma(c - 1.0) / math.gamma(a)
    if ratio < 1.0:
        # z^{1-c} alone would leave the double range before U does: apply
        # the ratio between its two halves
        half = z ** (0.5 * (1.0 - c))
        lead = ratio * half * half
    else:
        lead = ratio * z ** (1.0 - c)
    b = a - c + 1.0
    # at the poles b = 0, -1, -2, ... 1/Gamma(b) and the constant vanish
    if c < 2.0 and not (b <= 0 and b == int(b)):
        lead += math.gamma(1.0 - c) / math.gamma(b)
    return lead


def _u_integral(a, c, z):
    # substitute t = e^v; integrand e^{-z e^v + a v} (1+e^v)^{c-a-1} decays
    # exponentially as v -> -inf and double-exponentially as v -> +inf,
    # where the trapezoid rule converges geometrically.  Row k of a node
    # table serves z[k]; rows with equal node counts share a table, and
    # contiguous rows sum in numpy's pairwise order, so a z gives the same
    # bits alone or inside an array
    v_min = -42.0 / a - np.maximum(0.0, np.log(z))
    # 60/z overflows below z ~ 3e-307; the floor caps v_max at 694.9
    # there, above the clamp below for every c < 0.93
    v_max = np.log(60.0 / np.maximum(z, U_Z_FLOOR))
    if c < 1.0:
        # the algebraic factor alone already kills the integrand
        v_max = np.minimum(v_max, 48.0 / (1.0 - c))
    v_max = np.maximum(v_max, v_min + 1.0)
    nodes = np.maximum(U_QUAD_POINTS,
                       np.ceil((v_max - v_min) / U_MAX_STEP).astype(int) + 1)
    out = np.empty(z.shape)
    for m in np.unique(nodes):
        rows = np.flatnonzero(nodes == m)
        # blocks of at most _U_BLOCK table entries bound the memory
        for block in np.array_split(rows, rows.size * m // _U_BLOCK + 1):
            v = np.ascontiguousarray(
                np.linspace(v_min[block], v_max[block], m, axis=-1))
            ev = np.exp(v)
            integrand = np.exp(-z[block, None] * ev + a * v
                               + (c - a - 1.0) * np.log1p(ev))
            dv = v[:, 1] - v[:, 0]
            out[block] = dv * (np.sum(integrand, axis=-1)
                               - 0.5 * (integrand[:, 0] + integrand[:, -1]))
    return out / math.gamma(a)


def tricomi_u(a, c, z):
    """Tricomi confluent hypergeometric U(a, c, z) for a > 0, z > 0.

    z may be a scalar (the result is a float) or an array of any shape.
    Relative accuracy against mpmath: within 7e-14 for the families
    (1, 3/2), (1/2, 1/2) and (2, 5/2) down to U_SERIES_CUTOFF (for c <= 1
    down to z = 1e-300), and O(z) below it for c > 1.  The trapezoid rule
    takes at least 900 nodes and steps at most 0.3 through a range that
    grows like -ln z, so (1, 1) and (0.99, 0.99) stay within 5e-14 down
    to z = 1e-300 as well.  For c > 1, U ~ Gamma(c-1)/Gamma(a) z^{1-c}
    leaves the double range at small z; such z raise a ValueError that
    names the bound (about 2.9e-206 for (2, 5/2)).
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
    _check_double_range(a, c, z)
    # below the cutoff the small-z form replaces the integral, which is
    # then not evaluated at all (its node range overflows near 1e-307)
    small = (z < U_SERIES_CUTOFF) & (c > 1.0)
    out = np.empty(z.shape)
    if np.any(small):
        out[small] = tricomi_u_small_z(a, c, z[small])
    out[~small] = _u_integral(a, c, z[~small])
    return float(out) if out.ndim == 0 else out


def tricomi_u_deriv(a, c, z):
    """dU/dz through the contiguous relation dU(a,c,z)/dz = -a U(a+1, c+1, z)."""
    return -a * tricomi_u(a + 1.0, c + 1.0, z)
