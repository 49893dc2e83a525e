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

# tricomi_u integrates by the trapezoid rule in v = log t, each z on its
# own grid: 64 intervals to start, then the step halves until two
# successive sums agree to _U_TOL relative.  The rule converges
# geometrically on this integrand (Trefethen & Weideman, SIAM Rev. 56,
# 2014), so the difference of two sums bounds the coarser one's error and
# the finer sum is then exact to rounding.  Against mpmath's hyperu the
# five families (1, 3/2), (1/2, 1/2), (2, 5/2), (1, 1) and (0.99, 0.99)
# are within 2.8e-15 relative on z in [1e-12, 300], and c <= 1 within
# 3.2e-16 down to the smallest double, except a = 2 near c = 1 (2.2e-14 at
# c = 0.99), where a v + (c-a-1) log(1+e^v) cancels.  The step is the
# range over the interval count: a difference of two nodes near |v| ~ 40
# would cost two digits.
#
# Below U_SERIES_CUTOFF, for c > 1, the singular small-z form replaces the
# integral: its relative error is O(z), so it is exact in double there, it
# costs O(1) where the node range grows like -log z, and it reaches the
# edge of the double range, where the integrand's sum, which carries
# U's z^{1-c} scale times Gamma(a), overflows first
U_SERIES_CUTOFF = 1.0e-12
_U_TOL = 1.0e-13

# most entries of one node table; a z whose next row of midpoints alone
# would pass it has not converged, and the call is refused.  Only a z whose
# node range spans thousands of units of v (a below about 1e-3) comes near
# it: a = 1e-4 converges, a = 3e-5 does not
_U_BLOCK = 1 << 20

# about how many node entries one pass over the integrand evaluates:
# whole rows, at least one, so each row sums in the same pairwise order
# whatever the block, and the block size cannot change a bit.  With the
# integrand built in place on three block buffers (_u_sums), a
# tricomi_u(1, 1.5, z) call on c08's 1000 z peaks at 0.64 MB (0.77 MB with
# a new array per operation; 8.3 MB with blocks of up to _U_BLOCK
# entries).  c08 alone, medians of 40 runs (2 CPUs, numpy 2.4): 8.8 ms at
# blocks of 2^13 entries, 8.2 at 2^14, 8.1 at 2^15 (peak 1.0 MB), 8.2-8.4
# at 2^16 and 8.8-9.5 at 2^17
_U_SUM_BLOCK = 1 << 14

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
    # math.erfc mapped over the values: np.vectorize made the same calls,
    # in 35 us where this takes 27 us at 256 arguments
    std = np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size)
    out = (SQRT_PI / 2.0) * std.reshape(z.shape)
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


def _u_reach(a, c):
    """The w = z e^v at which the integrand's node range ends: 60, or past
    its peak by 40 e-folds where that lies further out.

    The log-integrand's slope in v is -w + a + (c-a-1) e^v/(1+e^v), at most
    K - w with K = max(a, c-1).  So it peaks at w <= K and, past w = K, it
    has fallen by at least D(w) = w - K - K log(w/K).  D(60) >= 40 for
    K <= 6, which covers every (a, c) the package calls (K <= 3).
    """
    K = max(a, c - 1.0)
    # D is convex and increasing past K, so Newton's steps from a w with
    # D(w) >= 40 (from log(1+x) <= x(2+x)/(2(1+x))) fall to its root
    w = K + 40.0 + math.sqrt(1600.0 + 80.0 * K)
    while True:
        step = (w - K - K * (math.log(w) - math.log(K)) - 40.0) / (1.0 - K / w)
        w -= step
        if step <= 1.0e-12 * w:
            return max(60.0, w)


def _u_sums(a, c, log_z, v_min, width, s):
    # sums of the integrand over v = v_min + width * s, one row per z, in
    # blocks of about _U_SUM_BLOCK entries.  z e^v is e^{log z + v} and
    # log(1+e^v) is max(v, 0) + log1p(e^{-|v|}): neither overflows.  The
    # integrand e^{-z e^v + a v + (c-a-1) log(1+e^v)} is built in place on
    # three block buffers, each operation in the order of that formula
    step = max(1, _U_SUM_BLOCK // s.size)
    out = np.empty(log_z.size)
    buffers = np.empty((3, min(step, log_z.size), s.size))
    for i in range(0, log_z.size, step):
        b = slice(i, i + step)
        v, t, e = buffers[:, :min(step, log_z.size - i)]
        np.multiply(width[b, None], s, out=v)
        v += v_min[b, None]
        # t = (c-a-1) log(1+e^v)
        np.abs(v, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        t += np.maximum(v, 0.0, out=e)
        t *= c - a - 1.0
        # e = -z e^v + a v + t
        np.add(log_z[b, None], v, out=e)
        np.exp(e, out=e)
        np.negative(e, out=e)
        v *= a
        e += v
        e += t
        out[b] = np.sum(np.exp(e, out=e), axis=-1)
    return out


def _u_integral(a, c, z):
    # substitute t = e^v; the integrand e^{-z e^v + a v} (1+e^v)^{c-a-1}
    # decays exponentially as v -> -inf and double-exponentially as
    # v -> +inf.  Each halving adds only the new midpoints, and each row
    # stops on its own, so a z gives the same bits alone or inside an array
    log_z = np.log(z)
    v_min = -42.0 / a - np.maximum(0.0, log_z)
    # z e^v = w there (_u_reach)
    v_max = math.log(_u_reach(a, c)) - log_z
    if c < 1.0:
        # the algebraic factor alone already kills the integrand
        v_max = np.minimum(v_max, 48.0 / (1.0 - c))
    width = np.maximum(v_max - v_min, 1.0)
    # -42/a overflows at a ~ 1e-308: no sum over that range can converge
    if not np.isfinite(width).all():
        raise ValueError(f"the trapezoid sum of U({a:g}, {c:g}, z) does not converge "
                         f"at z = {z[~np.isfinite(width)][0]:.4g}: its node range "
                         "-42/a overflows")

    rows = np.arange(z.size)

    def sums(s):
        # the integrand's sums over v_min + width * s for the rows left
        return _u_sums(a, c, log_z[rows], v_min[rows], width[rows], s)

    n = 64
    out = np.empty(z.shape)
    # a sum whose integrand passes the largest double reads inf (and its
    # difference nan): its row stops at once, and the call is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        # the ends weigh 1/2
        total = sums(np.arange(1, n) / n) + 0.5 * sums(np.array([0.0, 1.0]))
        while rows.size:
            mids = sums(np.arange(1, 2 * n, 2) / (2 * n))
            # the sums are positive; a subnormal one has no relative accuracy
            done = abs(mids - total) <= _U_TOL * (mids + total) + np.finfo(float).tiny
            total += mids
            n *= 2
            done |= np.isinf(total)
            if n > _U_BLOCK and not done.all():
                raise ValueError(f"the trapezoid sum of U({a:g}, {c:g}, z) does not "
                                 f"converge at z = {z[rows[~done][0]]:.4g}")
            out[rows[done]] = width[rows[done]] / n * total[done]
            rows, total = rows[~done], total[~done]
    if np.isinf(out).any():
        raise ValueError(f"the integrand of U({a:g}, {c:g}, z) passes the largest "
                         f"double at z = {z[np.isinf(out)][0]:.4g}")
    return out / math.gamma(a)


def tricomi_u(a, c, z):
    """Tricomi confluent hypergeometric U(a, c, z) for a > 0, z > 0.

    z may be a scalar (the result is a float) or an array of any shape.
    The trapezoid rule in v = log t halves each z's step until two
    successive sums agree to 1e-13 relative, over a node range that reaches
    z e^v = 60 at every positive double, or further where a or c is large
    enough to put the integrand's peak near there (_u_reach).  Relative
    accuracy against mpmath:
    within 2.8e-15 for the families (1, 3/2), (1/2, 1/2), (2, 5/2), (1, 1)
    and (0.99, 0.99) on z in [1e-12, 300], and for c <= 1 within 2.2e-14
    down to the smallest double; O(z) below U_SERIES_CUTOFF for c > 1,
    where the small-z form replaces the integral.  For c > 1,
    U ~ Gamma(c-1)/Gamma(a) z^{1-c} leaves the double range at small z;
    such z raise a ValueError that names the bound (about 2.9e-206 for
    (2, 5/2)).  For a and c up to 250 the error measured at most 1.0e-13
    on z in [1e-3, 300]; a call whose Gamma(a) or integrand passes the
    largest double (a past 171.6, or a and c near 100 at small z) raises a
    ValueError that says so, as does a call whose sum does not converge
    within 2^20 nodes (a below about 1e-4; near a = 1e-308, where the node
    range overflows, before any sum).  A z gives the same bits alone
    or inside any array.
    """
    a = float(a)
    c = float(c)
    if a <= 0:
        raise ValueError("integral representation needs a > 0")
    if math.lgamma(a) > _LOG_MAX:
        raise ValueError(f"Gamma({a:g}) in U's integral representation passes the "
                         "largest double")
    z = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(z)) or np.any(z <= 0):
        raise ValueError("tricomi_u needs z > 0")
    _check_double_range(a, c, z)
    # below the cutoff the small-z form replaces the integral, which is
    # then not evaluated at all
    small = (z < U_SERIES_CUTOFF) & (c > 1.0)
    out = np.empty(z.shape)
    if np.any(small):
        out[small] = tricomi_u_small_z(a, c, z[small])
    out[~small] = _u_integral(a, c, z[~small])
    return float(out) if out.ndim == 0 else out


def tricomi_u_deriv(a, c, z):
    """dU/dz through the contiguous relation dU(a,c,z)/dz = -a U(a+1, c+1, z)."""
    return -a * tricomi_u(a + 1.0, c + 1.0, z)
