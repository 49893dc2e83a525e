"""Fourier-side transform conjugating the oscillator to the derivative operator.

For coupling a > 0, damp by the ground-state Gaussian, Fourier transform, and
read the spectrum along the exponential frequency curve xi = +-e^{-2aX} with
the weight sqrt(|xi|) e^{xi^2/4a}:

    (T phi)(X) = weight(xi) * F[e^{-ax^2/2} phi](xi)   at   xi = +-e^{-2aX}.

T turns d^2/dx^2 - a^2 x^2 into plain d/dX.  The frequency curve is two-to-one
in xi, so the image is a pair of functions of X, one per sign of xi
(:class:`BranchPair`); the inverse recombines both branches.

Numerical plan, chosen to survive the weight's super-exponential growth:

* The damped spectrum is evaluated by exact phase sums at the exponentially
  spaced frequencies, never by interpolating FFT output near the spectral
  edge, where the weight ratio between neighboring samples can reach e^9.
  The sums split by frequency, with R = h(n-1)/2 the x grid's half-width
  (_phase_tables):
  - rows with |xi| R > _RHO = 0.1: the x grid is uniform, so about its
    middle node x_mid = x0 + h (n-1)//2 the phase of x_mid + h (mJ + r),
    m = 2 half + 1 ~ sqrt(n) and |r| <= half, factors into e^{-i xi x_mid},
    a factor in J and one in r.  cos is even and sin odd, so the tables
    hold the real cos and sin at J, r >= 0 only: about sqrt(n) pairs a row
    (47 at n = 2048, where complex tables over every J and r held 91
    entries).  With the data folded into sums and differences of mirrored
    entries, each direction is two real matrix products on interleaved
    (Re, Im) columns that give both signs of xi at once, about a quarter
    of the complex products' flops: the separable, exact counterpart of a
    nonuniform FFT, with no spreading kernel and no tolerance floor.
  - rows with |xi| R <= _RHO: with x_c the grid centre and u_j =
    (x_j - x_c)/R in [-1, 1], e^{-i xi x_j} = e^{-i xi x_c}
    sum_{p<P} (-i xi R)^p/p! u_j^p, short of at most _RHO^P/P!; P is the
    first term count that puts this under an eighth of a rounding (P = 11,
    2.5e-19).  The terms sum to at most e^{_RHO} in size, so nothing
    cancels.  A forward sum is then one n x P moment product, shared by
    all these rows, and one (rows x P) @ (P x 2) product; an inverse is
    the same two products in the other order.  derive_params runs X to
    where xi = e^{-37}, so on the CLI's windows about 81% of the rows are
    of this kind and need no trig table.
  Against a long-double direct sum, xi from 0.95 Nyquist to e^{-37} on
  [-12, 12) (n = 512), [20.5, 61.3) (2048) and [-37.3, 41.9) (4099),
  complex data: per row within 3.8e-17 h/sqrt(2pi) sum|v| forward (either
  kind of row) and 5.7e-17 sum|c| inverse, where complex tables over every
  J and r measured 4.4e-17 and 7.1e-17.  With every row through the
  tables the inverse reads 1.4e-16 (complex tables: 7.0e-17); the excess
  lies in the rows the moment expansion serves (1.5e-16 against 9.1e-17
  with data on those rows alone), while data on the other rows alone reads
  1.1e-16 to 1.6e-16 (0.9e-16 to 1.4e-16).  The window (IntertwineParams)
  builds its tables once, so forward and inverse share them.  The
  conjugated heat flow reads the spectrum at the contracted nodes
  e^{-2a(X + t)}; with the X step aligned to t these are rows of the same
  set, so a heat call builds one set too (_transport_rows).
* The forward sums take k functions at once as an n x k block: the data's
  (Re, Im) pairs interleave over the columns, so each product above
  widens by k and the tables are read once for all k.  n samples are the
  n x 1 block of the same code, bit for bit.  intertwine_residuals sums
  both sides of the identity for all its functions this way, and runs
  its FFTs over all columns at once.  On c04's windows (512 rows, all
  high, n = 2048; 2 CPUs, numpy 2.4, OpenBLAS 0.3.31) one 8-column sum
  takes 0.95 ms where eight 1-column sums took 1.4 ms, and a table set
  with no low rows skips the moment product.
* The inverse de-weights pointwise (exact) and integrates the substitution
  form (1/sqrt(2pi)) integral 2a xi G(+-xi(X)) e^{+-i xi x} dX by the
  trapezoid rule in X.  The integrand decays at both ends (spectral tail on
  one side, the xi factor on the other), where the trapezoid rule is
  spectrally accurate.  Its high rows' product is summed in blocks small
  enough for OpenBLAS to run each on one thread, so the inverse has the
  same bits at any thread count (_inverse_phase_sums).
* The final multiplication by e^{+ax^2/2} amplifies any noise in the damped
  reconstruction by up to e^{ax^2/2}; values below a noise floor are zeroed
  first (mask_floor; see apply_T_inverse).
* apply_T is the one guarded entry: it refuses data whose damped spectrum
  has not decayed by the top frequency of the window it is given.  The
  conjugated routes (oscillator) take their window from derive_params,
  which covers 1.5 times the data's last live frequency, so they skip the
  guard and its second FFT and forward the damped data once through the
  unguarded core, _branch_transform.
"""

from dataclasses import dataclass
from typing import NamedTuple

import functools
import itertools
import math
import warnings

import numpy as np

from .fourier import SQRT_2PI, _transform, _xi_grid_for, forward_ft
from .grids import (Grid1D, SampledFunction, _centered_d, _two_prod, make_grid,
                    make_report)

__all__ = [
    "IntertwineParams",
    "BranchPair",
    "weight",
    "apply_T",
    "apply_T_inverse",
    "intertwine_residual",
    "intertwine_residuals",
    "derive_params",
    "oscillator_apply",
]

# spectral tail below this fraction of the peak counts as decayed (the
# admissible-data precondition)
SA_DECAY = 1.0e-10
# spectrum values below this fraction of the peak are treated as zero so
# the weight cannot blow sub-roundoff junk up into the branches; the phase
# sums are good to a few 1e-16 of the peak, so anything under 1e-16 is noise
SPECTRAL_CAP = 1.0e-16
# largest exponent allowed inside the weight
MAX_WEIGHT_EXPONENT = 700.0
# derive_params ends the X window at X_EXTENT / a, where the frequency
# curve e^{-2aX} = e^{-37} has reached the double-precision floor
X_EXTENT = 18.5
# nodes of every derived X window; the inverse's trapezoid rule in X converges
# geometrically, and the tests' tuned round trips measure <= 7.8e-9 here
X_NODES = 4096
# pass/fail bound of intertwine_residual's relative L2 metric
RESIDUAL_TOL = 1.0e-5

# The inverse ends with a multiplication by e^{ax^2/2}, which amplifies any
# noise in the phase sums by up to ~1e8 before the mask cuts in.  The table
# arguments run to thousands of rad, so rounding one to double costs ~1e-12
# in its entry; with such arguments c11's informational
# oscillator_wave_vs_oracle_t0.1 reads 7.3 instead of 0.41.  So the tables
# are built in plain double from exact products, on every platform, and
# only for the rows with |xi| R > _RHO (the rest expand in moments; see
# the module docstring):
# * Step angles.  Each row's steps xi x0, xi h (n-1)//2, xi h m and xi h
#   are exact Dekker products (_two_prod; h (n-1)//2 and h m are exact
#   products too), times a two-double 1/2pi, reduced mod one turn to a
#   64-bit fixed-point fraction (_turns); the middle node's angle is the
#   uint64 sum of the first two.  An entry's angle is then an exact uint64
#   product, row step times column index, whose wrap-around mod 2^64 is
#   exact reduction mod 2pi.  The coarse step is reduced from xi h m
#   itself: m times the fine step in uint64 would multiply the fine step's
#   rounding by up to n.  A low row's centre phase e^{-i xi x_c} takes the
#   same path with x_c for x0.
# * Entry angles.  Each entry's int64 turn count times a two-double 2pi/2^64
#   is formed exactly and rounded once to radians (_unit_phase), in blocks
#   of rows that stay in cache; the real cos and sin follow, at J, r >= 0.
# Measured on 2 CPUs (numpy 2.4, OpenBLAS 0.3.31), complex tables over every
# J and r -> cos and sin at J, r >= 0:
#   worst entry error against mpmath, 500 sampled entries per table of
#   either index sign on [-37.3, 41.9) (n = 4099), [20.5, 61.3) (2048) and
#   [-12, 12) (512): mid, coarse, fine 3.1e-16 each, one rounding
#   one set for the 4130 rows of a heat window on [-12, 12) (a = 1,
#   t = 0.4; 788 rows high), medians of 30 builds in one process, two
#   alternating processes a side: n = 512: 1.60 -> 0.93 ms; n = 2048:
#   2.36-2.37 -> 1.74-1.75 ms; c04's 512 rows, all high, at n = 2048:
#   1.60-1.61 -> 1.11-1.12 ms, and its forward sum 0.32 -> 0.22 ms
#   c11's t = 0.1 and 0.5 rows: 0.41 either way, and 5.78e21 -> 3.85e21,
#   summation noise amplified by e^{ax^2/2} (it spans 5.38e21 to 5.78e21
#   over OpenBLAS's kernels with the complex tables)
# The same build with its angles formed in place (_unit_phase) and the low
# rows' tables by running products on contiguous buffers
# (_moment_expansion) in place of np.cumprod and np.vander along their
# 11-wide axis: the same operations in the same order, so the same bits.
# Medians of 60 builds, four alternating processes a side (2 CPUs, numpy
# 2.4): the 4130 rows of a heat window at n = 2048 2.58 -> 2.31 ms, c04's
# 512 rows at n = 2048 1.39 -> 1.21 ms.  cos and sin are now most of a
# build (_unit_phase).
# The low rows keep their bits: their moment product stays complex, with
# powers stored complex once per set instead of cast on every product (a
# real (Re, Im) product there read 1.3e-17 to 2.9e-17 sum|v| per row
# against 1.2e-17 to 2.0e-17, n = 500 to 2048).  The forward sum over J is
# one batched matmul: an einsum took 131 us a c04 call where it takes
# 64 us (numpy 2's vecdot takes 45 us, but the package supports numpy
# 1.24).
# Rejected: rounding each entry as int64 turns times the double nearest
# 2pi/2^64.  That double sits 3.9e-17 below the true value, so every angle
# shrinks by the same factor, and e^{ax^2/2} turns the bias into errors of
# the conjugated wave route (max deviation over |x| <= 9 from the 128-mode
# oracle, as a multiple of its peak): 187 instead of 0.53 on CI's data at
# a = 0.5, t = 0.4, and 1.8e20 instead of 0.29 on a seed-1 eight-mode mix
# at a = 2, t = 0.05.  The mpmath entry test does not see it (<= 8e-16);
# test_conjugated_wave_keeps_its_phase_tables_unbiased does.  Also
# rejected earlier: building the coarse table as products of two smaller
# trig tables raised the odd-data round trip to 8.2e-9; the complex exp
# took 16.3 ms where cos and sin take 8.0 ms on the 373k entries of one
# n = 2048 set.  The sums are accumulated in double by BLAS: summing the
# same tables' terms in long double measured no better on the three tuned
# round trips.

# rows whose |xi| R (R the x grid's half-width) is at most this sum through
# a short moment expansion instead of trig tables
_RHO = 0.1
# multiply-adds of one block of the inverse's high-row product, under the
# size OpenBLAS runs on one thread (_inverse_phase_sums)
_INVERSE_BLOCK = 2**17

# 1/2pi and 2pi/2^64 (the radians of one fixed-point unit of a turn), each
# an unevaluated sum of two doubles
_INV_2PI = (0.15915494309189535, -9.839338337591243e-18)
_RAD_PER_UNIT = (2.0 * math.pi / 2.0**64, 2.4492935982947064e-16 / 2.0**64)


def _veltkamp(c):
    """The Veltkamp split (c1, c2) of a double c that _two_prod makes of a
    factor: c1 + c2 = c, each with at most 26 significant bits."""
    cc = 134217729.0 * c
    c1 = cc - (cc - c)
    return c1, c - c1


# _RAD_PER_UNIT[0] split once, for _unit_phase's products
_RAD_SPLIT = _veltkamp(_RAD_PER_UNIT[0])


def _turns(hi, lo):
    """Angles hi + lo (rad, two doubles) as uint64 fractions of a turn."""
    t, e = _two_prod(hi, _INV_2PI[0])
    # t and the rest, each reduced mod one turn apart (the rest alone passes
    # 2^63 units once |t| >= 2^52); +2^63 units wraps to -2^63
    f = np.array([t, e + (lo * _INV_2PI[0] + hi * _INV_2PI[1])])
    u = np.rint((f - np.rint(f)) * 2.0**64)
    u = np.where(u < 2.0**63, u, -(2.0**63)).astype(np.int64).view(np.uint64)
    return u[0] + u[1]


def _unit_phase(turns):
    """cos theta and sin theta for fixed-point turns theta, each angle
    rounded once to radians, side by side on a new axis 1: out[:, 0] is the
    real part of e^{-i theta} and out[:, 1] minus its imaginary part."""
    out = np.empty(turns.shape[:1] + (2,) + turns.shape[1:])
    # row blocks of about 8192 entries, each worked in place on five
    # buffers that stay in cache: 1.53 -> 1.09 ms on 769 x 46 turns against
    # a new array per operation.  What is left is mostly cos and sin, about
    # 10 ns an entry on [-pi, pi] against 0.9 ns for exp (2 CPUs, numpy
    # 2.4).  Rejected: a polynomial in numpy in their place; twelve Horner
    # steps in theta^2 alone, before any range reduction or sin, took 7.2 ns
    # an entry
    blocks = max(1, turns.size // 8192)
    row = math.prod(turns.shape[1:])
    buffers = np.empty((5, -(-turns.shape[0] // blocks) * row))
    c1, c2 = _RAD_SPLIT
    for k, part in zip(np.array_split(turns.view(np.int64), blocks),
                       np.array_split(out, blocks)):
        hi, theta, a1, a2, e = (b[:k.size].reshape(k.shape) for b in buffers)
        # k = hi + lo with lo its low 11 bits, so hi has at most 52
        # significant bits and both parts convert to double exactly
        lo = k & 2047
        hi[...] = k & -2048
        # theta = p + (e + (hi _RAD_PER_UNIT[1] + lo _RAD_PER_UNIT[0])),
        # with p + e = hi _RAD_PER_UNIT[0] exactly, by _two_prod's steps
        np.multiply(hi, _RAD_PER_UNIT[0], out=theta)
        np.multiply(hi, 134217729.0, out=a1)
        np.subtract(a1, hi, out=a2)
        a1 -= a2
        np.subtract(hi, a1, out=a2)
        np.multiply(a1, c1, out=e)
        e -= theta
        a1 *= c2
        e += a1
        e += np.multiply(a2, c1, out=a1)
        a2 *= c2
        e += a2
        hi *= _RAD_PER_UNIT[1]
        hi += np.multiply(lo, _RAD_PER_UNIT[0], out=a1)
        e += hi
        theta += e
        np.cos(theta, out=part[:, 0])
        np.sin(theta, out=part[:, 1])
    return out


def _conj_unit(turns):
    """e^{-i theta} for a 1-d array of fixed-point turns theta."""
    cos_sin = _unit_phase(turns)
    cos_sin[:, 1] *= -1.0
    return cos_sin.view(complex)[:, 0]


def _split(n):
    """(half, top, front) of the centred split of n samples: sample j sits
    at d = j - (n-1)//2 = m J + r with m = 2 half + 1 ~ sqrt(n),
    |r| <= half and |J| <= top, entry front + j of a (2 top + 1) x m
    array."""
    half = math.isqrt(n) // 2
    m, c = 2 * half + 1, (n - 1) // 2
    top = (n - 1 - c + half) // m
    return half, top, top * m + half - c


class _Tables(NamedTuple):
    """A phase-table set: the factored tables for the rows of xi with
    |xi| R > _RHO (high) and the moment expansion for the rest (low)."""

    high: np.ndarray    # row indices into xi, increasing
    mid: np.ndarray     # e^{-i xi x_mid} per high row, x_mid the node (n-1)//2
    coarse: np.ndarray  # cos, sin of xi h m J, high rows x 2 x (top + 1)
    fine: np.ndarray    # cos, sin of xi h r, high rows x 2 x (half + 1)
    low: np.ndarray     # row indices into xi, increasing
    centre: np.ndarray  # e^{-i xi x_c} per low row
    taylor: np.ndarray  # (-i xi R)^p / p!, low rows x P
    powers: np.ndarray | None  # u_j^p as complex, n x P; None with no low rows

    def rows(self, start, stop):
        """Rows [start, stop) of xi, as a set of their own."""
        i, j = np.searchsorted(self.high, (start, stop))
        k, l = np.searchsorted(self.low, (start, stop))
        return _Tables(self.high[i:j] - start, self.mid[i:j], self.coarse[i:j],
                       self.fine[i:j], self.low[k:l] - start, self.centre[k:l],
                       self.taylor[k:l], self.powers)


def _phase_tables(xi, grid):
    """Factors of e^{-i xi_k x_j} over the uniform grid x_j = x0 + j h.

    High rows, |xi| R > _RHO with R = h(n-1)/2: with j - (n-1)//2 = m J + r
    as in _split, the phase is mid[k] (C - i S)(c - i s), where (C, S) =
    coarse[k, :, |J|] and (c, s) = fine[k, :, |r|] are cos and sin of
    xi h m |J| and xi h |r|, S taking the sign of J and s that of r.  cos
    is even and sin odd, so the tables hold J, r >= 0 only.  Low rows: with
    x_c the grid centre and u_j = (x_j - x_c)/R in [-1, 1], the phase is
    centre[k] * sum_p taylor[k, p] powers[j, p], centre = e^{-i xi x_c}.
    """
    n, h = grid.n, grid.spacing
    half, top, _ = _split(n)
    # x_c + c_err = x0 + R exactly, so x_j - x_c = h (j - (n-1)/2) + c_err
    # but for R's own rounding, which moves a low row's phase by at most
    # _RHO 2^-53
    R = h * (0.5 * (n - 1))
    x_c = grid.x_min + R
    c_err = math.fsum((grid.x_min, R, -x_c))
    low = np.abs(xi) * R <= _RHO
    high, low = np.flatnonzero(~low), np.flatnonzero(low)
    # the row steps xi x0, xi h (n-1)//2, xi h m and xi h, and the low rows'
    # xi x_c, as exact products (h (n-1)//2 and h m are exact products
    # themselves); the mid node's angle is the sum of the first two, added
    # in turns, where the uint64 sum wraps exactly
    hc, hc_err = _two_prod(h, float((n - 1) // 2))
    hm, hm_err = _two_prod(h, float(2 * half + 1))
    hi, lo = _two_prod(xi[high], np.array([[grid.x_min], [hc], [hm], [h]]))
    lo[1] += xi[high] * hc_err
    lo[2] += xi[high] * hm_err
    x0, to_mid, coarse, fine = _turns(hi, lo)
    centre = _turns(*_two_prod(xi[low], x_c))
    # P terms leave at most _RHO^P / P! (the first omitted term bounds the
    # rest), which must fall under an eighth of a rounding
    P = next(p for p in itertools.count(1) if _RHO**p / math.factorial(p) < 2.0**-56)
    if low.size:
        u = (h * (np.arange(n) - 0.5 * (n - 1)) + c_err) / R
        taylor, powers = _moment_expansion(xi[low] * R, u, P)
    else:
        # no row reads the moments, as on c04's windows
        taylor, powers = np.empty((0, P), dtype=complex), None
    return _Tables(
        high, _conj_unit(x0 + to_mid),
        _unit_phase(np.multiply.outer(coarse, np.arange(top + 1, dtype=np.uint64))),
        _unit_phase(np.multiply.outer(fine, np.arange(half + 1, dtype=np.uint64))),
        low, _conj_unit(centre), taylor, powers)


def _moment_expansion(xi_R, u, P):
    """The low rows' tables for terms p < P: (-i xi R)^p / p! per entry of
    xi_R, rows x P, and u^p per entry of u, n x P, both complex.

    Each is a running product over p on a contiguous P x rows buffer: term
    p is term p-1 times (xi R)(1/p), and u^p is u^{p-1} times u: the
    products np.cumprod and np.vander formed along the rows, which the
    tables keep, C-ordered rows x P.
    """
    terms, moments = np.empty((P, xi_R.size)), np.empty((P, u.size))
    terms[0], moments[0] = 1.0, 1.0
    inverse = 1.0 / np.arange(1, P)
    for p in range(1, P):
        np.multiply(xi_R, inverse[p - 1], out=terms[p])
        terms[p] *= terms[p - 1]
        np.multiply(moments[p - 1], u, out=moments[p])
    # times (-i)^p, which is exact
    taylor = np.empty((xi_R.size, P), dtype=complex)
    np.multiply(terms.T, np.array([1.0, -1j, -1.0, 1j])[np.arange(P) % 4], out=taylor)
    powers = np.empty((u.size, P), dtype=complex)
    powers[...] = moments.T
    return taylor, powers


@dataclass(frozen=True)
class IntertwineParams:
    """Coupling and the two grids the transform runs between.

    The X_grid covers frequencies |xi| in [e^{-2a X_max}, e^{-2a X_min}];
    that range must stay inside the band resolvable from x_grid and must
    keep the weight finite.
    """

    a: float
    x_grid: Grid1D
    X_grid: Grid1D

    def __post_init__(self):
        if not (self.a > 0 and np.isfinite(self.a)):
            raise ValueError("coupling a must be positive and finite")
        xi_max = np.exp(-2.0 * self.a * self.X_grid.x_min)
        nyquist = np.pi / self.x_grid.spacing
        if xi_max > nyquist:
            raise ValueError(
                f"X_grid reaches xi = {xi_max:.3g}, beyond the x-grid band "
                f"(Nyquist {nyquist:.3g}); refine x_grid or raise X_min"
            )
        # xi^2/4a without the division, which overflows at a subnormal a
        if xi_max**2 > 4.0 * self.a * MAX_WEIGHT_EXPONENT:
            raise ValueError("weight would overflow at the X_grid lower end")

    @property
    def xi_nodes(self):
        """|xi| at each X sample, decreasing along the grid."""
        return np.exp(-2.0 * self.a * self.X_grid.points)

    @functools.cached_property
    def phase_tables(self):
        """_phase_tables at xi_nodes over x_grid, built on first use and
        shared by every forward and inverse sum on this window."""
        return _phase_tables(self.xi_nodes, self.x_grid)


@dataclass
class BranchPair:
    """Transform values per sign of xi, both on one X grid."""

    plus: SampledFunction
    minus: SampledFunction

    def __post_init__(self):
        if self.plus.grid != self.minus.grid:
            raise ValueError("branches must share the X grid")

    @property
    def grid(self):
        return self.plus.grid


def weight(xi, a):
    """The spectral weight sqrt(|xi|) e^{xi^2/4a}; even in xi, singular at 0."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi == 0.0):
        raise ValueError("weight undefined at xi = 0")
    expo = xi**2 / (4.0 * a)
    if np.any(expo > MAX_WEIGHT_EXPONENT):
        raise ValueError("weight overflow; |xi| too large for this coupling")
    out = np.sqrt(np.abs(xi)) * np.exp(expo)
    return float(out) if out.ndim == 0 else out


def _as_slice(rows):
    """Increasing row indices as a slice where they run without a gap (a
    slice writes a block's rows in a third of the time an index array
    takes), else as they are."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows


def _phase_sums(values, x_grid, xi_targets, tables):
    """(h/sqrt(2pi)) sum_j values_j e^{-i x_j xi} at xi = +xi_targets and
    at xi = -xi_targets, returned in that order; tables are
    _phase_tables(xi_targets, x_grid).  values holds n samples, or k
    functions' samples as an n x k block, whose sums come as len(xi) x k
    blocks; n samples are summed as the n x 1 block."""
    n = x_grid.n
    half, top, front = _split(n)
    block = values.reshape(n, -1)
    k = block.shape[1]
    M = np.zeros((2 * top + 1, 2 * half + 1, k), dtype=complex)
    M.reshape(-1, k)[front:front + n] = block
    # the real and imaginary parts of each column as M[r, re/im, J], folded
    # over r and then over J into sums (E) and differences (O) of the
    # mirrored entries, the entry at index 0 counted once:
    # Z[E/O in r, r, E/O in J, re/im, J], re/im running over the columns
    M = M.view(float).reshape(2 * top + 1, 2 * half + 1, 2 * k).transpose(1, 2, 0)
    fold = np.empty((2, half + 1, 2 * k, 2 * top + 1))
    np.add(M[half:], M[half::-1], out=fold[0])
    fold[0, 0] = M[half]
    np.subtract(M[half:], M[half::-1], out=fold[1])
    Z = np.empty((2, half + 1, 2, 2 * k, top + 1))
    np.add(fold[..., top:], fold[..., top::-1], out=Z[:, :, 0])
    Z[:, :, 0, :, 0] = fold[..., top]
    np.subtract(fold[..., top:], fold[..., top::-1], out=Z[:, :, 1])
    # one real product per parity in r, the E part against c and the O
    # part against s; then w[p, k, q] sums prod[p, k, q] over J against C
    # (q = 0, E in J) or S (q = 1, O in J).  U = w[0, 0] - w[1, 1] is the
    # part of the sum even in xi and V = w[1, 0] + w[0, 1] the odd part, so
    # G(+xi) = mid (U - iV) and G(-xi) = conj(mid) (U + iV)
    rows = tables.high.size
    prod = np.empty((2, rows, 2, 2 * k, top + 1))
    for p in range(2):
        np.matmul(tables.fine[:, p], Z[p].reshape(half + 1, 4 * k * (top + 1)),
                  out=prod[p].reshape(rows, 4 * k * (top + 1)))
    w = np.matmul(prod, tables.coarse[..., None])[..., 0]
    U = (w[0, :, 0] - w[1, :, 1]).view(complex)
    V = (w[1, :, 0] + w[0, :, 1]).view(complex)
    g_plus = np.empty((len(xi_targets), k), dtype=complex)
    g_minus = np.empty((len(xi_targets), k), dtype=complex)
    high = _as_slice(tables.high)
    g_plus[high] = tables.mid[:, None] * (U - 1j * V)
    g_minus[high] = np.conj(tables.mid)[:, None] * (U + 1j * V)
    if tables.low.size:
        # low rows: the moments sum_j values_j u_j^p, then one product
        low = tables.taylor @ (tables.powers.T @ np.hstack([block, np.conj(block)]))
        lows = _as_slice(tables.low)
        g_plus[lows] = tables.centre[:, None] * low[:, :k]
        g_minus[lows] = np.conj(tables.centre[:, None] * low[:, k:])
    scale = x_grid.spacing / SQRT_2PI
    shape = (len(xi_targets),) + values.shape[1:]
    return (g_plus * scale).reshape(shape), (g_minus * scale).reshape(shape)


def _inverse_phase_sums(x_grid, c_plus, c_minus, tables):
    """sum_k c_plus_k e^{+i xi_k x_j} + c_minus_k e^{-i xi_k x_j} per x_j;
    tables are _phase_tables(xi, x_grid)."""
    n = x_grid.n
    half, top, front = _split(n)
    # at x_j = x_mid + h d, d = m J + r, a high row adds alpha e^{-i xi h d}
    # + beta e^{+i xi h d}, alpha = c_minus mid and beta = c_plus conj(mid):
    # sigma (C c - S s) + delta (C s + S c) with sigma = alpha + beta and
    # delta = -i (alpha - beta), S and s signed by J and r
    alpha = c_minus[tables.high] * tables.mid
    beta = c_plus[tables.high] * np.conj(tables.mid)
    pair = np.stack([alpha + beta, -1j * (alpha - beta)], axis=1)[:, :, None]
    rows = tables.high.size
    # complex pair times real table entries.  Rejected: the same products
    # on real (Re, Im) views, 144 -> 610 us on a heat window's 754 high
    # rows at n = 2048 (2 CPUs, numpy 2.4), with zeros of another sign
    right = np.empty((2, rows, 2, half + 1), dtype=complex)
    np.multiply(pair, tables.fine, out=right[0])
    np.multiply(pair, tables.fine[:, ::-1], out=right[1])
    # real products on the interleaved parts: C.T @ [sigma c | delta s] and
    # S.T @ [sigma s | delta c], per (|J|, |r|), summed over blocks of high
    # rows of at most _INVERSE_BLOCK multiply-adds each, in row order.  The
    # bits of one large product depend on how many threads OpenBLAS splits
    # it over: unblocked, heat-ho's intertwine route on test_cli's seeded
    # 2048-point input wrote 879 of its 2048 samples otherwise at one
    # thread than at two.  OpenBLAS 0.3.31 runs a product of up to 65536 x 4
    # multiply-adds on one thread, so each block has the same bits at any
    # thread count.  That threshold is OpenBLAS's, so the contract is the
    # cross-process test that compares the files written at one thread and
    # at the default
    R = np.zeros((2, top + 1, 2, half + 1), dtype=complex)
    step = max(1, _INVERSE_BLOCK // ((top + 1) * 4 * (half + 1)))
    part = np.empty((top + 1, 4 * (half + 1)))
    for q in range(2):
        whole = R[q].reshape(top + 1, 2 * (half + 1)).view(float)
        for start in range(0, rows, step):
            rhs = right[q, start:start + step].reshape(-1, 2 * (half + 1)).view(float)
            whole += np.matmul(tables.coarse[start:start + step, q].T, rhs, out=part)
    (Cc, Cs), (Ss, Sc) = R.transpose(0, 2, 1, 3)
    # the terms with C and with S, each at r >= 0 and at r <= 0; J = 0 and
    # r = 0 lie in two sign quadrants each, where the S and s terms vanish,
    # so either write holds the same value
    with_C, with_S = (Cc + Cs, Cc - Cs), (Sc - Ss, Sc + Ss)
    F = np.empty((2 * top + 1, 2 * half + 1), dtype=complex)
    F[top::-1, half::-1] = with_C[1] - with_S[1]
    F[top::-1, half:] = with_C[0] - with_S[0]
    F[top:, half::-1] = with_C[1] + with_S[1]
    F[top:, half:] = with_C[0] + with_S[0]
    out = F.ravel()[front:front + n]
    if tables.low.size:
        # low rows: P coefficients per sign, then one product with the powers
        low = tables.powers @ (tables.taylor.T @ np.column_stack(
            [np.conj(c_plus[tables.low]) * tables.centre, c_minus[tables.low] * tables.centre]))
        out = out + (np.conj(low[:, 0]) + low[:, 1])
    return out


def _damping(x_grid, a):
    """e^{-ax^2/2} on x_grid."""
    # at a huge a the exponent reads -inf, and its factor 0 as it should
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * a * x_grid.points**2)


def _damped(phi, a):
    return phi.values * _damping(phi.grid, a)


def _band_edge(x_grid):
    """0.95 of x_grid's Nyquist frequency: a spectrum with mass beyond it
    is not resolved by the grid."""
    return 0.95 * np.pi / x_grid.spacing


def _spectral_tail(values, xi, xi_cut):
    """Largest |values| beyond |xi| = xi_cut, as a fraction of the peak, for
    a spectrum sampled at xi, or per column of an n x k block of spectra."""
    mag = np.abs(values)
    peak = mag.max(axis=0)
    outside = np.abs(xi) > xi_cut
    tail = mag[outside].max(axis=0) if np.any(outside) else np.zeros_like(peak)
    return np.divide(tail, peak, out=np.zeros_like(peak), where=peak > 0.0)[()]


def apply_T(phi, p):
    """Forward transform onto both sign branches.

    Enforces the admissible-data precondition: the damped spectrum must
    have decayed below SA_DECAY of its peak by the largest frequency the
    X_grid covers, so the branch pair determines phi.
    """
    damped = _damped(phi, p.a)
    xi_cut = np.exp(-2.0 * p.a * p.X_grid.x_min)
    F = forward_ft(SampledFunction(p.x_grid, damped))
    tail = _spectral_tail(F.values, F.xi_grid.points, xi_cut)
    if tail > SA_DECAY:
        raise ValueError(
            "input is outside the admissible class: damped spectrum carries "
            f"{tail:.3e} of its peak beyond |xi| = {xi_cut:.3g}"
        )
    return _branch_transform(damped, p)


def _branch_transform(damped, p, xi=None, tables=None):
    # the unguarded core of apply_T at the frequencies xi with their phase
    # tables (default: the X nodes, whose tables the window holds), shared
    # with the residual check, which must still produce (informational)
    # numbers on inadmissible data, and with the conjugated routes, whose
    # windows derive_params sizes to cover their data (the heat route
    # reads the spectrum at contracted nodes, _transport_rows).  damped is
    # n samples, or an n x k block of k functions, which gives a list of k
    # branch pairs; each column keeps its own SPECTRAL_CAP floor
    if xi is None:
        xi, tables = p.xi_nodes, p.phase_tables
    g_plus, g_minus = (g.reshape(len(xi), -1)
                       for g in _phase_sums(damped, p.x_grid, xi, tables))
    floor = SPECTRAL_CAP * np.maximum(np.abs(g_plus).max(axis=0), np.abs(g_minus).max(axis=0))
    w = weight(xi, p.a)[:, None]
    g_plus = w * np.where(np.abs(g_plus) < floor, 0.0, g_plus)
    g_minus = w * np.where(np.abs(g_minus) < floor, 0.0, g_minus)
    pairs = [BranchPair(SampledFunction(p.X_grid, g_plus[:, c]),
                        SampledFunction(p.X_grid, g_minus[:, c]))
             for c in range(g_plus.shape[1])]
    return pairs if damped.ndim == 2 else pairs[0]


def _transport_rows(p, t):
    """A window for translating p's branches by t in X, with one phase-table
    set for its own nodes and for the contracted ones.

    Returns (window, xi, tables): window is p with its X step shrunk to
    t/s, s = ceil(t/dX), and as many nodes as still reach X_max, so that
    X_k + t = X_{k+s}.  One _phase_tables call builds the N + s rows
    X_min + j dX: rows [0, N) become the window's own tables, and xi and
    tables are rows [s, N + s), the contracted frequencies
    e^{-2a(X_k + t)}.  Where that would build more than 2n rows (t under
    about half a step, or s >= N: t reaches past the window), p is kept
    and the one call covers its nodes and the contracted nodes
    xi_k e^{-2at}, 2n rows; at t = 0 the two coincide and it covers the n
    nodes alone.
    """
    X = p.X_grid
    s = math.ceil(t / X.spacing)
    # the window's span in steps t/s; inf where t/s is too small for it
    span = (X.x_max - X.x_min) / (t / s) if s else 0.0
    if 0 < s < span and span + s <= 2 * X.n:
        n = math.ceil(span)
        X = Grid1D(X.x_min, X.x_min + n * (t / s), n)
        window = IntertwineParams(p.a, p.x_grid, X)
        xi = np.exp(-2.0 * p.a * (X.x_min + X.spacing * np.arange(n + s)))
        offset = s
    elif s:
        window, offset = p, X.n
        xi = np.concatenate([p.xi_nodes, p.xi_nodes * np.exp(-2.0 * p.a * t)])
    else:
        window, xi, offset = p, p.xi_nodes, 0
    n = window.X_grid.n
    tables = _phase_tables(xi, p.x_grid)
    # rows [0, n) are the window's xi_nodes bit for bit: prime its cached
    # tables with them
    window.__dict__["phase_tables"] = tables.rows(0, n)
    return window, xi[offset:offset + n], tables.rows(offset, offset + n)


def branch_spectra(b, p):
    """De-weighted branch values: the damped spectrum G(+-xi) at the X nodes.

    Pointwise division by the weight; exact, no interpolation.
    """
    w = weight(p.xi_nodes, p.a)
    return b.plus.values / w, b.minus.values / w


def apply_T_inverse(b, p, mask_floor=1.0e-15):
    """Invert a branch pair back to a function of x.

    mask_floor: fraction of the damped reconstruction's peak below which
    values are zeroed before the final e^{+ax^2/2} factor.  The default is
    safe for any grid; it caps the amplified noise at roughly 1e-8 of the
    result in L2.

    Round-trip accuracy is limited by the x-domain mass that sits below
    the damped representation's roundoff floor: samples with
    |e^{-ax^2/2} phi| under ~5e-16 of the peak carry no recoverable
    information, and a grid that extends past that radius spends its error
    budget amplifying noise.  For round trips near 1e-8, size the grid so
    the damped data meets ~5e-16 of its peak right at the boundary and
    pass mask_floor=5e-16.
    """
    a = p.a
    g_plus, g_minus = branch_spectra(b, p)
    peak = max(np.max(np.abs(g_plus)), np.max(np.abs(g_minus)))
    if peak > 0.0:
        # the xi_max end of the window must hold spectral tail, not signal
        edge = max(abs(g_plus[0]), abs(g_minus[0]))
        if edge > 1.0e-8 * peak:
            raise ValueError(
                "branch data does not decay at the large-|xi| end "
                f"(edge/peak = {edge / peak:.2e}); widen the X window"
            )
    xi = p.xi_nodes
    # trapezoid end corrections vanish against the decayed integrand
    damped = _inverse_phase_sums(p.x_grid, xi * g_plus, xi * g_minus, p.phase_tables)
    return _undamped(p.x_grid, damped * (2.0 * a * p.X_grid.spacing / SQRT_2PI), a, mask_floor)


def _undamped(x_grid, damped, a, floor):
    """damped e^{ax^2/2} on x_grid, after zeroing the samples of damped
    under floor times its peak; refused by name where the factor overflows
    at a sample the mask kept."""
    damped = np.where(np.abs(damped) < floor * np.max(np.abs(damped)), 0.0, damped)
    x = x_grid.points
    # e^{ax^2/2} may overflow far out, at samples the mask has zeroed: they
    # stay 0
    with np.errstate(over="ignore", invalid="ignore"):
        values = damped * np.exp(0.5 * a * x * x, where=damped != 0, out=np.ones(x.size))
    if not np.all(np.isfinite(values)):
        raise ValueError(f"e^(ax^2/2) overflows at a = {a:g} where the damped result is "
                         "above its mask floor; the grid reaches too far for this coupling")
    return SampledFunction(x_grid, values)


def _oscillator(values, x_grid, a):
    """(d^2/dx^2 - a^2 x^2) of each column of values (n samples on x_grid,
    or an n x k block), the second derivative through forward_ft and
    inverse_ft's FFT pair."""
    xi_grid = _xi_grid_for(x_grid)
    xi = xi_grid.points.reshape((-1,) + (1,) * (values.ndim - 1))
    second = _transform(-xi**2 * _transform(values, x_grid, xi_grid), x_grid, xi_grid,
                        inverse=True)
    x = x_grid.points.reshape(xi.shape)
    return second - (a * x) ** 2 * values


def oscillator_apply(phi, a):
    """(d^2/dx^2 - a^2 x^2) phi with the second derivative done spectrally."""
    return SampledFunction(phi.grid, _oscillator(phi.values, phi.grid, a))


def intertwine_residual(phi, p):
    """Check the conjugation identity: T(oscillator phi) = d/dX (T phi).

    Both sides are compared in relative L2 per branch over the interior of
    the X window; the oscillator is applied spectrally on the x side so the
    only discretization in the comparison is the centered X derivative.
    Inputs whose damped spectrum is not resolved by the x grid get an
    informational verdict instead of pass/fail.  The report of
    intertwine_residuals([phi], p).
    """
    return intertwine_residuals([phi], p)[0]


def intertwine_residuals(phis, p):
    """intertwine_residual's report for each function of phis, all on p's
    x grid, in one pass: their damped data, the alias-tail FFT and the
    oscillator's FFT pair run as one block of columns each, and both sides
    of the identity for every function as one multi-column phase sum.
    Each function keeps its own verdict, notes and warning."""
    a, g = p.a, p.x_grid
    if any(phi.grid != g for phi in phis):
        raise ValueError("intertwine_residuals needs its functions on the window's x grid")
    values = np.column_stack([phi.values for phi in phis])
    damping = _damping(g, a)[:, None]
    damped = values * damping
    xi_grid = _xi_grid_for(g)
    alias_tails = _spectral_tail(_transform(damped, g, xi_grid), xi_grid.points, _band_edge(g))
    k = len(phis)
    # T(oscillator phi) in the first k columns, T phi in the last k
    pairs = _branch_transform(np.hstack([_oscillator(values, g, a) * damping, damped]), p)
    h = p.X_grid.spacing
    reports = []
    for lhs, rhs, alias_tail in zip(pairs[:k], pairs[k:], alias_tails):
        informational = alias_tail > SA_DECAY
        if informational:
            warnings.warn(
                f"damped spectrum carries {alias_tail:.2e} of its peak near the "
                "grid's frequency limit; residual reported informationally",
                stacklevel=2,
            )
        ratios = []
        for side in ("plus", "minus"):
            num = getattr(lhs, side).values[1:-1]
            den = _centered_d(getattr(rhs, side).values, h)
            scale = np.linalg.norm(den)
            ratios.append(np.linalg.norm(num - den) / scale if scale > 0 else 0.0)
        notes = f"plus {ratios[0]:.3e} minus {ratios[1]:.3e}"
        if informational:
            notes += f"; damped spectrum unresolved (tail {alias_tail:.2e})"
        reports.append(make_report(
            "intertwine_residual", float(max(ratios)), RESIDUAL_TOL,
            informational=informational, notes=notes))
    return reports


def derive_params(a, x_grid, phi):
    """Build transform parameters whose X window covers phi's spectrum.

    The lower X bound comes from where the damped spectrum of phi has
    decayed below 1e-10 of its peak (with a margin), the upper bound from
    where the frequency curve e^{-2aX} reaches the double-precision floor.
    The window has X_NODES nodes; the margin puts phi itself inside
    apply_T's full-coverage guard.
    """
    damped = _damped(phi, a)
    F = forward_ft(SampledFunction(x_grid, damped))
    mag = np.abs(F.values)
    peak = np.max(mag)
    if peak == 0.0:
        raise ValueError("cannot derive a window for identically zero data")
    # never empty: the peak itself clears SA_DECAY * peak
    xi_tail = float(np.max(np.abs(F.xi_grid.points)[mag > SA_DECAY * peak]))
    if xi_tail == 0.0:
        raise ValueError("damped data is constant on this grid: its spectrum "
                         "is one bin at xi = 0, which no X window reaches")
    xi_cover = 1.5 * xi_tail
    if xi_cover > _band_edge(x_grid):
        raise ValueError(
            f"spectral support (to {xi_tail:.3g}) exceeds the x-grid band"
        )
    # IntertwineParams checks the same, but at a subnormal a X_min and X_max
    # below overflow first
    if xi_cover**2 > 4.0 * a * MAX_WEIGHT_EXPONENT:
        raise ValueError(
            f"coupling a = {a:g} is too small for this data: the weight "
            f"e^(xi^2/4a) overflows at its spectral edge xi = {xi_cover:.3g}"
        )
    X_min = -np.log(xi_cover) / (2.0 * a)
    X_max = X_EXTENT / a
    if X_max <= X_min:
        raise ValueError("frequency window collapsed; check the coupling")
    return IntertwineParams(a, x_grid, make_grid(X_min, X_max, X_NODES))
