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
  - rows with |xi| R > _RHO = 0.1: the x grid is uniform, so e^{-i xi x_j}
    with x_j = x0 + h(mJ + r), m ~ sqrt(n), factors into an offset
    e^{-i xi x0}, a table in J (n/m columns) and a table in r (m columns).
    Each direction is then one dense matrix product over 2 sqrt(n)
    exponentials a row instead of n: the separable, exact counterpart of
    a nonuniform FFT, with no spreading kernel and no tolerance floor.
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
  complex data: per row within 3.7e-17 h/sqrt(2pi) sum|v| forward
  (either kind of row) and 5.8e-17 sum|c| inverse, where the factored
  tables on every row measured 3.7e-17 and 7.6e-17.  The window
  (IntertwineParams) builds its tables once, so forward and inverse share
  them, and one set serves both signs of xi through conjugation.  The
  conjugated heat flow reads the spectrum at the contracted nodes
  e^{-2a(X + t)}; with the X step aligned to t these are rows of the same
  set, so a heat call builds one set too (_transport_rows).
* The inverse de-weights pointwise (exact) and integrates the substitution
  form (1/sqrt(2pi)) integral 2a xi G(+-xi(X)) e^{+-i xi x} dX by the
  trapezoid rule in X.  The integrand decays at both ends (spectral tail on
  one side, the xi factor on the other), where the trapezoid rule is
  spectrally accurate.
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

from .fourier import SQRT_2PI, forward_ft, inverse_ft
from .grids import (Grid1D, SampledFunction, _centered_d, _two_prod, make_grid,
                    make_report)

__all__ = [
    "IntertwineParams",
    "BranchPair",
    "weight",
    "apply_T",
    "apply_T_inverse",
    "intertwine_residual",
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
# * Step angles.  Each row's steps xi x0, xi h m and xi h are exact Dekker
#   products (_two_prod; h m is one too), times a two-double 1/2pi, reduced
#   mod one turn to a 64-bit fixed-point fraction (_turns).  An entry's
#   angle is then an exact uint64 product, row step times column index,
#   whose wrap-around mod 2^64 is exact reduction mod 2pi.  The coarse step
#   is reduced from xi h m itself: m times the fine step in uint64 would
#   multiply the fine step's rounding by up to n.  A low row's centre
#   phase e^{-i xi x_c} takes the offset's path with x_c for x0.
# * Entry angles.  Each entry's int64 turn count times a two-double 2pi/2^64
#   is formed exactly and rounded once to radians (_unit_phase), in blocks
#   of rows that stay in cache; the real cos and sin follow.
# Measured on 2 CPUs (numpy 2.4) against the earlier build, which formed
# the steps in numpy's long double (80-bit on x86-64 Linux, plain double on
# Windows and macOS arm64, software quad on aarch64 Linux):
#   worst entry error against mpmath, 1500 sampled entries per table on
#   [-37.3, 41.9) (n = 4099 and 2048), [20.5, 61.3) and [-12, 12):
#     offset, coarse, fine 6.3e-16, 6.5e-16, 3.1e-16 -> 3.1e-16 each
#   build time at N = 4096, medians of 31 builds interleaved in one
#   process, two runs: n = 512: 10.3 -> 8.9-9.0 ms; n = 2048: 18.7 ->
#   16.4-17.3 ms (without the row blocks a build took 24-28 ms at n = 2048)
#   c11's t = 0.1 and 0.5 rows: 0.41 and 5.78e21 either way; with the
#   earlier build's long double as plain double they read 1.7e15 and 9.1e23
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

# 1/2pi and 2pi/2^64 (the radians of one fixed-point unit of a turn), each
# an unevaluated sum of two doubles
_INV_2PI = (0.15915494309189535, -9.839338337591243e-18)
_RAD_PER_UNIT = (2.0 * math.pi / 2.0**64, 2.4492935982947064e-16 / 2.0**64)


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
    """e^{-i theta} for fixed-point turns theta, rounded once to radians."""
    out = np.empty(turns.shape, dtype=complex)
    # row blocks of about 8192 entries, whose temporaries stay in cache
    blocks = max(1, turns.size // 8192)
    for k, part in zip(np.array_split(turns.view(np.int64), blocks),
                       np.array_split(out, blocks)):
        # k = hi + lo with lo its low 11 bits, so hi has at most 52
        # significant bits and both parts convert to double exactly
        lo = k & 2047
        hi = (k - lo).astype(float)
        p, e = _two_prod(hi, _RAD_PER_UNIT[0])
        theta = -(p + (e + (hi * _RAD_PER_UNIT[1] + lo * _RAD_PER_UNIT[0])))
        np.cos(theta, out=part.real)
        np.sin(theta, out=part.imag)
    return out


class _Tables(NamedTuple):
    """A phase-table set: the factored tables for the rows of xi with
    |xi| R > _RHO (high) and the moment expansion for the rest (low)."""

    high: np.ndarray    # row indices into xi, increasing
    offset: np.ndarray  # e^{-i xi x0} per high row
    coarse: np.ndarray  # e^{-i xi h m J}, high rows x ceil(n/m)
    fine: np.ndarray    # e^{-i xi h r}, high rows x m
    low: np.ndarray     # row indices into xi, increasing
    centre: np.ndarray  # e^{-i xi x_c} per low row
    taylor: np.ndarray  # (-i xi R)^p / p!, low rows x P
    powers: np.ndarray  # u_j^p, n x P, the same for every row

    def rows(self, start, stop):
        """Rows [start, stop) of xi, as a set of their own."""
        i, j = np.searchsorted(self.high, (start, stop))
        k, l = np.searchsorted(self.low, (start, stop))
        return _Tables(self.high[i:j] - start, self.offset[i:j], self.coarse[i:j],
                       self.fine[i:j], self.low[k:l] - start, self.centre[k:l],
                       self.taylor[k:l], self.powers)


def _phase_tables(xi, grid):
    """Factors of e^{-i xi_k x_j} over the uniform grid x_j = x0 + j h.

    High rows, |xi| R > _RHO with R = h(n-1)/2: with m = ceil(sqrt(n)) and
    j = m J + r (0 <= r < m), the phase is offset[k] * coarse[k, J] *
    fine[k, r], where offset = e^{-i xi x0}, coarse = e^{-i xi h m J}
    (ceil(n/m) columns) and fine = e^{-i xi h r} (m columns).  The last J
    row may run past the n samples; callers pad it.  Low rows: with x_c
    the grid centre and u_j = (x_j - x_c)/R in [-1, 1], the phase is
    centre[k] * sum_p taylor[k, p] powers[j, p], centre = e^{-i xi x_c}.
    """
    n, h = grid.n, grid.spacing
    m = math.isqrt(n - 1) + 1
    # x_c + c_err = x0 + R exactly, so x_j - x_c = h (j - (n-1)/2) + c_err
    # but for R's own rounding, which moves a low row's phase by at most
    # _RHO 2^-53
    R = h * (0.5 * (n - 1))
    x_c = grid.x_min + R
    c_err = math.fsum((grid.x_min, R, -x_c))
    low = np.abs(xi) * R <= _RHO
    high, low = np.flatnonzero(~low), np.flatnonzero(low)
    # the row steps xi x0, xi h m and xi h, and the low rows' xi x_c, as
    # exact products
    hm, hm_err = _two_prod(h, float(m))
    hi, lo = _two_prod(xi[high], np.array([[grid.x_min], [hm], [h]]))
    lo[1] += xi[high] * hm_err
    offset, coarse, fine = _turns(hi, lo)
    centre = _turns(*_two_prod(xi[low], x_c))
    # P terms leave at most _RHO^P / P! (the first omitted term bounds the
    # rest), which must fall under an eighth of a rounding
    P = next(p for p in itertools.count(1) if _RHO**p / math.factorial(p) < 2.0**-56)
    u = (h * (np.arange(n) - 0.5 * (n - 1)) + c_err) / R
    # (xi R)^p / p! by running products, times (-i)^p, which is exact
    steps = np.outer(xi[low] * R, 1.0 / np.arange(1, P))
    taylor = np.cumprod(np.hstack([np.ones((low.size, 1)), steps]), axis=1)
    return _Tables(
        high, _unit_phase(offset),
        _unit_phase(np.multiply.outer(coarse, np.arange(-(-n // m), dtype=np.uint64))),
        _unit_phase(np.multiply.outer(fine, np.arange(m, dtype=np.uint64))),
        low, _unit_phase(centre),
        taylor * np.array([1.0, -1j, -1.0, 1j])[np.arange(P) % 4],
        np.vander(u, P, increasing=True))


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


def _phase_sums(values, x_grid, xi_targets, tables):
    """(h/sqrt(2pi)) sum_j values_j e^{-i x_j xi} at xi = +xi_targets and
    at xi = -xi_targets, returned in that order; tables are
    _phase_tables(xi_targets, x_grid)."""
    rows, m = tables.coarse.shape[1], tables.fine.shape[1]
    M = np.pad(values, (0, rows * m - x_grid.n)).reshape(rows, m)
    # the -xi sum is the conjugate of the +xi sum of conj(values), so one
    # product over the shared tables yields both
    inner = tables.fine @ np.hstack([M.T, M.T.conj()])
    # low rows: the moments sum_j values_j u_j^p, then one product
    low = tables.taylor @ (tables.powers.T @ np.column_stack([values, np.conj(values)]))
    g_plus = np.empty(len(xi_targets), dtype=complex)
    g_minus = np.empty(len(xi_targets), dtype=complex)
    g_plus[tables.high] = tables.offset * np.sum(tables.coarse * inner[:, :rows], axis=1)
    g_minus[tables.high] = np.conj(
        tables.offset * np.sum(tables.coarse * inner[:, rows:], axis=1))
    g_plus[tables.low] = tables.centre * low[:, 0]
    g_minus[tables.low] = np.conj(tables.centre * low[:, 1])
    scale = x_grid.spacing / SQRT_2PI
    return g_plus * scale, g_minus * scale


def _inverse_phase_sums(x_grid, xi, c_plus, c_minus, tables):
    """sum_k c_plus_k e^{+i xi_k x_j} + c_minus_k e^{-i xi_k x_j} per x_j;
    tables are _phase_tables(xi, x_grid)."""
    m = tables.fine.shape[1]
    # the +i sum is the conjugate of the -i sum of conj(c_plus)
    c_plus = np.conj(c_plus)
    scaled = np.hstack([(c_plus[tables.high] * tables.offset)[:, None] * tables.fine,
                        (c_minus[tables.high] * tables.offset)[:, None] * tables.fine])
    both = tables.coarse.T @ scaled
    # low rows: P coefficients per sign, then one product with the powers
    low = tables.powers @ (tables.taylor.T @ np.column_stack(
        [c_plus[tables.low] * tables.centre, c_minus[tables.low] * tables.centre]))
    return ((np.conj(both[:, :m]) + both[:, m:]).ravel()[: x_grid.n]
            + (np.conj(low[:, 0]) + low[:, 1]))


def _damped(phi, a):
    x = phi.grid.points
    # at a huge a the exponent reads -inf, and its factor 0 as it should
    with np.errstate(over="ignore"):
        return phi.values * np.exp(-0.5 * a * x**2)


def _band_edge(x_grid):
    """0.95 of x_grid's Nyquist frequency: a spectrum with mass beyond it
    is not resolved by the grid."""
    return 0.95 * np.pi / x_grid.spacing


def _spectral_tail(F, xi_cut):
    """Largest |F| beyond |xi| = xi_cut, as a fraction of its peak."""
    mag = np.abs(F.values)
    peak = np.max(mag)
    if peak == 0.0:
        return 0.0
    outside = np.abs(F.xi_grid.points) > xi_cut
    if not np.any(outside):
        return 0.0
    return float(np.max(mag[outside]) / peak)


def apply_T(phi, p):
    """Forward transform onto both sign branches.

    Enforces the admissible-data precondition: the damped spectrum must
    have decayed below SA_DECAY of its peak by the largest frequency the
    X_grid covers, so the branch pair determines phi.
    """
    damped = _damped(phi, p.a)
    xi_cut = np.exp(-2.0 * p.a * p.X_grid.x_min)
    tail = _spectral_tail(forward_ft(SampledFunction(p.x_grid, damped)), xi_cut)
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
    # reads the spectrum at contracted nodes, _transport_rows)
    if xi is None:
        xi, tables = p.xi_nodes, p.phase_tables
    g_plus, g_minus = _phase_sums(damped, p.x_grid, xi, tables)
    floor = SPECTRAL_CAP * max(np.max(np.abs(g_plus)), np.max(np.abs(g_minus)), 0.0)
    g_plus = np.where(np.abs(g_plus) < floor, 0.0, g_plus)
    g_minus = np.where(np.abs(g_minus) < floor, 0.0, g_minus)
    w = weight(xi, p.a)
    return BranchPair(
        SampledFunction(p.X_grid, w * g_plus),
        SampledFunction(p.X_grid, w * g_minus),
    )


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
    damped = _inverse_phase_sums(p.x_grid, xi, xi * g_plus, xi * g_minus, p.phase_tables)
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


def oscillator_apply(phi, a):
    """(d^2/dx^2 - a^2 x^2) phi with the second derivative done spectrally."""
    F = forward_ft(phi)
    second = inverse_ft(
        type(F)(F.xi_grid, -F.xi_grid.points**2 * F.values, F.x_grid)
    ).values
    x = phi.grid.points
    return SampledFunction(phi.grid, second - (a * x) ** 2 * phi.values)


def intertwine_residual(phi, p):
    """Check the conjugation identity: T(oscillator phi) = d/dX (T phi).

    Both sides are compared in relative L2 per branch over the interior of
    the X window; the oscillator is applied spectrally on the x side so the
    only discretization in the comparison is the centered X derivative.
    Inputs whose damped spectrum is not resolved by the x grid get an
    informational verdict instead of pass/fail.
    """
    a = p.a
    damped = _damped(phi, a)
    alias_tail = _spectral_tail(forward_ft(SampledFunction(p.x_grid, damped)),
                                _band_edge(p.x_grid))
    informational = alias_tail > SA_DECAY
    if informational:
        warnings.warn(
            f"damped spectrum carries {alias_tail:.2e} of its peak near the "
            "grid's frequency limit; residual reported informationally",
            stacklevel=2,
        )
    lap = oscillator_apply(phi, a)
    lhs = _branch_transform(_damped(lap, a), p)
    rhs = _branch_transform(damped, p)
    h = p.X_grid.spacing
    ratios = []
    for side in ("plus", "minus"):
        num = getattr(lhs, side).values[1:-1]
        den = _centered_d(getattr(rhs, side).values, h)
        scale = np.linalg.norm(den)
        ratios.append(np.linalg.norm(num - den) / scale if scale > 0 else 0.0)
    metric = float(max(ratios))
    notes = f"plus {ratios[0]:.3e} minus {ratios[1]:.3e}"
    if informational:
        notes += f"; damped spectrum unresolved (tail {alias_tail:.2e})"
    return make_report(
        "intertwine_residual", metric, RESIDUAL_TOL, informational=informational,
        notes=notes,
    )


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
