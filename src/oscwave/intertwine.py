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
  The x grid is uniform, so e^{-i xi x_j} with x_j = x0 + h(mJ + r),
  m ~ sqrt(n), factors into an offset e^{-i xi x0}, an N x n/m table in J
  and an N x m table in r (_phase_tables).  Each direction is then one
  dense matrix product over N 2 sqrt(n) exponentials instead of N n: the
  separable, exact counterpart of a nonuniform FFT, with no spreading
  kernel and no tolerance floor.  The window (IntertwineParams) builds its
  tables once, so forward and inverse share them, and one set serves both
  signs of xi through conjugation.  The conjugated heat flow reads the
  spectrum at the contracted nodes e^{-2a(X + t)}; with the X step
  aligned to t these are rows of the same set, so a heat call builds one
  set too (_transport_rows).
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

import functools
import math
import warnings

import numpy as np

from .fourier import SQRT_2PI, forward_ft, inverse_ft
from .grids import Grid1D, SampledFunction, _centered_d, make_grid, make_report

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
# in its entry.  Measured with such plain-double arguments: every verify
# verdict and the three tuned round trips of the tests still hold (4.2e-9,
# 7.8e-9, 4.7e-9 against the gate 1e-8), but c11's informational
# oscillator_wave_vs_oracle_t0.1 reads 7.3 instead of 0.41, and the
# factorized sums miss a long-double direct sum by more than 1e-13.
# So each table row's step angle (xi x0, xi h m, xi h) is formed in long
# double and reduced once to a 64-bit fixed-point fraction of a turn
# (_turns): 3N long-double values per table set, where the entries number
# N (2 sqrt(n) + 1).  An entry's angle is then an exact uint64 product, row
# step times column index, whose wrap-around mod 2^64 is exact reduction
# mod 2pi.  Each entry is rounded once to radians (int64 turns times 2pi/2^64
# in long double, then double) and takes a real cos and sin.  Measured on
# 2 CPUs (numpy 2.4) against the earlier build, which formed, wrapped and
# exponentiated every entry's angle in long double:
#   build time at N = 4096, medians of 30 builds, 6 alternating runs:
#     n = 512: 20-24 -> 12-14 ms; n = 2048: 35-43 -> 20-24 ms
#   worst entry error against mpmath, 4000 sampled entries per table on
#   grids [-12, 12), [-37.3, 41.9) and [20.5, 61.3):
#     n = 512, 2048: <= 5.6e-16 -> <= 6.0e-16; n = 4099: 1.0-1.5e-15 ->
#     0.8-1.0e-15 (the coarse table; 3.1e-16 is the floor of one rounding)
#   tuned round trips of the tests (ground state, odd data, a = 0.5):
#     4.66e-9, 7.78e-9, 4.96e-9 -> 4.66e-9, 7.40e-9, 4.99e-9
# Rejected: rounding to radians twice in double (int64 -> double, times
# 2pi/2^64) measured 4.7-9.6e-16 on the same entries; the same single
# rounding done exactly in double (turns split in two 32-bit halves, 2pi
# split in two) took 17.6 ms where long double takes 5.2 ms on 373k
# entries; building the coarse table as products of two smaller trig
# tables raised the odd-data round trip to 8.2e-9; the complex exp took
# 16.3 ms where cos and sin take 8.0 ms on the 373k entries of one n = 2048
# set.  The sums are accumulated in double by BLAS: summing the same
# tables' terms in long double measured no better on the three tuned round
# trips.
_LD = np.longdouble
_TWO_PI_LD = _LD("6.283185307179586476925286766559005768")
# one full turn in 64-bit fixed point, and the radians of one unit
_TURN = _LD(2.0**64)
_RAD_PER_UNIT = _TWO_PI_LD / _TURN


def _turns(theta):
    """Long-double angles theta as uint64 fractions of a turn, mod one turn."""
    t = theta / _TWO_PI_LD
    units = np.rint((t - np.floor(t)) * _TURN)
    # the upper half turn as negative int64, so the cast stays in range
    units = np.where(units >= _TURN / 2, units - _TURN, units)
    return units.astype(np.int64).view(np.uint64)


def _unit_phase(turns):
    """e^{-i theta} for fixed-point turns theta, rounded once to radians."""
    theta = (turns.view(np.int64).astype(_LD) * -_RAD_PER_UNIT).astype(float)
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _phase_tables(xi, grid):
    """Factors of e^{-i xi_k x_j} over the uniform grid x_j = x0 + j h.

    With m = ceil(sqrt(n)) and j = m J + r (0 <= r < m), the phase is
    offset[k] * coarse[k, J] * fine[k, r], where offset = e^{-i xi x0}
    (N), coarse = e^{-i xi h m J} (N x ceil(n/m)) and fine = e^{-i xi h r}
    (N x m).  The last J row may run past the n samples; callers pad it.
    """
    n = grid.n
    m = math.isqrt(n - 1) + 1
    h = _LD(grid.spacing)
    xi = xi.astype(_LD)
    offset = _unit_phase(_turns(xi * _LD(grid.x_min)))
    coarse = _unit_phase(np.multiply.outer(
        _turns(xi * (h * m)), np.arange(-(-n // m), dtype=np.uint64)))
    fine = _unit_phase(np.multiply.outer(
        _turns(xi * h), np.arange(m, dtype=np.uint64)))
    return offset, coarse, fine


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
    offset, coarse, fine = tables
    rows, m = coarse.shape[1], fine.shape[1]
    M = np.pad(values, (0, rows * m - x_grid.n)).reshape(rows, m)
    # the -xi sum is the conjugate of the +xi sum of conj(values), so one
    # product over the shared tables yields both
    inner = fine @ np.hstack([M.T, M.T.conj()])
    g_plus = offset * np.sum(coarse * inner[:, :rows], axis=1)
    g_minus = np.conj(offset * np.sum(coarse * inner[:, rows:], axis=1))
    scale = x_grid.spacing / SQRT_2PI
    return g_plus * scale, g_minus * scale


def _inverse_phase_sums(x_grid, xi, c_plus, c_minus, tables):
    """sum_k c_plus_k e^{+i xi_k x_j} + c_minus_k e^{-i xi_k x_j} per x_j;
    tables are _phase_tables(xi, x_grid)."""
    offset, coarse, fine = tables
    m = fine.shape[1]
    # the +i sum is the conjugate of the -i sum of conj(c_plus)
    scaled = np.hstack([(np.conj(c_plus) * offset)[:, None] * fine,
                        (c_minus * offset)[:, None] * fine])
    both = coarse.T @ scaled
    return (np.conj(both[:, :m]) + both[:, m:]).ravel()[: x_grid.n]


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
    window.__dict__["phase_tables"] = tuple(tab[:n] for tab in tables)
    return window, xi[offset:offset + n], tuple(
        tab[offset:offset + n] for tab in tables)


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
    dX = p.X_grid.spacing
    x = p.x_grid.points
    # trapezoid end corrections vanish against the decayed integrand
    amp = 2.0 * a * dX / SQRT_2PI
    damped = _inverse_phase_sums(p.x_grid, xi, xi * g_plus, xi * g_minus,
                                 p.phase_tables) * amp
    dpeak = np.max(np.abs(damped))
    if dpeak > 0.0 and mask_floor > 0.0:
        damped = np.where(np.abs(damped) < mask_floor * dpeak, 0.0, damped)
    # e^{ax^2/2} may overflow far out, at samples the mask has zeroed: they
    # stay 0
    with np.errstate(over="ignore", invalid="ignore"):
        grow = np.exp(0.5 * a * x**2, where=damped != 0, out=np.ones(x.size))
        return _undamped(p.x_grid, damped * grow, a)


def _undamped(x_grid, values, a):
    # a route's result after its factor e^{ax^2/2}, refused by name where
    # that factor overflowed at a sample the mask kept
    if not np.all(np.isfinite(values)):
        raise ValueError(
            f"e^(ax^2/2) overflows at a = {a:g} where the damped result is "
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
