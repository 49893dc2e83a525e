"""Heat and wave propagators for the 1-D harmonic oscillator.

The heat kernel is implemented three ways: the classical Mehler formula,
a published variant exactly as printed, and the algebraically reconciled
version of that variant.  Propagation is available through direct kernel
quadrature, through a Fourier-multiplier factorization, and through
conjugation with the frequency-side substitution operator; the three
routes are compared, never merged.
"""

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fourier import SpectralFunction, forward_ft, inverse_ft, spectral_resample
from .grids import SampledFunction, quadrature_weights
from .intertwine import (BranchPair, apply_T_inverse, _band_edge,
                         _branch_transform, _damped, _spectral_tail,
                         _transport_rows, _undamped, derive_params, SA_DECAY)
from .dirac import wave_dirac

HEAT_KERNEL_VARIANTS = ("mehler", "paper_literal", "paper_corrected")

# largest allowed at: beyond this even log-space handling is pointless,
# every mode below the 300th has decayed to nothing
MAX_AT = 300.0

# smallest at for the closed-form kernels; below it coth 2at overflows
MIN_AT = 1.0e-300

# smallest t for the closed-form kernels: their Gaussian rate a coth 2at,
# about 1/(2t) at small at, leaves the double range below t ~ 2.8e-309
MIN_T = 1.0e-308

# integrand tails larger than this fraction of the row peak mean the
# quadrature domain is cutting into live kernel mass
TAIL_GUARD = 1.0e-12

# window rows per block when the tail guard needs the integrand's exact
# peak (each block holds _PEAK_BLOCK x n doubles)
_PEAK_BLOCK = 256

# fraction of the peak below which the spectral route zeroes its damped
# result before undamping; it sits above the chirp-transform resampler's
# noise, which scatters a few 1e-14 of the peak across the grid
SPECTRAL_MASK_FLOOR = 1.0e-13


class OscillatorParams:
    """Coupling a > 0 and evolution time t >= 0.

    The closed-form kernels additionally demand t > 0 (delta limit at
    t = 0); the route functions accept t = 0 where the limit is plain.
    """

    __slots__ = ("a", "t")

    def __init__(self, a, t):
        a = float(a)
        t = float(t)
        if not np.isfinite(a) or a <= 0:
            raise ValueError("coupling a must be positive and finite")
        if not np.isfinite(t) or t < 0:
            raise ValueError("time t must be non-negative and finite")
        if a * t > MAX_AT:
            raise ValueError(f"a*t = {a * t:g} exceeds the overflow cap {MAX_AT:g}")
        self.a = a
        self.t = t

    def __repr__(self):
        return f"OscillatorParams(a={self.a!r}, t={self.t!r})"


class KernelTailWarning(UserWarning):
    """Kernel quadrature misses live integrand mass: at the grid edge, or
    between nodes too coarse for the kernel's width."""


def _mehler_terms(a, t):
    # log of sqrt(a/(2 pi sinh 2at)) with sinh expanded around its
    # dominant exponential so large at cannot overflow; 1 - e^{-4at} comes
    # from expm1 so small at keeps its digits
    y = 2.0 * a * t
    one_q = -np.expm1(-2.0 * y)
    log_sinh = y + np.log(one_q) - np.log(2.0)
    log_pref = 0.5 * (np.log(a) - np.log(2.0 * np.pi) - log_sinh)
    q = np.exp(-2.0 * y)
    # coth 2at = 1 + 2q/(1-q), 1/sinh 2at = 2 e^{-y}/(1-q), both exact
    coth = 1.0 + 2.0 * q / one_q
    inv_sinh = 2.0 * np.exp(-y) / one_q
    return log_pref, coth, inv_sinh


def _log_mehler(a, t, x, xp):
    # -(a/2) coth 2at (x^2 + x'^2) + a x x'/sinh 2at without its cancelling
    # O(a x^2/at) terms, since coth 2at - 1/sinh 2at = tanh at; the array
    # comes first so numpy reuses its temporaries on kernel matrices
    log_pref, coth, _ = _mehler_terms(a, t)
    return (x - xp) ** 2 * (-0.5 * a * coth) + log_pref - a * np.tanh(a * t) * x * xp


def _corrected_terms(a, t):
    one_q = -np.expm1(-4.0 * a * t)
    r = np.exp(-2.0 * a * t)
    log_pref = 0.5 * (np.log(a) - np.log(np.pi)) - a * t - 0.5 * np.log(one_q)
    return log_pref, one_q, r


def _log_corrected(a, t, x, xp):
    # sqrt(a/pi) e^{-at} (1-e^{-4at})^{-1/2}
    #   * exp[-a (x - x' e^{-2at})^2 / (1-e^{-4at}) + (a/2)(x^2 - x'^2)]
    log_pref, one_q, r = _corrected_terms(a, t)
    return log_pref - a * (x - xp * r) ** 2 / one_q + 0.5 * a * (x * x - xp * xp)


def _literal_terms(a, t):
    # e^{2at} - e^{-2at} as printed, each exponential through expm1 so the
    # difference keeps its digits at small at (exp rounds both to 1 there)
    s = np.expm1(2.0 * a * t) - np.expm1(-2.0 * a * t)
    log_pref = np.log(a) + 0.5 * (np.log(2.0) - np.log(np.pi)) - 0.5 * np.log(s)
    return log_pref, s


def _literal(a, t, x, xp):
    # as printed: positive exponent and prefactor a sqrt(2/pi); evaluated
    # faithfully, so moderate arguments can already overflow to inf
    log_pref, s = _literal_terms(a, t)
    expo = (np.exp(a * t) * x - np.exp(-a * t) * xp) ** 2 / s \
        + 0.5 * a * (x * x - xp * xp)
    with np.errstate(over="ignore"):
        return np.exp(log_pref + expo)


def _exponent_coefficients(variant, a, t):
    """(c0, cl, cr, B) with log K(t, x, x') = c0 + cl x^2 + cr x'^2 - (B/2)(x - x')^2.

    Each variant's own printed exponent is a quadratic form
    c0 + alpha x^2 + beta x'^2 + B x x'; writing B x x' as
    (B/2)(x^2 + x'^2) - (B/2)(x - x')^2 gives cl = alpha + B/2 and
    cr = beta + B/2.  Both sums cancel to O(at) at small at, so they are
    simplified by hand below instead of being added in floating point.
    """
    if variant == "mehler":
        log_pref, _, inv_sinh = _mehler_terms(a, t)
        # -(a/2) coth 2at + (a/2) / sinh 2at = -(a/2) tanh at
        cl = -0.5 * a * np.tanh(a * t)
        return log_pref, cl, cl, a * inv_sinh
    if variant == "paper_corrected":
        log_pref, one_q, r = _corrected_terms(a, t)
        # x^2: -a/(1-r^2) + a/2 + a r/(1-r^2);  x'^2: -a r^2/(1-r^2) - a/2
        # + a r/(1-r^2); both reduce to -(a/2)(1-r)/(1+r)
        cl = 0.5 * a * np.expm1(-2.0 * a * t) / (1.0 + r)
        return log_pref, cl, cl, 2.0 * a * r / one_q
    log_pref, s = _literal_terms(a, t)
    # x^2: e^{2at}/s + a/2 - 1/s = 1/(1 + e^{-2at}) + a/2;
    # x'^2: e^{-2at}/s - a/2 - 1/s = -1/(1 + e^{2at}) - a/2
    cl = 1.0 / (1.0 + np.exp(-2.0 * a * t)) + 0.5 * a
    cr = -1.0 / (1.0 + np.exp(2.0 * a * t)) - 0.5 * a
    return log_pref, cl, cr, -2.0 / s


def heat_kernel(variant, p, x, xp):
    """Oscillator heat kernel value K(t, x, x') for one variant tag."""
    if variant not in HEAT_KERNEL_VARIANTS:
        raise ValueError(f"unknown heat kernel variant {variant!r}")
    if p.a * p.t < MIN_AT:
        raise ValueError(f"closed-form kernels need a*t >= {MIN_AT:g}, got {p.a * p.t:g}")
    if p.t < MIN_T:
        raise ValueError(f"closed-form kernels need t >= {MIN_T:g}, got {p.t:g}")
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    # at tiny t a Gaussian exponent -(x - x')^2/4t past the double range
    # reads -inf, and its entry underflows to 0 as it should
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "paper_literal":
            out = _literal(p.a, p.t, x, xp)
        else:
            log_k = (_log_mehler if variant == "mehler" else _log_corrected)(p.a, p.t, x, xp)
            if np.any(np.isnan(log_k)):
                # far from the origin the printed exponent can read inf - inf;
                # the same exponent as c0 + cl x^2 + cr x'^2 - (B/2)(x - x')^2
                # adds terms that are never positive here (cl, cr <= 0, B > 0)
                c0, cl, cr, B = _exponent_coefficients(variant, p.a, p.t)
                d = x - xp
                log_k = np.where(np.isnan(log_k),
                                 c0 + cl * x * x + cr * xp * xp - 0.5 * B * d * d, log_k)
            out = np.exp(log_k)
    return float(out) if out.ndim == 0 else out


def heat_ho_kernel_route(u0, p, variant="mehler"):
    """Propagate u0 by quadrature against the heat kernel.

    The kernel matrix factors as K = D_L G D_R: with log K = c0 + cl x^2
    + cr x'^2 - (B/2)(x - x')^2 (each variant's own coefficients), D_L and
    D_R are the diagonals e^{c0 + cl x^2} and e^{cr x'^2}, and G is the
    Toeplitz matrix of g_k = e^{-(B/2)(kh)^2}, k = -(n-1)..(n-1).  So the
    quadrature h D_L G D_R (u w), w the grid's quadrature weights, costs
    4n exponentials and one np.convolve per part of u that is not
    identically zero.  The convolution stays a direct sum, not an FFT, so
    this route shares no machinery with the spectral route.  Each factor
    is scaled so that its largest entry is e^{S/3}, S the sum of the three
    largest exponents; a kernel whose quadrature still leaves the double
    range (the literal variant at small at or on wide grids) raises
    ValueError.

    The x' integral runs over u0's own grid, so the data (not the kernel,
    which is globally positive) must have decayed at the grid ends: a
    KernelTailWarning reports an edge column of the integrand K_ij u_j
    larger than TAIL_GUARD times its peak.  The edge columns cost O(n).
    The integrand's diagonal bounds its peak from below, which settles the
    common, quiet case; otherwise the exact peak is taken over the n^2
    products without any exponential.  The grid must also resolve the
    kernel's width ~ B^{-1/2}: a KernelTailWarning reports where the
    trapezoid sum of the Gaussian factor misses its integral by more than
    TAIL_GUARD (_gauss_step_error).
    """
    if variant not in HEAT_KERNEL_VARIANTS:
        raise ValueError(f"unknown heat kernel variant {variant!r}")
    if p.a * p.t < MIN_AT:
        raise ValueError(f"the kernel route needs a*t >= {MIN_AT:g}, got {p.a * p.t:g}; "
                         "at t = 0 it is the identity")
    if p.t < MIN_T:
        raise ValueError(f"the kernel route needs t >= {MIN_T:g}, got {p.t:g}")
    g = u0.grid
    n = g.n
    x = g.points
    d = g.spacing * np.arange(1 - n, n)
    c0, cl, cr, B = _exponent_coefficients(variant, p.a, p.t)
    with np.errstate(over="ignore", invalid="ignore"):
        # log K(x_i, x_j) = e_l[i] + e_g[n - 1 + i - j] + e_r[j]; an exponent
        # past the double range reads -inf (entry 0) or leaves out non-finite
        e_l = c0 + cl * x * x
        e_g = -0.5 * B * d * d
        e_r = cr * x * x
        third = (e_l.max() + e_g.max() + e_r.max()) / 3.0
        left, gauss, right = (np.exp(e - e.max() + third) for e in (e_l, e_g, e_r))
        right = right * u0.values
        v = right * quadrature_weights(n)
        # real data leave v.imag all zeros, whose convolution adds only
        # zeros: 0.0 stands in for it
        imag = np.convolve(gauss, v.imag, "valid") if v.imag.any() else 0.0
        out = g.spacing * left * (np.convolve(gauss, v.real, "valid") + 1j * imag)
    if not np.all(np.isfinite(out)):
        raise ValueError(
            f"the {variant} kernel overflows on this grid at a = {p.a:g}, "
            f"t = {p.t:g}; its quadrature is not finite"
        )
    tail = _tail_fraction(left, gauss, np.abs(right))
    if tail is not None:
        warnings.warn(
            f"kernel quadrature tail is {tail:.2e} of the integrand "
            "peak; the grid truncates live mass",
            KernelTailWarning,
            stacklevel=2,
        )
    step_error = _gauss_step_error(B, g.spacing) if B > 0 else 0.0
    if step_error > TAIL_GUARD:
        warnings.warn(
            f"kernel width is unresolved: the grid step misses the Gaussian "
            f"factor's integral by {step_error:.2e}; refine the grid",
            KernelTailWarning,
            stacklevel=2,
        )
    return SampledFunction(g, out)


def _gauss_step_error(B, h):
    # relative error of the trapezoid sum of e^{-(B/2) d^2} at step h, by
    # Poisson summation: 2 sum_{m >= 1} e^{-c m^2}, c = 2 pi^2 / (B h^2);
    # for c < 1 the same sum through Jacobi's theta identity, whose terms
    # e^{-pi^2 m^2 / c} decay at once.  c is inf or 0 where B h^2
    # leaves the double range.
    with np.errstate(over="ignore", divide="ignore"):
        c = np.float64(2.0 * np.pi**2) / (B * h * h)
        m = np.arange(1.0, 9.0)
        if c >= 1.0:
            return float(2.0 * np.sum(np.exp(-c * m * m)))
        theta = 1.0 + 2.0 * np.sum(np.exp(-np.pi**2 * m * m / c))
        return float(np.sqrt(np.pi / c) * theta - 1.0)


def _tail_fraction(left, gauss, mag):
    # edge / peak of the integrand left_i gauss[n-1+i-j] mag_j when the
    # edge columns j = 0, n-1 exceed TAIL_GUARD times the peak, else None
    n = left.size
    edge = max(np.max(left * gauss[n - 1:]) * mag[0],
               np.max(left * gauss[:n]) * mag[-1])
    # the diagonal i = j holds integrand entries, so its max is <= the peak
    if edge <= TAIL_GUARD * np.max(left * gauss[n - 1] * mag):
        return None
    # column j reads gauss[n-1-j+i] over i: window n-1-j of gauss
    windows = sliding_window_view(gauss, n)
    col_peak = np.concatenate([
        np.max(windows[m:m + _PEAK_BLOCK] * left, axis=1)
        for m in range(0, n, _PEAK_BLOCK)])
    peak = np.max(col_peak * mag[::-1])
    if peak > 0.0 and edge > TAIL_GUARD * peak:
        return edge / peak
    return None


def heat_ho_spectral_route(u0, p):
    """Propagate u0 through the damped-Fourier factorization.

    Chain: damp by e^{-ax^2/2}, transform, read the spectrum at the
    contracted frequencies xi e^{-2at} (band-limited resampling), apply
    the Gaussian multiplier e^{-(1-e^{-4at}) xi^2/4a}, transform back,
    undamp, and scale by e^{-at}.  The undamping step amplifies like the
    inverse substitution operator does, so the damped result is masked
    at SPECTRAL_MASK_FLOOR of its peak first.
    """
    a, t = p.a, p.t
    g = u0.grid
    G = forward_ft(SampledFunction(g, _damped(u0, a)))
    tail = _spectral_tail(G, _band_edge(g))
    if tail > SA_DECAY:
        raise ValueError(
            f"damped data is not band-limited on this grid "
            f"(tail mass {tail:.2e}); refine the grid or shrink the data"
        )
    shrunk = spectral_resample(G, np.exp(-2.0 * a * t))
    xi = shrunk.xi_grid.points
    # at a tiny a the exponent reads -inf past xi = 0, and its factor 0 as
    # it should
    with np.errstate(over="ignore"):
        mult = np.exp(-(1.0 - np.exp(-4.0 * a * t)) * xi * xi / (4.0 * a))
    out = inverse_ft(
        SpectralFunction(shrunk.xi_grid, mult * shrunk.values, shrunk.x_grid)
    )
    return _undamped(g, np.exp(-a * t) * out.values, a, SPECTRAL_MASK_FLOOR)


def heat_via_intertwining(u0, p):
    """Propagate u0 by conjugating transport with the substitution operator.

    The transform variable satisfies |xi| = e^{-2aX}, so translating a
    branch by t in X reads the spectrum at the contracted frequencies
    xi e^{-2at}.  Those values are recomputed by fresh phase sums at the
    shifted nodes (a spectral phase shift would be wrong here: the branch
    carries the growing weight, and only the underlying spectrum is
    band-limited).  The transform grids are derived from u0's own
    spectrum, which therefore needs no separate coverage check; the X step
    is then shrunk to t/s, so the shifted nodes X_k + t are the window's
    nodes X_{k+s} continued past its end, and the forward and inverse sums
    share rows of one phase-table set.
    """
    if not np.any(u0.values):
        # no window can be derived from zero data, and none is needed
        return SampledFunction(u0.grid, np.zeros(u0.grid.n, dtype=complex))
    ip, xi, tables = _transport_rows(derive_params(p.a, u0.grid, u0), p.t)
    shifted = _branch_transform(_damped(u0, p.a), ip, xi, tables)
    return apply_T_inverse(shifted, ip)


def wave_ho(v0, p):
    """Wave evolution sin(t sqrt(L))/sqrt(L) applied to v0.

    Conjugates the windowed Dirac wave propagator with the substitution
    operator, branch by branch, on transform grids derived from v0's own
    spectrum.
    """
    return _wave_ho_times(v0, p.a, (p.t,))[0]


def _wave_ho_times(v0, a, times):
    """wave_ho(v0, (a, t)) for each t in times, on one transform window.

    The window, its phase tables and the forward transform depend on v0
    alone, so they are built once; only wave_dirac and the inverse run
    per time.  Each result equals its own wave_ho call bit for bit.
    """
    out = [SampledFunction(v0.grid, np.zeros(v0.grid.n, dtype=complex)) for _ in times]
    live = [k for k, t in enumerate(times) if t != 0]
    if not live or not np.any(v0.values):
        return out
    ip = derive_params(a, v0.grid, v0)
    b = _branch_transform(_damped(v0, a), ip)
    for k in live:
        t = times[k]
        out[k] = apply_T_inverse(BranchPair(wave_dirac(b.plus, t), wave_dirac(b.minus, t)), ip)
    return out
