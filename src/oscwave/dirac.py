"""Propagators for the first-order derivative operator on the line.

The heat flow of d/dX is plain transport, solved exactly by translation.
The wave flow has a closed-form kernel in two equivalent shapes, one
through the complementary error function and one through the Tricomi
function; both are implemented, cross-checked, and confronted with an
independent spectral-multiplier solution.
"""

import math
import warnings

import numpy as np

from .fourier import DECAY_TOL, SpectralFunction, forward_ft, inverse_ft
from .grids import SampledFunction
from .special import SQRT_PI, erfc_paper, tricomi_u

# live spectral content below this fraction of the peak is treated as
# zero before the wave multiplier can amplify it
ORACLE_BAND_TOL = 1.0e-13

# cap on t*sqrt(R/2); beyond it the multiplier tops 1e10 and the
# oracle output would be dominated by band-edge content
ORACLE_GROWTH_CAP = 25.0

# Simpson nodes in sigma for wave_dirac (odd: an even interval count)
WAVE_QUAD_POINTS = 257

# samples per local Lagrange fit when wave_dirac reads V0 between samples
_STENCIL = 8


class ShiftCoverageWarning(UserWarning):
    """Translation pulled data across the periodic seam of the grid."""


def _check_time(t):
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("time t must be non-negative and finite")


def heat_dirac(U0, t):
    """Translate U0 by t: the transport solution U(t, X) = U0(X + t).

    The shift is done by a spectral phase factor, so it is exact for
    band-limited data at any real offset, on-grid or not.  Data whose
    support would be pushed across the grid boundary re-enters on the
    other side; that case is flagged with ShiftCoverageWarning.
    """
    _check_time(t)
    if t == 0:
        return SampledFunction(U0.grid, U0.values.copy())
    F = forward_ft(U0)
    xi = F.xi_grid.points
    _warn_if_wrapping(U0, t)
    # e^{i xi t} is periodic in t with the period n h that the frequency
    # grid implies, and xi t rounds at its own scale: reduce t first (fmod
    # is exact, t < n h stays as it is, and xi times the reduced t is
    # finite for every finite t)
    shift = math.fmod(t, U0.grid.n * U0.grid.spacing)
    shifted = SpectralFunction(F.xi_grid, F.values * np.exp(1j * xi * shift), F.x_grid)
    return inverse_ft(shifted)


def _warn_if_wrapping(U0, t):
    mag = np.abs(U0.values)
    peak = np.max(mag)
    if peak == 0.0:
        return
    live = U0.grid.points[mag > DECAY_TOL * peak]
    if live.size and live.min() - t < U0.grid.x_min:
        warnings.warn(
            f"shift by t={t:g} moves live data past the grid start; "
            "the result wraps around",
            ShiftCoverageWarning,
            stacklevel=3,
        )


def wave_kernel_forms(t, X, Xp):
    """Wave kernel of the derivative operator in its two algebraically
    identical closed forms, (Erfc form, Tricomi form), broadcast over t,
    X and X'.  Scalar arguments give floats."""
    t, X, Xp = (np.asarray(v, dtype=float) for v in (t, X, Xp))
    if not all(np.all(np.isfinite(v)) for v in (t, X, Xp)):
        raise ValueError("the wave kernel needs finite t, X and X'")
    gap = np.abs(X - Xp)
    if np.any(t <= 0):
        raise ValueError("the wave kernel needs t > 0")
    if np.any(gap == 0):
        raise ValueError("X == X' makes the kernel argument singular")
    z2 = t * t / (4.0 * gap)
    w_erfc = (2.0 / SQRT_PI) * erfc_paper(np.sqrt(z2))
    w_tric = (t / np.sqrt(4.0 * np.pi * gap)) * np.exp(-z2) * tricomi_u(
        1.0, 1.5, z2)
    return w_erfc, w_tric


def _lagrange_basis(s):
    """The Lagrange basis on the nodes 0.._STENCIL-1 evaluated at each s,
    shape (len(s), _STENCIL).  The product form has no division by
    (s - node), so exact node hits are harmless.  Column i is the product
    of (s - j)/(i - j) in increasing j, one node j at a time for all
    columns, with an exact factor 1 at j = i."""
    nodes = np.arange(_STENCIL)
    basis = np.ones((s.size, _STENCIL))
    for j in range(_STENCIL):
        gaps = nodes - j
        gaps[j] = 1
        factors = (s - j)[:, None] / gaps
        factors[:, j] = 1.0
        basis *= factors
    return basis


def wave_dirac(V0, t):
    """Windowed convolution solution of the wave problem for d/dX.

    V(t, X) integrates the wave kernel against V0 over |X - X'| < t/2.
    Near the window center the kernel argument diverges while the kernel
    itself vanishes; substituting the offset u = (t/2) s with s = sigma^2
    turns the integrand into a bounded smooth function of sigma on [0, 1],
    which composite Simpson then handles at spectral-free second order:

        V(t, X) = (2/sqrt(pi)) t * int_0^1 Erfc(sqrt(t/2)/sigma)
                  [V0(X - u) + V0(X + u)] sigma dsigma,   u = sigma^2 t/2.

    The grid is uniform and every sample moves by the same offsets +-u,
    so each translate V0(X +- u) is read through one 8-point Lagrange
    stencil shared by all X, and the weighted stencils add up to one real
    tap vector: V is a single direct convolution of V0 with it.  V0 reads
    as zero outside its samples, one rule for every X: only data that has
    not decayed within t/2 + 4 samples of an end feels the cut there.
    """
    _check_time(t)
    g = V0.grid
    if t == 0:
        return SampledFunction(g, np.zeros(g.n, dtype=complex))
    return SampledFunction(g, _wave_convolve(V0.values, _wave_taps(g, t), t))


def _wave_taps(grid, t):
    """wave_dirac's tap vector at time t > 0 on grid: taps[reach + j]
    weighs V0[i + j] in V[i], with 2 reach + 1 taps."""
    if t / 2.0 >= (grid.x_max - grid.x_min) / 4.0:
        raise ValueError(
            f"integration window t/2 = {t / 2.0:g} exceeds a quarter of "
            "the grid span; enlarge the grid or reduce t"
        )
    sigma = np.linspace(0.0, 1.0, WAVE_QUAD_POINTS)
    # Simpson, not the trapezoid rule: the integrand does not vanish at 1
    w = np.ones(WAVE_QUAD_POINTS)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w = (sigma[1] - sigma[0]) * (w / 3.0)
    # sigma = 0 contributes nothing: the kernel factor decays like
    # exp(-t/(2 sigma^2)) and the Jacobian vanishes too
    s = sigma[1:]
    coef = w[1:] * (erfc_paper(np.sqrt(t / 2.0) / s) * s)
    u = s * s * t / 2.0
    # offset in samples = whole part + fraction; the stencil for the
    # fraction sits on the samples whole - 3 .. whole + 4
    shift = np.concatenate([-u, u]) / grid.spacing
    whole = np.floor(shift)
    lead = _STENCIL // 2 - 1
    taps_at = whole.astype(int)[:, None] - lead + np.arange(_STENCIL)
    weights = np.tile(coef, 2)[:, None] * _lagrange_basis(shift - whole + lead)
    reach = int(np.max(np.abs(taps_at)))
    return np.bincount((taps_at + reach).ravel(), weights=weights.ravel(),
                       minlength=2 * reach + 1)


def _wave_convolve(values, taps, t):
    """wave_dirac's values at time t from V0's values and _wave_taps(grid, t)."""
    reach = taps.size // 2
    # V[i] = sum_j taps[reach + j] V0[i + j]: convolve with the reversed taps
    acc = np.convolve(values, taps[::-1])[reach:reach + values.size]
    return (2.0 / SQRT_PI) * t * acc


def spectral_wave_oracle_dirac(V0, t):
    """Independent wave solution by a spectral multiplier.

    On each Fourier mode e^{i xi X} the equation d^2/dt^2 V = dV/dX reads
    y'' = (i xi) y, so with V(0) = 0 and V_t(0) = V0 the mode evolves by
    the entire function sin(t sqrt(z))/sqrt(z) at z = -i xi.  Exact for
    band-limited data; the only approximations are the FFT pair and the
    suppression of spectrally dead bins, which would otherwise be blown
    up exponentially by the multiplier.
    """
    _check_time(t)
    F = forward_ft(V0)
    xi = F.xi_grid.points
    vals = F.values.copy()
    peak = np.max(np.abs(vals))
    if peak == 0.0:
        return SampledFunction(V0.grid, np.zeros(V0.grid.n, dtype=complex))
    live = np.abs(vals) > ORACLE_BAND_TOL * peak
    vals[~live] = 0.0
    radius = np.max(np.abs(xi[live]))
    growth = float(t) * math.sqrt(radius / 2.0)
    if growth > ORACLE_GROWTH_CAP:
        raise ValueError(
            f"t*sqrt(R/2) = {growth:.4g} exceeds {ORACLE_GROWTH_CAP:g}; "
            "the multiplier would amplify the band edge past 1e10"
        )
    # sin(w)/w at w = t sqrt(z), z = -i xi, on every live bin at once; below
    # |w| = 2^-26 it rounds to 1, so those bins (w = 0, and a subnormal w
    # whose t sin(w)/w would overflow) take the limit t exactly
    w = t * np.sqrt(-1j * xi[live])
    tiny = np.abs(w) < 2.0**-26
    w[tiny] = 1.0
    vals[live] *= np.where(tiny, t, t * np.sin(w) / w)
    return inverse_ft(SpectralFunction(F.xi_grid, vals, F.x_grid))
