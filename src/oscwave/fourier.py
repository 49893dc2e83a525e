"""Continuous Fourier transform in the symmetric 1/sqrt(2pi) convention.

forward:  (Ff)(xi) = (1/sqrt(2pi)) integral e^{-i x xi} f(x) dx
inverse:  f(x)     = (1/sqrt(2pi)) integral e^{+i x xi} F(xi) dxi

realized by the FFT with explicit amplitude (h/sqrt(2pi)) and phase
e^{-i xi x_min} corrections so a grid starting away from 0 transforms
correctly.  The frequency grid is reciprocal to the space grid,
d_xi = 2pi/(n h), centered with xi = 0 on-grid.
"""

import warnings

import numpy as np

from .grids import Grid1D, SampledFunction, make_grid

__all__ = [
    "SpectralFunction",
    "EdgeDecayWarning",
    "forward_ft",
    "inverse_ft",
    "spectral_resample",
]

SQRT_2PI = np.sqrt(2.0 * np.pi)

# Edge samples above this fraction of the peak mean the data has not decayed
# on the grid and the periodized transform is suspect.
DECAY_TOL = 1.0e-10


class EdgeDecayWarning(UserWarning):
    """Data (or spectrum) carries mass at the edge of its grid."""


class SpectralFunction:
    """Spectrum samples on the centered reciprocal grid of a space grid.

    Carries the originating space grid so the inverse transform is lossless;
    xi_grid.spacing * x_grid.spacing * n == 2pi by construction.
    """

    def __init__(self, xi_grid, values, x_grid):
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (xi_grid.n,):
            raise ValueError("spectrum length does not match its grid")
        if x_grid.n != xi_grid.n:
            raise ValueError("space and frequency grids must have equal size")
        recip = 2.0 * np.pi / (x_grid.n * x_grid.spacing)
        if abs(xi_grid.spacing - recip) > 1e-12 * recip:
            raise ValueError("frequency grid is not reciprocal to the space grid")
        self.xi_grid = xi_grid
        self.values = vals
        self.x_grid = x_grid


def _xi_grid_for(x_grid):
    n = x_grid.n
    d_xi = 2.0 * np.pi / (n * x_grid.spacing)
    # fftshift layout: frequencies -floor(n/2)..ceil(n/2)-1 times d_xi,
    # which is exactly a half-open uniform grid with 0 on it
    k_min = -(n // 2)
    return make_grid(k_min * d_xi, (k_min + n) * d_xi, n)


def _check_edge_decay(values, what):
    """Warn for each column of values (n samples, or an n x k block) whose
    ends have not decayed; called from _transform, so the warning points at
    the caller of the transform's caller."""
    mag = np.abs(values.reshape(len(values), -1))
    for first, last, peak in zip(mag[0].tolist(), mag[-1].tolist(), mag.max(axis=0).tolist()):
        edge = max(first, last)
        if edge > DECAY_TOL * peak:
            warnings.warn(
                f"{what} has not decayed at its grid ends "
                f"(edge/peak = {edge / peak:.2e})",
                EdgeDecayWarning,
                stacklevel=4,
            )


def _transform(values, x_grid, xi_grid, inverse=False):
    """forward_ft's spectrum of each column of values (n samples on x_grid,
    or an n x k block of k functions), or with inverse=True inverse_ft's
    samples of each column of spectrum values on xi_grid, the reciprocal
    grid of x_grid.  Both keep one convention: the FFT along axis 0 with
    the amplitude h/sqrt(2pi) and the phase e^{-i xi x_min}."""
    _check_edge_decay(values, "inverse_ft input" if inverse else "forward_ft input")
    xi = xi_grid.points.reshape((-1,) + (1,) * (values.ndim - 1))
    if inverse:
        return (SQRT_2PI / x_grid.spacing) * np.fft.ifft(
            np.fft.ifftshift(values * np.exp(1j * xi * x_grid.x_min), axes=0), axis=0)
    return (x_grid.spacing / SQRT_2PI) * np.exp(-1j * xi * x_grid.x_min) * np.fft.fftshift(
        np.fft.fft(values, axis=0), axes=0)


def forward_ft(f):
    """Transform a SampledFunction to its SpectralFunction.

    Warns (EdgeDecayWarning) when the input has not decayed at the grid
    ends; the transform is still returned.
    """
    xi_grid = _xi_grid_for(f.grid)
    return SpectralFunction(xi_grid, _transform(f.values, f.grid, xi_grid), f.grid)


def inverse_ft(F):
    """Transform a SpectralFunction back to its SampledFunction."""
    return SampledFunction(F.x_grid, _transform(F.values, F.x_grid, F.xi_grid, inverse=True))


def spectral_resample(F, scale):
    """Evaluate a spectrum at scaled frequencies: values F(scale * xi_j).

    The samples define a trigonometric interpolant (the spectrum of the
    finite sample set); it is evaluated exactly at the scaled frequencies
    with a chirp-z transform, which is band-limited (sinc) interpolation
    without requiring 1/scale to be an integer.

    scale must lie in (0, 1]; scale > 1 would need frequencies outside the
    sampled band.  A spectrum with mass near the band edge triggers an
    EdgeDecayWarning since its interpolation is unreliable.
    """
    if not (0.0 < scale <= 1.0):
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    n = F.xi_grid.n
    band = np.abs(F.values)
    peak = np.max(band)
    outer = n // 10
    if peak > 0 and outer > 0:
        edge_mass = max(np.max(band[:outer]), np.max(band[-outer:]))
        if edge_mass > 1e-6 * peak:
            warnings.warn(
                "spectrum carries mass near the band edge; resampling "
                f"degrades there (edge/peak = {edge_mass / peak:.2e})",
                EdgeDecayWarning,
                stacklevel=2,
            )
    g = F.x_grid
    # recover the space samples, then evaluate their spectrum at
    # xi'_k = scale * d_xi * (k - n//2) via the chirp-z transform
    fvals = inverse_ft(F).values
    sums = _chirp_z(fvals, 2.0 * np.pi * scale / n, n // 2)
    xi_new = scale * F.xi_grid.points
    vals = (g.spacing / SQRT_2PI) * np.exp(-1j * xi_new * g.x_min) * sums
    return SpectralFunction(F.xi_grid, vals, g)


def _chirp_z(x, phi, shift):
    """The sums sum_j x_j e^{-i phi j (k - shift)} for k = 0..n-1, n = len(x).

    Bluestein's chirp-z transform: with jk = (j^2 + k^2 - (k-j)^2)/2 the
    sums become one convolution with the chirp e^{i phi m^2/2}, done by
    zero-padded power-of-two FFTs.  Each chirp phase is formed from the
    exact integer m^2, so no error compounds along m.
    """
    n = x.size
    m = np.arange(1 - n, n)
    chirp = np.exp(1j * (0.5 * phi * (m * m)))
    down = chirp[n - 1:].conj()
    k = np.arange(n)
    size = 1 << (2 * n - 2).bit_length()
    conv = np.fft.ifft(np.fft.fft(x * np.exp(1j * phi * (shift * k)) * down, size)
                       * np.fft.fft(chirp, size))
    return down * conv[n - 1:2 * n - 1]
