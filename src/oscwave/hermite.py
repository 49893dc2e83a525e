"""Hermite eigenfunctions of the oscillator and spectral propagators on them.

h_n(x) = (a/pi)^{1/4} (2^n n!)^{-1/2} H_n(sqrt(a) x) e^{-a x^2/2} form an
orthonormal basis with (d^2/dx^2 - a^2 x^2) h_n = -(2n+1) a h_n.  Expanding
initial data in this basis gives independent ground-truth propagators:
multiply coefficient n by e^{-(2n+1)at} for heat, by
sin(t sqrt((2n+1)a)) / sqrt((2n+1)a) for the wave problem.
"""

import warnings

import numpy as np

from .grids import SampledFunction, quadrature, quadrature_weights

__all__ = [
    "SpectralCoefficients",
    "hermite_fn",
    "hermite_table",
    "expand",
    "reconstruct",
    "heat_oracle",
    "wave_oracle",
    "wave_oracle_velocity",
    "wave_energy",
]

MAX_MODE = 256
TAIL_WARN = 1.0e-6


class SpectralCoefficients:
    """Eigenfunction coefficients c_0..c_N for one coupling a."""

    def __init__(self, a, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("need a flat, non-empty coefficient vector")
        if coeffs.size - 1 > MAX_MODE:
            raise ValueError(f"mode count capped at {MAX_MODE}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.a = float(a)
        if (2 * coeffs.size - 1) * self.a > np.finfo(float).max:
            raise ValueError(f"coupling a = {self.a:g} is too large for {coeffs.size} "
                             "modes: the rate (2n+1)a of the last one overflows")
        self.coeffs = coeffs
        # (n_max, a, grid, table) of the projection that produced these
        # coefficients, set by expand; reused only while the key matches
        self._table = None

    @property
    def n_max(self):
        return self.coeffs.size - 1

    def tail_fraction(self):
        """|c_N| relative to the largest coefficient, for truncation checks."""
        peak = np.max(np.abs(self.coeffs))
        return float(np.abs(self.coeffs[-1]) / peak) if peak > 0 else 0.0


def hermite_table(n_max, a, x):
    """Rows 0..n_max of the orthonormal eigenfunctions at the points x.

    Three-term recurrence on the normalized functions in the scaled
    variable y = sqrt(a) x; no factorials, stable to n = 256.
    """
    if n_max < 0 or n_max > MAX_MODE:
        raise ValueError(f"mode index must lie in 0..{MAX_MODE}")
    if a <= 0:
        raise ValueError("coupling a must be positive")
    x = np.asarray(x, dtype=float)
    y = np.sqrt(a) * x
    out = np.empty((n_max + 1, x.size))
    # far out at a huge a, y^2 overflows and its factor reads 0
    with np.errstate(over="ignore"):
        out[0] = (a / np.pi) ** 0.25 * np.exp(-0.5 * y**2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * y * out[0]
    # h_{n+1} = sqrt(2/(n+1)) y h_n - sqrt(n/(n+1)) h_{n-1}, written into
    # its row in place, in that order of operations.  Rejected: the
    # products y sqrt(2/(n+1)) as one precomputed table, the same bits but
    # 0.64 -> 1.96 ms at 128 modes x 2048 points (2 CPUs, numpy 2.4), for
    # its 2 MB temporary
    n = np.arange(1, n_max)
    up = np.sqrt(2.0 / (n + 1))
    down = np.sqrt(n / (n + 1.0))
    tmp = np.empty_like(y)
    for k in range(1, n_max):
        row = out[k + 1]
        np.multiply(y, up[k - 1], out=row)
        row *= out[k]
        np.multiply(out[k - 1], down[k - 1], out=tmp)
        row -= tmp
    return out


def hermite_fn(n, a, x):
    """The n-th orthonormal eigenfunction at x (scalar or array)."""
    scalar = np.ndim(x) == 0
    vals = hermite_table(n, a, np.atleast_1d(x))[n]
    return float(vals[0]) if scalar else vals


def eigenvalue(n, a):
    """Eigenvalue of d^2/dx^2 - a^2 x^2 on mode n: -(2n+1) a."""
    return -(2 * n + 1) * a


def expand(f, a, n_max):
    """Project a sampled function onto modes 0..n_max by quadrature.

    Warns when the last coefficient is above 1e-6 of the largest one
    (truncation not converged).  The coefficients keep the table they
    were projected with, so synthesizing on f's grid builds no second one.
    """
    a = float(a)  # the coefficients' own a, so the kept table is theirs
    return _project(f, a, hermite_table(n_max, a, f.grid.points))


def _pairs(v):
    # a contiguous complex vector as the n x 2 real matrix of its (Re, Im)
    # pairs, without a copy.  A real table times it is two real products
    # in one BLAS call; table @ v would copy the table to complex first
    return v.view(float).reshape(-1, 2)


def _project(f, a, table):
    # expand with the table of f's grid given
    w = f.grid.spacing * quadrature_weights(f.grid.n)
    c = SpectralCoefficients(a, (table @ _pairs(w * f.values)).view(complex).ravel())
    c._table = (c.n_max, c.a, f.grid, table)
    if c.tail_fraction() > TAIL_WARN:
        warnings.warn(
            f"expansion tail |c_{c.n_max}| is {c.tail_fraction():.2e} of the "
            "peak coefficient; raise n_max or enlarge the grid",
            stacklevel=3,
        )
    return c


def _table_for(c, grid):
    # hermite_table(c.n_max, c.a, grid.points), or the table c was projected
    # with when it was built for these modes, this coupling and this grid
    kept = c._table
    if kept is not None and kept[:3] == (c.n_max, c.a, grid):
        return kept[3]
    return hermite_table(c.n_max, c.a, grid.points)


def _synthesize(c, grid, multipliers):
    vals = (_table_for(c, grid).T @ _pairs(multipliers * c.coeffs)).view(complex).ravel()
    return SampledFunction(grid, vals)


def reconstruct(c, grid):
    """Sum c_n h_n on a grid."""
    return _synthesize(c, grid, np.ones(c.n_max + 1))


def _rates(c):
    # -eigenvalue of each of c's modes, (2n+1)a
    return -eigenvalue(np.arange(c.n_max + 1), c.a)


def heat_oracle(c, t, grid):
    """Heat evolution: coefficient n decays as e^{-(2n+1)a t}."""
    return _synthesize(c, grid, np.exp(-_rates(c) * t))


def _wave_multipliers(c, t):
    root = np.sqrt(_rates(c))
    return np.sin(t * root) / root


def wave_oracle(c, t, grid):
    """Wave evolution from rest: v(0) = 0, dv/dt(0) = sum c_n h_n."""
    return _synthesize(c, grid, _wave_multipliers(c, t))


def wave_oracle_velocity(c, t, grid):
    """Exact time derivative of wave_oracle: multipliers cos(t sqrt(lam))."""
    return _synthesize(c, grid, np.cos(t * np.sqrt(_rates(c))))


def wave_energy(c, t, grid):
    """Wave energy ||dv/dt||^2 + sum lam_n |<v, h_n>|^2 at time t.

    The inner products are recomputed by quadrature from the sampled
    solution, so the constancy of this quantity exercises the grid,
    the projection, and the multipliers together.
    """
    v = wave_oracle(c, t, grid)
    dv = wave_oracle_velocity(c, t, grid)
    proj = _project(v, c.a, _table_for(c, grid))
    kinetic = abs(quadrature(SampledFunction(grid, np.abs(dv.values) ** 2)))
    potential = float(np.sum(_rates(c) * np.abs(proj.coeffs) ** 2))
    return kinetic + potential
