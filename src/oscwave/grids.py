"""Uniform grids, sampled functions, quadrature and finite-difference residuals.

Everything downstream works on half-open uniform grids: n samples
x_j = x_min + j*h with h = (x_max - x_min)/n, so the nominal right endpoint
x_max is one spacing past the last sample.  This convention is shared with
the FFT layout in :mod:`oscwave.fourier`, which is why it is not negotiable.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid1D",
    "SampledFunction",
    "VerificationReport",
    "make_grid",
    "make_report",
    "quadrature",
    "fd_residual",
    "residual_convergence_order",
    "rel_l2_error",
]

MIN_POINTS = 8
MIN_RESIDUAL_POINTS = 16

OPERATOR_TAGS = ("heat_ho", "heat_dirac", "wave_dirac", "wave_ho")
REFINEMENT_LEVELS = 3  # grids residual_convergence_order fits its slope over


@dataclass(frozen=True)
class Grid1D:
    """Half-open uniform grid: n samples x_min + j*(x_max - x_min)/n."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if self.x_max <= self.x_min:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not np.isfinite(float(self.x_max) - float(self.x_min)):
            raise ValueError(f"the span of [{self.x_min}, {self.x_max}] "
                             "leaves the double range")
        if self.n < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} samples, got {self.n}")

    @property
    def spacing(self):
        return (self.x_max - self.x_min) / self.n

    @property
    def points(self):
        return self.x_min + self.spacing * np.arange(self.n)

    def interior(self):
        """Grid with the first and last sample dropped (same spacing)."""
        h = self.spacing
        return Grid1D(self.x_min + h, self.x_max - h, self.n - 2)


def make_grid(x_min, x_max, n):
    """Build a half-open uniform grid.

    Parameters
    ----------
    x_min, x_max : float
        Bounds with x_min < x_max.  x_max itself is not a sample.
    n : int
        Sample count, at least 8.
    """
    return Grid1D(float(x_min), float(x_max), int(n))


@dataclass
class SampledFunction:
    """Complex values attached to a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"value count {vals.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must be finite")
        self.values = vals

    def norm_l2(self):
        """Grid L2 norm, sqrt(h * sum |f_j|^2)."""
        return float(np.sqrt(self.grid.spacing * np.sum(np.abs(self.values) ** 2)))


def rel_l2_error(f, g):
    """Relative L2 distance between two functions on the same grid."""
    if f.grid != g.grid:
        raise ValueError("functions live on different grids")
    denom = g.norm_l2()
    if denom == 0.0:
        return f.norm_l2()
    return float(
        np.sqrt(f.grid.spacing * np.sum(np.abs(f.values - g.values) ** 2)) / denom
    )


@dataclass
class VerificationReport:
    """One verdict line: a named metric against its tolerance.

    verdict is "pass" iff metric <= tolerance, "fail" otherwise, except for
    purely descriptive entries which carry verdict "informational".
    """

    check_name: str
    metric: float
    tolerance: float
    verdict: str
    notes: str = ""

    def __post_init__(self):
        if self.metric < 0 or self.tolerance < 0:
            raise ValueError("metric and tolerance must be non-negative")
        if self.verdict not in ("pass", "fail", "informational"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict != "informational":
            expected = "pass" if self.metric <= self.tolerance else "fail"
            if self.verdict != expected:
                raise ValueError("verdict inconsistent with metric vs tolerance")


def make_report(check_name, metric, tolerance, informational=False, notes=""):
    metric = float(metric)
    if informational:
        verdict = "informational"
    else:
        verdict = "pass" if metric <= tolerance else "fail"
    return VerificationReport(check_name, metric, float(tolerance), verdict, notes)


def quadrature_weights(n):
    """Trapezoid weights [1/2, 1, ..., 1, 1/2]: quadrature(f) = h * sum w_j f_j,
    exposed for kernel-matrix contractions and other node sets."""
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def quadrature(f):
    """Integrate a SampledFunction over [x_min, x_max - h], the span its
    samples cover, by the trapezoid rule.  Functions integrated here are
    expected to have decayed at the grid ends, where the rule converges
    geometrically and the missing half-open tail cell is below rounding.
    """
    w = quadrature_weights(f.grid.n)
    return complex(f.grid.spacing * np.dot(w, f.values))


def _centered_d(values, h):
    """Centered first difference at the interior samples."""
    return (values[2:] - values[:-2]) / (2.0 * h)


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly: Dekker's product on
    Veltkamp splits, exact for |a|, |b| < 2^996 while a b stays normal."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    a1, b1 = ca - (ca - a), cb - (cb - b)
    a2, b2 = a - a1, b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _d2(values, h):
    return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / h**2


def fd_residual(field, operator_tag, t, dt, a=1.0):
    """Centered finite-difference residual of an evolution equation.

    Parameters
    ----------
    field : callable t -> SampledFunction
        Time-indexed family on a fixed grid; evaluated at t-dt, t, t+dt.
    operator_tag : one of "heat_ho", "heat_dirac", "wave_dirac", "wave_ho"
        heat_*: du/dt - (spatial operator)u.  wave_*: d^2u/dt^2 - (...)u.
        The *_ho operators use d^2/dx^2 - a^2 x^2, the *_dirac ones d/dX.
    t, dt : float
        Center time and time step, dt > 0.
    a : float
        Oscillator coupling, used by the *_ho tags.

    Returns
    -------
    SampledFunction on the interior grid (first and last sample dropped);
    second order in both dt and the grid spacing.
    """
    if operator_tag not in OPERATOR_TAGS:
        raise ValueError(f"unknown operator tag {operator_tag!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    fm, f0, fp = field(t - dt), field(t), field(t + dt)
    g = f0.grid
    if g.n < MIN_RESIDUAL_POINTS:
        raise ValueError(f"grid too coarse for residuals (n={g.n})")
    if fm.grid != g or fp.grid != g:
        raise ValueError("field snapshots must share one grid")
    h = g.spacing
    x = g.points

    if operator_tag.startswith("heat"):
        dt_term = (fp.values - fm.values) / (2.0 * dt)
    else:
        dt_term = (fp.values - 2.0 * f0.values + fm.values) / dt**2

    if operator_tag.endswith("dirac"):
        space_term = _centered_d(f0.values, h)
    else:
        space_term = _d2(f0.values, h) - (a * x[1:-1]) ** 2 * f0.values[1:-1]

    return SampledFunction(g.interior(), dt_term[1:-1] - space_term)


def residual_convergence_order(solution, operator_tag, t, a, base_grid, dt0):
    """Measured convergence order of fd_residual under joint h, dt halving
    over REFINEMENT_LEVELS levels.

    Parameters
    ----------
    solution : callable (t, x_array) -> values
        Smooth continuum solution of the tagged equation.
    base_grid : Grid1D for the coarsest level; n doubles per level.
    dt0 : coarsest time step; halves per level.

    Returns the least-squares slope of log2(sup residual) against level,
    negated so second-order convergence reads as about 2.
    """
    sups = []
    for k in range(REFINEMENT_LEVELS):
        g = make_grid(base_grid.x_min, base_grid.x_max, base_grid.n * 2**k)
        dt = dt0 / 2**k

        def field(s, g=g):
            return SampledFunction(g, solution(s, g.points))

        r = fd_residual(field, operator_tag, t, dt, a)
        sups.append(np.max(np.abs(r.values)))
    slope = np.polyfit(np.arange(REFINEMENT_LEVELS), np.log2(sups), 1)[0]
    return float(-slope)
