"""Heat kernel for the two-variable degenerate operator d^2/dx^2 + x^2 d^2/dy^2.

A partial Fourier transform in y turns the operator into the harmonic
oscillator family with the dual variable as coupling, so the kernel is a
single quadrature of the oscillator heat kernel over that parameter.
"""

import numpy as np

from .grids import quadrature_weights
from .oscillator import MAX_AT, MIN_AT, _log_mehler

# the dual-parameter integrand must clear this decay by the cutoff
CUTOFF_DECAY = 1.0e-12

MIN_NODES = 129

# most entries in one (pairs x nodes) magnitude table; a 256 x 256 dump at
# 1025 nodes would otherwise hold ~0.5 GB per table
_TABLE_ENTRIES = 1 << 18


class GrushinPoint:
    """Evaluation point (x, y, x', y') and time t > 0."""

    __slots__ = ("x", "y", "xp", "yp", "t")

    def __init__(self, x, y, xp, yp, t):
        t = float(t)
        if not np.isfinite(t) or t <= 0:
            raise ValueError("time t must be positive and finite")
        vals = [float(v) for v in (x, y, xp, yp)]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("coordinates must be finite")
        self.x, self.y, self.xp, self.yp = vals
        self.t = t

    def __repr__(self):
        return (f"GrushinPoint(x={self.x!r}, y={self.y!r}, xp={self.xp!r}, "
                f"yp={self.yp!r}, t={self.t!r})")


def oscillator_kernel_in_coupling(a, t, x, xp):
    """Mehler kernel as a function of the coupling array a >= 0.

    a, x and xp broadcast against each other (a row of couplings against
    a column of pairs gives a pairs x couplings table).  The a = 0 entries
    get the continuity limit, the free heat kernel
    (4 pi t)^{-1/2} e^{-(x-x')^2/4t}.
    """
    a = np.asarray(a, dtype=float)
    zero = a == 0.0
    # at a tiny t or far from the origin the exponents leave the double
    # range: -inf where they should, and inf - inf in _log_mehler only where
    # x x' < 0, whose true exponent is -inf too, so nan reads as 0
    with np.errstate(over="ignore", invalid="ignore"):
        free = np.exp(-((x - xp) ** 2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
        # the Mehler form is singular at a = 0; it is evaluated there at
        # a = 1 and discarded, so no warning is raised
        mehler = np.exp(_log_mehler(np.where(zero, 1.0, a), t, x, xp))
    return np.where(zero, free, np.nan_to_num(mehler, nan=0.0, posinf=np.inf))


def _blocks(rows, columns):
    """Split an index array so that no block's table exceeds _TABLE_ENTRIES."""
    size = max(1, _TABLE_ENTRIES // columns)
    return [rows[i:i + size] for i in range(0, rows.size, size)]


def _cutoffs(t, x, xp):
    """Per pair, the smallest power-of-two multiple of 8/t whose edge clears
    the decay bar, or 0 where none does before a_max t passes MAX_AT."""
    a_max = np.zeros(x.shape)
    cut = 8.0 / t
    open_rows = np.arange(x.size)
    for _ in range(12):
        probe = np.linspace(0.0, cut, 257)
        for rows in _blocks(open_rows, probe.size):
            mag = oscillator_kernel_in_coupling(probe, t, x[rows, None], xp[rows, None])
            decayed = mag[:, -1] <= CUTOFF_DECAY * np.max(mag, axis=1)
            a_max[rows[decayed]] = cut
        open_rows = open_rows[a_max[open_rows] == 0.0]
        cut *= 2.0
        if not open_rows.size or cut * t > MAX_AT:
            break
    return a_max


def grushin_heat_matrix(t, x, xp, dy, n_a=1025, as_complex=False):
    """Heat kernel on every pair of the 1-D arrays x (n) and xp (m), as n x m.

    Entry [i, j] is p_t at (x_i, y; xp_j, y') with y - y' = dy, computed as
    (1/2pi) int e^{i dy a} H(|a|; t, x_i, xp_j) da by the trapezoid rule
    on [-a_max, a_max], where H is the oscillator heat kernel in the
    coupling.  Each pair gets its own a_max, the first of 8/t, 16/t, ...
    at which a 257-node probe of H has decayed by CUTOFF_DECAY; the pairs
    of one a_max share their nodes, so a group costs one broadcast
    (pairs x n_a) magnitude table, in blocks of at most _TABLE_ENTRIES
    entries, summed row by row against the shared weights w e^{i dy a}.
    Rows sum in numpy's pairwise order, so an entry has the same bits
    whatever block or matrix holds it.

    The sum is periodic in dy with period pi (n_a - 1) / a_max; beyond half
    of it the quadrature aliases.  That, a failed cutoff search, an
    undecayed integrand at the cutoff and a sum past the double range raise
    a ValueError for the first such pair in row-major order.  The true
    kernel is real; as_complex=True returns the unreduced complex sums so
    the residual imaginary part can be inspected.
    """
    if n_a < MIN_NODES:
        raise ValueError(f"n_a must be at least {MIN_NODES}")
    t = float(t)
    if not np.isfinite(t) or t < MIN_AT:
        raise ValueError("time t must be positive and finite; below "
                         f"{MIN_AT:g} the kernel leaves the double range")
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    dy = float(dy)
    if x.ndim != 1 or xp.ndim != 1:
        raise ValueError("x and xp must be 1-D arrays")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xp)) and np.isfinite(dy)):
        raise ValueError("coordinates must be finite")
    xs, xps = np.repeat(x, xp.size), np.tile(xp, x.size)
    a_max = _cutoffs(t, xs, xps)
    found = a_max > 0.0
    with np.errstate(over="ignore"):
        # inf at a huge t, where no finite dy aliases
        dy_max = np.pi * (n_a - 1) / (2.0 * np.where(found, a_max, 1.0))
    aliased = found & (abs(dy) > dy_max)
    peak = np.ones(xs.size)
    edge = np.zeros(xs.size)
    sums = np.zeros((2, xs.size))   # real and imaginary parts
    w = quadrature_weights(n_a)
    for cut in np.unique(a_max[found & ~aliased]):
        nodes = np.linspace(-cut, cut, n_a)
        shared = w * np.exp(1j * dy * nodes)
        h = nodes[1] - nodes[0]
        for rows in _blocks(np.flatnonzero((a_max == cut) & ~aliased), n_a):
            mag = oscillator_kernel_in_coupling(
                np.abs(nodes), t, xs[rows, None], xps[rows, None])
            peak[rows] = np.max(mag, axis=1)
            edge[rows] = np.maximum(mag[:, 0], mag[:, -1])
            with np.errstate(over="ignore"):
                for part, weights in zip(sums, (shared.real, shared.imag)):
                    part[rows] = h * np.sum(mag * weights, axis=1) / (2.0 * np.pi)
    undecayed = edge > CUTOFF_DECAY * peak
    unbounded = ~np.all(np.isfinite(sums), axis=0)
    bad = np.flatnonzero(~found | aliased | undecayed | unbounded)
    if bad.size:
        k = bad[0]
        if not found[k]:
            raise ValueError(
                "could not find a decayed cutoff; integrand spreads too far")
        if aliased[k]:
            raise ValueError(
                f"|y - y'| = {abs(dy):g} exceeds {dy_max[k]:g} = "
                f"pi (n_a - 1) / (2 a_max), half the quadrature's "
                f"alias period at a_max = {a_max[k]:g}, n_a = {n_a}"
            )
        if unbounded[k]:
            raise ValueError(f"the kernel at t = {t:g} leaves the double range "
                             f"at x = {xs[k]:g}, x' = {xps[k]:g}")
        raise ValueError(
            f"integrand at the cutoff a_max = {a_max[k]:g} is "
            f"{edge[k] / peak[k]:.2e} of its peak"
        )
    re, im = sums.reshape(2, x.size, xp.size)
    if not as_complex:
        return re
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def grushin_heat_kernel(p, n_a=1025, as_complex=False):
    """Heat kernel value at the GrushinPoint p: the 1 x 1 grushin_heat_matrix.

    Raises as grushin_heat_matrix does; as_complex=True returns the
    unreduced complex result, whose imaginary part is quadrature residue.
    """
    value = grushin_heat_matrix(p.t, [p.x], [p.xp], p.y - p.yp, n_a, as_complex)[0, 0]
    return complex(value) if as_complex else float(value)
