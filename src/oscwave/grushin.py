"""Heat kernel for the two-variable degenerate operator d^2/dx^2 + x^2 d^2/dy^2.

A partial Fourier transform in y turns the operator into the harmonic
oscillator family with the dual variable as coupling, so the kernel is a
single quadrature of the oscillator heat kernel over that parameter.
"""

import numpy as np

from .grids import quadrature_weights
from .oscillator import MAX_AT, _log_mehler

# the dual-parameter integrand must clear this decay by the cutoff
CUTOFF_DECAY = 1.0e-12

MIN_NODES = 129


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

    The a = 0 entries get the continuity limit, the free heat kernel
    (4 pi t)^{-1/2} e^{-(x-x')^2/4t}.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty(a.shape, dtype=float)
    zero = a == 0.0
    out[zero] = np.exp(-((x - xp) ** 2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
    pos = ~zero
    if np.any(pos):
        out[pos] = np.exp(_log_mehler(a[pos], t, x, xp))
    return out


def grushin_heat_kernel(p, n_a=1025, as_complex=False):
    """Heat kernel value at (t, x, y, x', y') by dual-parameter quadrature.

    Computes (1/2pi) int e^{i(y-y')a} H(|a|; t, x, x') da by Simpson on
    [-a_max, a_max], where H is the oscillator heat kernel in the
    coupling and a_max comes from _auto_cutoff.  Beyond |y - y'| =
    pi (n_a - 1) / (4 a_max) the quadrature aliases, and a ValueError is
    raised.  The integrand is even in a up to conjugation, so the true
    value is real; as_complex=True returns the unreduced complex result so
    the residual imaginary part can be inspected.
    """
    if n_a < MIN_NODES:
        raise ValueError(f"n_a must be at least {MIN_NODES}")
    a_max = _auto_cutoff(p)
    # the sum over nodes 2 a_max / (n_a - 1) apart is periodic in y - y'
    # with period pi (n_a - 1) / a_max, and Simpson's 4/3, 2/3 alternation
    # adds a copy at half the period; within a quarter period both copies
    # stay a quarter period away
    dy = abs(p.y - p.yp)
    dy_max = np.pi * (n_a - 1) / (4.0 * a_max)
    if dy > dy_max:
        raise ValueError(
            f"|y - y'| = {dy:g} exceeds {dy_max:g} = pi (n_a - 1) / (4 a_max), "
            f"a quarter of the quadrature's alias period at a_max = {a_max:g}, "
            f"n_a = {n_a}"
        )
    nodes = np.linspace(-a_max, a_max, n_a)
    mag = oscillator_kernel_in_coupling(np.abs(nodes), p.t, p.x, p.xp)
    peak = np.max(mag)
    edge = max(mag[0], mag[-1])
    if edge > CUTOFF_DECAY * peak:
        raise ValueError(
            f"integrand at the cutoff a_max = {a_max:g} is "
            f"{edge / peak:.2e} of its peak"
        )
    integrand = np.exp(1j * (p.y - p.yp) * nodes) * mag
    h = nodes[1] - nodes[0]
    value = h * np.dot(quadrature_weights(n_a), integrand) / (2.0 * np.pi)
    return complex(value) if as_complex else float(value.real)


def _auto_cutoff(p):
    """Smallest power-of-two multiple of 8/t whose edge clears the decay bar."""
    a_max = 8.0 / p.t
    for _ in range(12):
        probe = np.linspace(0.0, a_max, 257)
        mag = oscillator_kernel_in_coupling(probe, p.t, p.x, p.xp)
        if mag[-1] <= CUTOFF_DECAY * np.max(mag):
            return a_max
        a_max *= 2.0
        if a_max * p.t > MAX_AT:
            break
    raise ValueError("could not find a decayed cutoff; integrand spreads too far")
