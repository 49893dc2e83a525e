"""The numerical helpers behind individual verification checks."""

import math

import mpmath
import numpy as np
import pytest

from oscwave import verify
from oscwave.grids import make_grid, quadrature_weights
from oscwave.oscillator import OscillatorParams, heat_kernel

# c02's fine quadrature grid and weighted Gaussian data, and its three
# target grids (one per refinement level)
FINE = make_grid(-10.0, 10.0, 4096)
DATA = quadrature_weights(FINE.n) * FINE.spacing * np.exp(-FINE.points ** 2)
TARGETS = [make_grid(-6.0, 6.0, 192 * 2 ** k).points for k in range(3)]


def _long_double_sum(t, xs):
    """sum_j K(x_i, y_j) DATA_j with the Mehler kernel and the sum in long
    double, a block of target rows at a time."""
    L = np.longdouble
    a, t = L(1), L(t)
    s = np.sinh(2 * a * t)
    coth = np.cosh(2 * a * t) / s
    pref = np.sqrt(a / (2 * L(np.pi) * s))
    y = FINE.points.astype(L)
    f = DATA.astype(L)
    out = np.empty(xs.size, dtype=L)
    for i in range(0, xs.size, 128):
        x = xs[i:i + 128].astype(L)[:, None]
        K = pref * np.exp(-(a / 2) * coth * (x * x + y * y) + a * x * y / s)
        out[i:i + 128] = np.sum(K * f, axis=1)
    return out


@pytest.mark.parametrize("t", [0.28, 0.30, 0.32])
def test_c02_quadrature_matches_a_long_double_dense_sum(t):
    # measured: <= 2.1e-15, as close as the dense double sum (2.1e-15)
    p = OscillatorParams(1.0, t)
    # the coarser target grids are every 2nd and 4th node of the finest
    finest = _long_double_sum(t, TARGETS[-1])
    for k, xs in enumerate(TARGETS):
        assert np.array_equal(xs, TARGETS[-1][::2 ** (2 - k)])
        ref = finest[::2 ** (2 - k)]
        got = verify._mehler_quadrature(p, xs, FINE, DATA)
        assert np.max(np.abs((got - ref) / ref)) <= 4.0e-15


@pytest.mark.parametrize("t", [0.28, 0.30, 0.32])
def test_c02_quadrature_matches_the_dense_kernel_contraction(t):
    # measured: <= 2.0e-15
    p = OscillatorParams(1.0, t)
    for xs in TARGETS:
        dense = heat_kernel("mehler", p, xs[:, None], FINE.points) @ DATA
        got = verify._mehler_quadrature(p, xs, FINE, DATA)
        assert np.max(np.abs((got - dense) / dense)) <= 4.0e-15


def test_c02_evaluates_the_kernel_on_a_coarse_table_only(monkeypatch):
    shapes = []

    def recording(variant, p, x, xp):
        shapes.append(np.broadcast(x, xp).shape)
        return heat_kernel(variant, p, x, xp)

    monkeypatch.setattr(verify, "heat_kernel", recording)
    (report,) = verify.CHECKS["heat_pde_residual"]()
    assert report.verdict == "pass"
    # three snapshots (t - dt, t, t + dt) on each of the three target grids
    assert sorted(shapes) == sorted(3 * [(xs.size, 64) for xs in TARGETS])


@pytest.mark.parametrize("t", [1.0e-2, 1.0e-3, 1.0e-4, 0.5])
def test_wave_deficit_closed_form_matches_mpmath(t):
    with mpmath.workdps(40):
        c = mpmath.sqrt(mpmath.mpf(t) / 2)
        root_pi = mpmath.sqrt(mpmath.pi)
        erf_p = root_pi / 2 * mpmath.erf(c)
        tail = root_pi / 2 * mpmath.erfc(c)
        want = (2 / root_pi * (erf_p + c * mpmath.exp(-c * c))
                - 4 / root_pi * c * c * tail)
    assert abs(verify._wave_deficit(t) - float(want)) <= 1e-15 * float(want)


def test_wave_deficit_leading_terms():
    # D(t) = 2 sqrt(2/pi) sqrt(t) - t + O(t^{3/2})
    t = 1.0e-8
    lead = 2.0 * math.sqrt(2.0 / math.pi) * math.sqrt(t) - t
    assert abs(verify._wave_deficit(t) - lead) <= t ** 1.5


def test_c11_builds_at_most_25_hermite_tables(hermite_builds):
    """The oracle's coefficients keep their projection table, and the data
    h_0 + h_1 comes from one two-row table, so one c11 call builds 20
    tables where it built 57."""
    reports = verify.check_oscillator_wave()
    assert len(hermite_builds) <= 25
    assert [r.verdict for r in reports if r.verdict != "informational"] == ["pass"] * 3


def test_c11_t0_1_row_stays_below_one():
    """Summation-noise canary: c11's t = 0.1 row is T's phase-sum noise
    times e^{ax^2/2}, up to ~1e8, and reads 0.41.  It read 7.3 with table
    angles rounded to double before the reduction mod 2pi, and 1.6e14 with
    X_NODES = 2048."""
    reports = {r.check_name: r for r in verify.check_oscillator_wave()}
    assert reports["oscillator_wave_vs_oracle_t0.1"].metric < 1.0
