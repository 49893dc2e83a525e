"""The numerical helpers behind individual verification checks."""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oscwave import oscillator, verify
from oscwave.grids import SampledFunction, make_grid, quadrature_weights
from oscwave.grushin import grushin_heat_kernel
from oscwave.hermite import expand
from oscwave.oscillator import OscillatorParams, heat_ho_kernel_route, heat_kernel

# c02's three grids, one per refinement level
GRIDS = [make_grid(-6.0, 6.0, 192 * 2 ** k) for k in range(3)]


def _snapshot(t, g):
    """c02's snapshot at time t on grid g: the kernel route on e^{-x^2}."""
    u0 = SampledFunction(g, np.exp(-g.points ** 2).astype(complex))
    return heat_ho_kernel_route(u0, OscillatorParams(1.0, t)).values


def _weighted_data(g):
    return quadrature_weights(g.n) * g.spacing * np.exp(-g.points ** 2)


def _long_double_sum(t, g):
    """sum_j K(x_i, x_j) w_j e^{-x_j^2} over g's own nodes, with the
    Mehler kernel and the sum in long double, a block of rows at a time."""
    L = np.longdouble
    a, t = L(1), L(t)
    s = np.sinh(2 * a * t)
    coth = np.cosh(2 * a * t) / s
    pref = np.sqrt(a / (2 * L(np.pi) * s))
    y = g.points.astype(L)
    f = _weighted_data(g).astype(L)
    out = np.empty(g.n, dtype=L)
    for i in range(0, g.n, 128):
        x = y[i:i + 128, None]
        K = pref * np.exp(-(a / 2) * coth * (x * x + y * y) + a * x * y / s)
        out[i:i + 128] = np.sum(K * f, axis=1)
    return out


@pytest.mark.parametrize("t", [0.28, 0.30, 0.32])
def test_c02_quadrature_matches_a_long_double_dense_sum(t):
    # measured: <= 3.0e-15
    for g in GRIDS:
        ref = _long_double_sum(t, g)
        got = _snapshot(t, g)
        assert np.max(np.abs((got - ref) / ref)) <= 4.0e-15


@pytest.mark.parametrize("t", [0.28, 0.30, 0.32])
def test_c02_quadrature_matches_the_dense_kernel_contraction(t):
    # measured: <= 3.1e-15
    p = OscillatorParams(1.0, t)
    for g in GRIDS:
        dense = heat_kernel("mehler", p, g.points[:, None], g.points) @ _weighted_data(g)
        got = _snapshot(t, g)
        assert np.max(np.abs((got - dense) / dense)) <= 4.0e-15


def test_c02_propagates_by_the_kernel_route_alone(monkeypatch):
    sizes = []

    def recording(u0, p):
        # the snapshots the two tests above grade
        assert u0.grid == make_grid(-6.0, 6.0, u0.grid.n) and p.a == 1.0
        assert np.array_equal(u0.values, np.exp(-u0.grid.points ** 2))
        sizes.append(u0.grid.n)
        return heat_ho_kernel_route(u0, p)

    def refused(*args):
        raise AssertionError("c02 evaluated heat_kernel")

    monkeypatch.setattr(verify, "heat_ho_kernel_route", recording)
    monkeypatch.setattr(verify, "heat_kernel", refused)
    monkeypatch.setattr(oscillator, "heat_kernel", refused)
    (report,) = verify.CHECKS["heat_pde_residual"]()
    assert report.verdict == "pass"
    # three snapshots (t - dt, t, t + dt) on each level's grid
    assert sorted(sizes) == sorted(3 * [g.n for g in GRIDS])


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


def test_c11_projects_its_data_once_per_grid(monkeypatch):
    """The order probe's three snapshots on a level share one projection:
    one expand per refinement level and one for the oracle on c11's own
    grid, where each snapshot once projected the data anew."""
    sizes = []

    def recording(f, a, n_max):
        sizes.append(f.grid.n)
        return expand(f, a, n_max)

    monkeypatch.setattr(verify, "expand", recording)
    reports = verify.check_oscillator_wave()
    assert sorted(sizes) == [256, 512, 1024, 2048]
    assert [r.verdict for r in reports if r.verdict != "informational"] == ["pass"] * 3


def test_c12_evaluates_the_grushin_kernel_three_times(monkeypatch):
    """The real kernel at p on the default nodes is the complex call's real
    part, so c12 evaluates the kernel at p (complex), at the swapped point
    and at p on 513 nodes."""
    calls = []

    def recording(p, **options):
        calls.append((p, options))
        return grushin_heat_kernel(p, **options)

    monkeypatch.setattr(verify, "grushin_heat_kernel", recording)
    reports = verify.check_grushin_kernel()
    assert len(calls) == 3
    assert [r.verdict for r in reports] == ["pass"] * 3


def test_c11_t0_1_row_stays_below_one():
    """Summation-noise canary: c11's t = 0.1 row is T's phase-sum noise
    times e^{ax^2/2}, up to ~1e8, and reads 0.41.  It read 7.3 with table
    angles rounded to double before the reduction mod 2pi, and 1.6e14 with
    X_NODES = 2048."""
    reports = {r.check_name: r for r in verify.check_oscillator_wave()}
    assert reports["oscillator_wave_vs_oracle_t0.1"].metric < 1.0


def test_readme_quotes_c11_rows_to_the_digits_it_prints():
    """README quotes c11's wave rows as 0.0495, 0.41 and about 4e21; the
    last is summation noise, so only its order of magnitude is quoted."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "0.0495, 0.41 and about 4e21 for the conjugated form" in " ".join(readme.split())
    reports = {r.check_name: r.metric for r in verify.check_oscillator_wave()}
    assert f"{reports['oscillator_wave_smallt_row']:.3g}" == "0.0495"
    assert f"{reports['oscillator_wave_vs_oracle_t0.1']:.2g}" == "0.41"
    assert math.floor(math.log10(reports["oscillator_wave_vs_oracle_t0.5"])) == 21
