import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc as erfc_std

from oscwave import (
    SampledFunction,
    ShiftCoverageWarning,
    SpectralFunction,
    forward_ft,
    heat_dirac,
    inverse_ft,
    make_grid,
    residual_convergence_order,
    spectral_wave_oracle_dirac,
    wave_dirac,
    wave_kernel_forms,
)
from oscwave import dirac

GRID = make_grid(-16.0, 16.0, 1024)
GAUSS = SampledFunction(GRID, np.exp(-GRID.points**2).astype(complex))


def test_heat_shifts_a_gaussian():
    U = heat_dirac(GAUSS, 1.0)
    i0 = np.argmin(np.abs(GRID.points))
    assert abs(U.values[i0] - np.exp(-1.0)) <= 1e-12
    # off-grid offset lands between samples and still evaluates exactly
    U = heat_dirac(GAUSS, 0.5 + GRID.spacing / 3.0)
    target = np.exp(-((GRID.points + 0.5 + GRID.spacing / 3.0) ** 2))
    assert np.max(np.abs(U.values - target)) <= 1e-10


def test_heat_composes_as_a_semigroup():
    two_step = heat_dirac(heat_dirac(GAUSS, 0.3), 0.4)
    one_step = heat_dirac(GAUSS, 0.7)
    assert np.max(np.abs(two_step.values - one_step.values)) <= 1e-10


def test_heat_time_zero_copies():
    U = heat_dirac(GAUSS, 0.0)
    assert np.array_equal(U.values, GAUSS.values)
    U.values[0] = 99.0
    assert GAUSS.values[0] != 99.0


def test_heat_rejects_negative_time():
    with pytest.raises(ValueError):
        heat_dirac(GAUSS, -0.1)


def test_heat_warns_when_data_wraps():
    g = make_grid(-8.0, 8.0, 512)
    U0 = SampledFunction(g, np.exp(-((g.points + 5.0) ** 2)).astype(complex))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        heat_dirac(U0, 4.0)
    assert any(issubclass(r.category, ShiftCoverageWarning) for r in rec)


@pytest.mark.parametrize("t", [1.0e6 + 0.7, 1.0e12 + 0.7, 1.0e16])
def test_heat_keeps_the_digits_of_a_large_shift(t):
    """The periodized Gaussian translated by t equals its translate by
    fmod(t, L), L = 32 the grid's period.  Formed as xi t, the phase rounded
    at the scale of xi t and the shift lost its digits: 2.3e-9, 2.3e-3 and
    0.77 at these t.  The data wraps many times, and that still warns."""
    x = GRID.points
    with pytest.warns(ShiftCoverageWarning):
        U = heat_dirac(GAUSS, t)
    want = np.exp(-((x + np.fmod(t, 32.0) + 16.0) % 32.0 - 16.0) ** 2)
    assert np.max(np.abs(U.values - want)) <= 1e-13


def _erfc_form(t, X, Xp):
    return wave_kernel_forms(t, X, Xp)[0]


def test_wave_kernel_approaches_one_for_small_times():
    w = _erfc_form(1e-8, 1.0, 0.0)
    assert abs(w - 1.0) <= 1e-7


def test_wave_kernel_matches_the_error_function():
    """The kernel reduces to erfc(t / (2 sqrt|X - X'|)) in the standard
    normalization; scipy supplies the independent values."""
    for t, X, Xp in [(1.0, 0.25, 0.0), (1.0, 1.0, 0.0), (0.5, 0.0, 2.0), (2.0, -0.1, 0.15), (0.3, 0.7, 0.0)]:
        w = _erfc_form(t, X, Xp)
        assert abs(w - erfc_std(t / (2.0 * np.sqrt(abs(X - Xp))))) <= 1e-12


def test_wave_kernel_at_unit_argument():
    from scipy.integrate import quad

    q, _ = quad(lambda s: np.exp(-s * s), 1.0, np.inf)
    assert abs(_erfc_form(2.0, 1.0, 0.0) - (2.0 / np.sqrt(np.pi)) * q) <= 1e-9


def test_wave_kernel_forms_agree():
    for t, gap in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.25)]:
        we, wt = wave_kernel_forms(t, gap, 0.0)
        assert abs(we - wt) <= 1e-10


def test_wave_kernel_forms_broadcast_like_their_scalar_calls():
    t = np.array([[0.1], [1.0], [2.5]])
    X = np.array([0.3, -1.0, 4.0, 2.0])
    we, wt = wave_kernel_forms(t, X, 2.5)
    assert we.shape == wt.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            pair = wave_kernel_forms(t[i, 0], X[j], 2.5)
            assert (we[i, j], wt[i, j]) == pair
    with pytest.raises(ValueError, match="singular"):
        wave_kernel_forms(t, X, 4.0)
    with pytest.raises(ValueError, match="t > 0"):
        wave_kernel_forms(np.array([1.0, 0.0]), 1.0, 0.0)


@settings(max_examples=25)
@given(
    t=st.floats(0.05, 4.0),
    gap=st.floats(0.05, 4.0),
)
def test_wave_kernel_monotone_and_bounded(t, gap):
    w = _erfc_form(t, gap, 0.0)
    assert 0.0 < w <= 1.0
    assert _erfc_form(t * 1.5, gap, 0.0) < w
    assert _erfc_form(t, gap * 1.5, 0.0) > w


def test_wave_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _erfc_form(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        _erfc_form(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        _erfc_form(1.0, 0.5, 0.5)


# the Erfc form alone is the Dirac wave kernel the property tests above
# grade; its case keeps the id it had as a package function
@pytest.mark.parametrize("kernel", [
    wave_kernel_forms, pytest.param(_erfc_form, id="wave_kernel_dirac")])
@pytest.mark.parametrize("args", [(np.nan, 1.0, 0.0), (1.0, np.inf, 0.0),
                                  (1.0, 0.5, -np.inf), (1.0, [0.5, np.nan], 0.0)])
def test_wave_kernel_names_its_own_non_finite_arguments(kernel, args):
    with pytest.raises(ValueError, match="wave kernel needs finite t, X and X'"):
        kernel(*args)


def test_wave_zero_data_stays_zero():
    g = make_grid(-8.0, 8.0, 512)
    V = wave_dirac(SampledFunction(g, np.zeros(g.n, dtype=complex)), 1.0)
    assert np.max(np.abs(V.values)) == 0.0


def test_wave_starts_from_rest():
    assert np.max(np.abs(wave_dirac(GAUSS, 0.0).values)) == 0.0
    assert np.max(np.abs(spectral_wave_oracle_dirac(GAUSS, 0.0).values)) == 0.0


def test_wave_is_linear():
    g = make_grid(-8.0, 8.0, 512)
    x = g.points
    f1 = SampledFunction(g, np.exp(-(x**2)).astype(complex))
    f2 = SampledFunction(g, (x * np.exp(-(x**2) / 2)).astype(complex))
    al, be = 1.3, -0.6
    combo = SampledFunction(g, al * f1.values + be * f2.values)
    dev = wave_dirac(combo, 0.8).values - al * wave_dirac(f1, 0.8).values - be * wave_dirac(f2, 0.8).values
    assert np.max(np.abs(dev)) <= 1e-12


def test_wave_window_must_fit_the_grid():
    g = make_grid(-8.0, 8.0, 512)
    V0 = SampledFunction(g, np.exp(-g.points**2).astype(complex))
    with pytest.raises(ValueError):
        wave_dirac(V0, 9.0)


def _off_centre_gaussian(x):
    return np.exp(-((x - 0.7) ** 2) / 2.0 + 1.3j * x)


@pytest.mark.parametrize("n", [512, 777, 1024])
@pytest.mark.parametrize("t", [1e-3, 0.3, 7.9])
def test_wave_equals_its_simpson_sum_over_exact_translates(n, t):
    """The convolution reproduces the 256-node Simpson sum taken with the
    analytic translates G(X -+ u); t = 7.9 is near the t/2 < span/4 limit."""
    g = make_grid(-8.0, 8.0, n)
    X = g.points
    sigma = np.linspace(0.0, 1.0, 257)
    w = np.ones(257)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (sigma[1] - sigma[0]) / 3.0
    s, w = sigma[1:, None], w[1:, None]
    u = s * s * t / 2.0
    # (2/sqrt(pi)) erfc_paper(z) is the standard erfc(z)
    terms = t * w * erfc_std(np.sqrt(t / 2.0) / s) * s * (
        _off_centre_gaussian(X - u) + _off_centre_gaussian(X + u))
    expect = terms.sum(axis=0)
    V = wave_dirac(SampledFunction(g, _off_centre_gaussian(X)), t)
    assert np.max(np.abs(V.values - expect)) <= 1e-9 * np.max(np.abs(expect))


def test_wave_reads_zero_outside_the_samples():
    g = make_grid(-8.0, 8.0, 512)
    vals = np.zeros(g.n, dtype=complex)
    vals[-3:] = [1.0, -2.0 + 0.5j, 0.5]
    t = 1.0
    reach = int(np.ceil(t / 2.0 / g.spacing))
    V = wave_dirac(SampledFunction(g, vals), t).values
    far = g.n - 3 - (reach + 8)
    # exactly zero away from the data, the first samples included, so
    # nothing wraps around from the far end
    assert np.all(V[:far] == 0.0)
    assert np.all(V[g.n - 3 - reach // 2:] != 0.0)


def test_oracle_turns_constants_into_linear_growth():
    g = make_grid(-8.0, 8.0, 512)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        C = SampledFunction(g, np.full(g.n, 0.37, dtype=complex))
        V = spectral_wave_oracle_dirac(C, 0.9)
    assert np.max(np.abs(V.values - 0.9 * 0.37)) <= 1e-13


def test_oracle_matches_mpmath_bin_by_bin():
    """The multiplier sin(t sqrt(z))/sqrt(z), z = -i xi, applied by mpmath
    to each live bin of the spectrum; the data is live at xi = 0 and on
    both sides of |t^2 xi| = 1."""
    mp = pytest.importorskip("mpmath")
    V0 = SampledFunction(GRID, np.exp(-((GRID.points - 0.5) ** 2) + 0.8j * GRID.points))
    F = forward_ft(V0)
    xi = F.xi_grid.points
    live = np.abs(F.values) > dirac.ORACLE_BAND_TOL * np.max(np.abs(F.values))
    assert np.any(live & (xi == 0.0))
    for t in (0.5, 1.0):
        assert np.any(live & (t * t * np.abs(xi) < 1.0))
        assert np.any(live & (t * t * np.abs(xi) > 1.0))
        mult = np.zeros(xi.size, dtype=complex)
        with mp.workdps(30):
            for k in np.nonzero(live)[0]:
                if xi[k] == 0.0:
                    mult[k] = t
                else:
                    root = mp.sqrt(mp.mpc(0.0, -xi[k]))
                    mult[k] = complex(mp.sin(t * root) / root)
        ref = inverse_ft(SpectralFunction(F.xi_grid, mult * F.values, F.x_grid))
        got = spectral_wave_oracle_dirac(V0, t)
        peak = np.max(np.abs(ref.values))
        assert np.max(np.abs(got.values - ref.values)) <= 1e-13 * peak


def test_oracle_at_a_subnormal_time_is_t_times_the_data():
    """At t = 1.87e-313 every bin's w = t sqrt(-i xi) is subnormal, and
    t sin(w)/w overflowed in the division; below |w| = 2^-26 sin(w)/w
    rounds to 1, so each such bin takes the limit t.  The result is t V0
    to the precision of subnormals (t spans 3.8e10 units of 2^-1074; the
    FFT pair's rounding measures 1.1e-9 t)."""
    t = 1.8707653374e-313
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        V = spectral_wave_oracle_dirac(GAUSS, t)
    assert np.max(np.abs(V.values - t * GAUSS.values)) <= 1e-8 * t


def test_oracle_residual_converges_at_second_order():
    def solution(s, x):
        g = make_grid(-16.0, 16.0, len(x))
        V0 = SampledFunction(g, np.exp(-g.points**2).astype(complex))
        return spectral_wave_oracle_dirac(V0, s).values

    order = residual_convergence_order(
        solution, "wave_dirac", 0.5, 1.0, make_grid(-16.0, 16.0, 256), 0.1
    )
    assert order >= 1.9


def test_oracle_caps_multiplier_growth():
    with pytest.raises(ValueError, match="multiplier"):
        spectral_wave_oracle_dirac(GAUSS, 400.0)
