import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscwave import (
    HEAT_KERNEL_VARIANTS,
    KernelTailWarning,
    OscillatorParams,
    SampledFunction,
    derive_params,
    heat_kernel,
    heat_ho_kernel_route,
    heat_ho_spectral_route,
    heat_via_intertwining,
    hermite_fn,
    hermite_table,
    make_grid,
    rel_l2_error,
    wave_ho,
)


def test_variant_tables():
    assert HEAT_KERNEL_VARIANTS == ("mehler", "paper_literal", "paper_corrected")


def test_params_validation():
    OscillatorParams(1.0, 0.0)
    with pytest.raises(ValueError):
        OscillatorParams(0.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, -0.1)
    with pytest.raises(ValueError):
        OscillatorParams(100.0, 4.0)


def test_kernel_point_value():
    k = heat_kernel("mehler", OscillatorParams(1.0, 0.3), 0.0, 0.0)
    assert k == pytest.approx(np.sqrt(1.0 / (2.0 * np.pi * np.sinh(0.6))), rel=1e-12)


def test_kernel_rejects_bad_requests():
    with pytest.raises(ValueError):
        heat_kernel("mehler", OscillatorParams(1.0, 0.0), 0.0, 0.0)
    with pytest.raises(ValueError):
        heat_kernel("gaussian", OscillatorParams(1.0, 0.3), 0.0, 0.0)


def test_corrected_variant_equals_mehler():
    rng = np.random.default_rng(7)
    for t in (0.1, 0.3, 0.5, 2.0):
        for a in (0.5, 1.0, 2.0):
            p = OscillatorParams(a, t)
            x = rng.uniform(-3, 3, 200)
            xp = rng.uniform(-3, 3, 200)
            km = heat_kernel("mehler", p, x, xp)
            kc = heat_kernel("paper_corrected", p, x, xp)
            assert np.max(np.abs(km - kc) / km) <= 1e-12


def test_literal_variant_is_off_by_sqrt_2a_at_the_origin():
    for a in (0.5, 1.0, 3.0):
        p = OscillatorParams(a, 0.4)
        ratio = heat_kernel("paper_literal", p, 0.0, 0.0) / heat_kernel(
            "mehler", p, 0.0, 0.0
        )
        assert ratio == pytest.approx(np.sqrt(2.0 * a), rel=1e-12)


@settings(max_examples=25)
@given(
    x=st.floats(-3, 3),
    xp=st.floats(-3, 3),
    t=st.floats(0.1, 2.0),
    a=st.floats(0.5, 2.0),
)
def test_kernel_symmetry(x, xp, t, a):
    p = OscillatorParams(a, t)
    km = heat_kernel("mehler", p, x, xp)
    assert abs(km - heat_kernel("mehler", p, xp, x)) <= 1e-14 * km
    kc = heat_kernel("paper_corrected", p, x, xp)
    assert abs(kc - heat_kernel("paper_corrected", p, xp, x)) <= 1e-13 * kc


@settings(max_examples=25)
@given(
    x=st.floats(-4, 4),
    xp=st.floats(-4, 4),
    t=st.floats(0.05, 3.0),
)
def test_kernel_positivity(x, xp, t):
    p = OscillatorParams(1.0, t)
    for variant in HEAT_KERNEL_VARIANTS:
        assert heat_kernel(variant, p, x, xp) > 0.0


def test_kernels_survive_long_times():
    p = OscillatorParams(1.0, 250.0)
    for variant in HEAT_KERNEL_VARIANTS:
        k = heat_kernel(variant, p, 0.4, -0.3)
        assert np.isfinite(k) and k > 0.0


@pytest.mark.parametrize("at", [1e-17, 1e-13])
def test_kernels_reach_the_free_line_limit_at_small_at(at):
    """As at -> 0 the oscillator kernel tends to the free heat kernel
    (4 pi t)^{-1/2} e^{-(x-x')^2/4t}; the gap is O((at)^2), far below
    rounding here, so only cancellation in 1 - e^{-4at} could show."""
    t, x, xp = 0.1, 0.3, -0.2
    free = np.exp(-((x - xp) ** 2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
    p = OscillatorParams(at / t, t)
    for variant in ("mehler", "paper_corrected"):
        k = heat_kernel(variant, p, x, xp)
        assert abs(k - free) <= 1e-13 * free, variant


def test_mode_sum_reproduces_the_kernel():
    """Truncated eigenfunction sum against the closed form; 50 modes at
    at = 0.3 leave a remainder below machine noise on [-3, 3]."""
    xs = np.linspace(-3.0, 3.0, 21)
    T = hermite_table(50, 1.0, xs)
    lam = np.exp(np.array([-(2 * n + 1) * 0.3 for n in range(51)]))
    K_series = (T.T * lam) @ T
    K_closed = heat_kernel(
        "mehler", OscillatorParams(1.0, 0.3), xs[:, None], xs[None, :]
    )
    assert np.max(np.abs(K_series - K_closed)) <= 1e-8


GRID_K = make_grid(-10.0, 10.0, 1024)


def _mode(n, grid=GRID_K):
    return SampledFunction(grid, hermite_fn(n, 1.0, grid.points).astype(complex))


def test_kernel_route_damps_the_ground_state():
    out = heat_ho_kernel_route(_mode(0), OscillatorParams(1.0, 0.35))
    target = SampledFunction(GRID_K, np.exp(-0.35) * _mode(0).values)
    assert rel_l2_error(out, target) <= 1e-12


def test_kernel_route_damps_mode_two_at_5a():
    out = heat_ho_kernel_route(_mode(2), OscillatorParams(1.0, 0.2))
    target = SampledFunction(GRID_K, np.exp(-1.0) * _mode(2).values)
    assert rel_l2_error(out, target) <= 1e-12


def test_kernel_route_composes():
    combo = SampledFunction(GRID_K, _mode(0).values + 0.5 * _mode(2).values)
    two = heat_ho_kernel_route(
        heat_ho_kernel_route(combo, OscillatorParams(1.0, 0.25)),
        OscillatorParams(1.0, 0.15),
    )
    one = heat_ho_kernel_route(combo, OscillatorParams(1.0, 0.4))
    assert rel_l2_error(two, one) <= 1e-12


def test_kernel_route_needs_positive_time():
    with pytest.raises(ValueError):
        heat_ho_kernel_route(_mode(0), OscillatorParams(1.0, 0.0))


def test_kernel_route_warns_on_truncated_mass():
    g = make_grid(-3.0, 3.0, 256)
    u = SampledFunction(g, hermite_fn(0, 1.0, g.points).astype(complex))
    with pytest.warns(KernelTailWarning, match="truncates"):
        heat_ho_kernel_route(u, OscillatorParams(1.0, 0.5))


GRID_S = make_grid(-12.0, 12.0, 2048)


def test_spectral_route_damps_the_ground_state():
    u0 = SampledFunction(GRID_S, hermite_fn(0, 1.0, GRID_S.points).astype(complex))
    out = heat_ho_spectral_route(u0, OscillatorParams(1.0, 0.35))
    target = SampledFunction(GRID_S, np.exp(-0.35) * u0.values)
    assert rel_l2_error(out, target) <= 1e-6


def test_spectral_route_small_time_limit():
    x = GRID_S.points
    u0 = SampledFunction(GRID_S, ((1 + 0.3 * x) * np.exp(-(x**2) / 2)).astype(complex))
    out = heat_ho_spectral_route(u0, OscillatorParams(1.0, 1e-4))
    assert np.max(np.abs(out.values - u0.values)) <= 1e-3


def test_spectral_route_rejects_unresolved_data():
    g = make_grid(-12.0, 12.0, 256)
    sharp = SampledFunction(g, np.exp(-20 * g.points**2).astype(complex))
    with pytest.raises(ValueError, match="band-limited"):
        heat_ho_spectral_route(sharp, OscillatorParams(1.0, 0.1))


GRID_I = make_grid(-6.2, 6.2, 2048)


def test_intertwining_route_damps_the_ground_state():
    u0 = SampledFunction(GRID_I, hermite_fn(0, 1.0, GRID_I.points).astype(complex))
    out = heat_via_intertwining(u0, OscillatorParams(1.0, 0.35))
    target = SampledFunction(GRID_I, np.exp(-0.35) * u0.values)
    assert rel_l2_error(out, target) <= 1e-7


def test_intertwining_route_time_zero_round_trip():
    u0 = SampledFunction(GRID_I, hermite_fn(0, 1.0, GRID_I.points).astype(complex))
    out = heat_via_intertwining(u0, OscillatorParams(1.0, 0.0))
    assert rel_l2_error(out, u0) <= 1e-7


def test_intertwining_route_rejects_mismatched_coupling():
    u0 = SampledFunction(GRID_I, hermite_fn(0, 1.0, GRID_I.points).astype(complex))
    ip = derive_params(0.5, GRID_I, u0)
    with pytest.raises(ValueError, match="mismatch"):
        heat_via_intertwining(u0, OscillatorParams(1.0, 0.1), ip=ip)


def test_zero_data_propagates_to_zero():
    g = make_grid(-8.0, 8.0, 256)
    z = SampledFunction(g, np.zeros(g.n, dtype=complex))
    p = OscillatorParams(1.0, 0.4)
    assert np.max(np.abs(heat_via_intertwining(z, p).values)) == 0.0
    assert np.max(np.abs(wave_ho(z, p).values)) == 0.0


def test_wave_starts_at_zero():
    g = make_grid(-8.0, 8.0, 256)
    v0 = SampledFunction(g, np.exp(-g.points**2).astype(complex))
    out = wave_ho(v0, OscillatorParams(1.0, 0.0))
    assert np.max(np.abs(out.values)) == 0.0
