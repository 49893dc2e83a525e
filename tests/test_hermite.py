import tracemalloc

import numpy as np
import pytest

from oscwave import (
    SampledFunction,
    eigenvalue,
    expand,
    heat_oracle,
    hermite_fn,
    hermite_table,
    make_grid,
    oscillator_apply,
    quadrature,
    reconstruct,
    rel_l2_error,
    wave_energy,
    wave_oracle,
    wave_oracle_velocity,
)
from oscwave.grids import quadrature_weights
from oscwave.hermite import SpectralCoefficients, _rates

GRID = make_grid(-16.0, 16.0, 2048)
X = GRID.points


def mode(n, a=1.0):
    return SampledFunction(GRID, hermite_fn(n, a, X).astype(complex))


def test_ground_state_value_at_origin():
    for a in (1.0, 2.0):
        assert hermite_fn(0, a, np.array([0.0]))[0] == pytest.approx((a / np.pi) ** 0.25, rel=1e-12)
    assert hermite_fn(1, 1.0, np.array([0.0]))[0] == 0.0


def test_mode_bounds():
    with pytest.raises(ValueError):
        hermite_fn(300, 1.0, X)
    with pytest.raises(ValueError):
        hermite_fn(-1, 1.0, X)
    with pytest.raises(ValueError):
        hermite_fn(0, 0.0, X)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coefficients_refuse_a_coupling_whose_last_rate_overflows():
    SpectralCoefficients(1e305, np.ones(129))
    with pytest.raises(ValueError, match="too large for 129 modes"):
        SpectralCoefficients(1e306, np.ones(129))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_table_reads_zero_where_the_scaled_variable_overflows():
    # y^2 = a x^2 leaves the double range at |x| = 12 for a = 1e307
    table = hermite_table(3, 1e307, np.array([0.0, 12.0]))
    assert np.all(np.isfinite(table)) and not np.any(table[:, 1])


def test_eigenvalue_table():
    assert eigenvalue(0, 1.0) == -1.0
    assert eigenvalue(3, 0.5) == -3.5


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_spectral_eigen_residual(a):
    """Each mode solves the oscillator eigenproblem to near-roundoff."""
    for n in range(11):
        h = hermite_fn(n, a, X)
        f = SampledFunction(GRID, h.astype(complex))
        r = oscillator_apply(f, a).values + (2 * n + 1) * a * h
        assert np.linalg.norm(r) / np.linalg.norm(h) <= 1e-8


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_orthonormality(a):
    L = 12.0 / np.sqrt(a)
    n = 2049
    h = 2 * L / (n - 1)
    g = make_grid(-L, L + h, n)
    table = hermite_table(20, a, g.points)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    gram = (table * (g.spacing * w / 3.0)) @ table.T
    assert np.max(np.abs(gram - np.eye(21))) <= 1e-8


def test_expand_reproduces_a_single_mode():
    c = expand(mode(3), 1.0, 12)
    assert abs(c.coeffs[3] - 1.0) <= 1e-10
    assert np.max(np.abs(np.delete(c.coeffs, 3))) <= 1e-10


def test_expand_odd_data_hits_only_mode_one():
    f = SampledFunction(GRID, (X * np.exp(-(X**2) / 2)).astype(complex))
    c = expand(f, 1.0, 10)
    assert np.max(np.abs(np.delete(c.coeffs, 1))) <= 1e-10
    assert abs(c.coeffs[1]) > 0.9


def test_expand_parseval():
    rng = np.random.default_rng(2)
    mix = rng.standard_normal(6)
    vals = sum(w * hermite_fn(k, 1.0, X) for k, w in enumerate(mix))
    f = SampledFunction(GRID, vals.astype(complex))
    c = expand(f, 1.0, 24)
    l2sq = quadrature(SampledFunction(GRID, np.abs(f.values) ** 2)).real
    assert abs(l2sq - np.sum(np.abs(c.coeffs) ** 2)) <= 1e-8


def test_expand_warns_on_unresolved_tail():
    g = make_grid(-12.0, 12.0, 1024)
    shifted = SampledFunction(g, np.exp(-2 * (g.points - 1.0) ** 2).astype(complex))
    with pytest.warns(UserWarning, match="tail"):
        expand(shifted, 1.0, 8)


def test_heat_oracle_single_mode_decay():
    c = SpectralCoefficients(1.0, np.array([1.0 + 0j]))
    out = heat_oracle(c, 0.25, GRID)
    assert np.max(np.abs(out.values - np.exp(-0.25) * hermite_fn(0, 1.0, X))) <= 1e-12


def test_heat_oracle_time_zero_reconstructs():
    rng = np.random.default_rng(5)
    c = SpectralCoefficients(1.0, rng.standard_normal(9).astype(complex))
    assert rel_l2_error(heat_oracle(c, 0.0, GRID), reconstruct(c, GRID)) <= 1e-14


def test_wave_oracle_single_mode():
    c = SpectralCoefficients(1.0, np.array([1.0 + 0j]))
    out = wave_oracle(c, 0.7, GRID)
    assert np.max(np.abs(out.values - np.sin(0.7) * hermite_fn(0, 1.0, X))) <= 1e-12


def test_wave_oracle_velocity_starts_at_the_data():
    rng = np.random.default_rng(8)
    c = SpectralCoefficients(1.0, rng.standard_normal(7).astype(complex))
    v = wave_oracle_velocity(c, 0.0, GRID)
    assert rel_l2_error(v, reconstruct(c, GRID)) <= 1e-14


def test_wave_oracle_periodicity_on_square_eigenvalues():
    # modes 0, 4, 12 have frequencies 1, 3, 5: period 2*pi exactly
    co = np.zeros(13, dtype=complex)
    co[0], co[4], co[12] = 0.5, -0.3, 0.2
    c = SpectralCoefficients(1.0, co)
    w1 = wave_oracle(c, 0.9, GRID)
    w2 = wave_oracle(c, 0.9 + 2 * np.pi, GRID)
    assert np.max(np.abs(w1.values - w2.values)) <= 1e-8


def test_wave_energy_conserved():
    co = np.zeros(13, dtype=complex)
    co[0], co[2], co[4], co[6] = 0.3, -0.4, 0.2, 0.1
    c = SpectralCoefficients(1.0, co)
    energies = [wave_energy(c, t, GRID) for t in (0.0, 0.3, 0.8, 1.5, 2.0)]
    assert (max(energies) - min(energies)) / max(energies) <= 1e-8


def test_wave_oracle_finite_propagation_speed():
    """Data supported in [-1,1] stays inside the inflated light cone."""
    g = make_grid(-8.0, 8.0, 2048)
    x = g.points
    vals = np.zeros(g.n)
    inside = np.abs(x) < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    f = SampledFunction(g, vals.astype(complex))
    with pytest.warns(UserWarning):
        c = expand(f, 16.0, 256)
    for t in (0.5, 1.0, 2.0):
        v = wave_oracle(c, t, g)
        outside = np.abs(x) > 1.0 + t + 0.2
        assert np.max(np.abs(v.values[outside])) <= 1e-6


def _allocating_table(n_max, a, x):
    # the recurrence with one temporary per row, as hermite_table first
    # wrote it; the in-place table must reproduce it bit for bit
    y = np.sqrt(a) * x
    out = np.empty((n_max + 1, x.size))
    out[0] = (a / np.pi) ** 0.25 * np.exp(-0.5 * y**2)
    out[1] = np.sqrt(2.0) * y * out[0]
    for n in range(1, n_max):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * y * out[n] - np.sqrt(
            n / (n + 1.0)
        ) * out[n - 1]
    return out


@pytest.mark.parametrize("n_max, n", [(64, 2048), (128, 2048), (128, 512), (64, 256)])
def test_in_place_table_equals_the_allocating_recurrence(n_max, n):
    x = make_grid(-12.0, 12.0, n).points
    for a in (0.5, 1.0, 3.0):
        assert np.array_equal(hermite_table(n_max, a, x), _allocating_table(n_max, a, x))


def _mix(g, a=1.0):
    coeffs = np.random.default_rng(3).standard_normal(6)
    return SampledFunction(g, hermite_table(5, a, g.points).T @ coeffs)


def _oracles(c, grid):
    t = 0.3
    return [reconstruct(c, grid).values, heat_oracle(c, t, grid).values,
            wave_oracle(c, t, grid).values, wave_oracle_velocity(c, t, grid).values,
            wave_energy(c, t, grid)]


def test_expanded_coefficients_synthesize_with_their_own_table(hermite_builds):
    """reconstruct, the three oracles and wave_energy's re-projection on
    the expansion grid build no table, and equal the results of fresh
    tables (hand-built coefficients) bit for bit."""
    g = make_grid(-12.0, 12.0, 512)
    c = expand(_mix(g), 1.0, 40)
    fresh = _oracles(SpectralCoefficients(c.a, c.coeffs), g)
    hermite_builds.clear()
    reused = _oracles(c, g)
    assert hermite_builds == []
    for got, want in zip(reused, fresh):
        assert np.array_equal(got, want)


def test_a_kept_table_serves_only_its_own_key(hermite_builds):
    """Another grid, a reassigned coupling and hand-built coefficients
    each build their own table, as they did before tables were kept."""
    g = make_grid(-12.0, 12.0, 512)
    c = expand(_mix(g), 1.0, 40)
    builds = hermite_builds
    builds.clear()
    other = make_grid(-10.0, 10.0, 400)
    got = reconstruct(c, other).values
    assert builds == [(40, 1.0, 400)]
    assert np.array_equal(got, reconstruct(SpectralCoefficients(1.0, c.coeffs), other).values)
    builds.clear()
    reconstruct(SpectralCoefficients(1.0, c.coeffs), g)
    assert builds == [(40, 1.0, 512)]
    builds.clear()
    c.a = 2.0
    got = wave_oracle(c, 0.3, g).values
    assert builds == [(40, 2.0, 512)]
    assert np.array_equal(got, wave_oracle(SpectralCoefficients(2.0, c.coeffs), 0.3, g).values)


def _complex_mix(g, n_max=128):
    rng = np.random.default_rng(29)
    coeffs = (rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)) \
        * np.exp(-0.2 * np.arange(n_max + 1))
    return SampledFunction(g, hermite_table(n_max, 1.0, g.points).T @ coeffs)


def test_real_products_agree_with_the_complex_product():
    """Projection and synthesis multiply the real table by the real and the
    imaginary part of the data; on data with both parts they agree with
    the complex product table @ v to rounding of its terms."""
    f = _complex_mix(GRID)
    assert np.max(np.abs(f.values.imag)) > 0.1
    table = hermite_table(128, 1.0, X)
    wf = GRID.spacing * quadrature_weights(GRID.n) * f.values
    c = expand(f, 1.0, 128)
    eps = np.finfo(float).eps
    assert np.all(np.abs(c.coeffs - table @ wf) <= 8 * eps * (np.abs(table) @ np.abs(wf)))
    m = np.exp(-_rates(c) * 0.3)
    got = heat_oracle(c, 0.3, GRID).values
    mc = m * c.coeffs
    assert np.all(np.abs(got - mc @ table) <= 8 * eps * (np.abs(mc) @ np.abs(table)))


def test_products_make_no_complex_copy_of_the_table():
    """table @ v with complex v copied the 129 x 2048 table to complex on
    every call: synthesis with a kept table peaked at 4.26 MB and expand
    at 6.39 MB.  Now synthesis allocates about its output (0.04 MB) and
    expand about its table (2.1 MB)."""
    f = _complex_mix(GRID)
    c = expand(f, 1.0, 128)
    peaks = []
    for call in (lambda: heat_oracle(c, 0.3, GRID), lambda: expand(f, 1.0, 128)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.25e6
    assert peaks[1] < 2.5e6
