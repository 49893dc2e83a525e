import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import two_prod
from oscwave import (
    EdgeDecayWarning,
    SampledFunction,
    forward_ft,
    inverse_ft,
    make_grid,
    spectral_resample,
)
from oscwave.fourier import SpectralFunction

GRID = make_grid(-16.0, 16.0, 1024)
X = GRID.points


def test_gaussian_fixed_point():
    # e^{-x^2/2} is the fixed point of the symmetric normalization
    F = forward_ft(SampledFunction(GRID, np.exp(-(X**2) / 2)))
    xi = F.xi_grid.points
    assert np.max(np.abs(F.values - np.exp(-(xi**2) / 2))) <= 1e-10


def test_zero_frequency_value():
    F = forward_ft(SampledFunction(GRID, np.exp(-(X**2))))
    i0 = np.argmin(np.abs(F.xi_grid.points))
    assert F.xi_grid.points[i0] == 0.0
    assert abs(F.values[i0] - 1.0 / np.sqrt(2.0)) <= 1e-12


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0])
def test_gaussian_identity_family(s):
    F = forward_ft(SampledFunction(GRID, np.exp(-(X**2) / (4 * s))))
    xi = F.xi_grid.points
    assert np.max(np.abs(F.values - np.sqrt(2 * s) * np.exp(-s * xi**2))) <= 1e-10


@pytest.mark.parametrize("alpha", [2.0, 3.0, 0.5])
def test_scaling_law(alpha):
    F = forward_ft(SampledFunction(GRID, np.exp(-((alpha * X) ** 2) / 2)))
    xi = F.xi_grid.points
    target = (1.0 / alpha) * np.exp(-((xi / alpha) ** 2) / 2)
    assert np.max(np.abs(F.values - target)) <= 1e-8


@pytest.mark.parametrize("s", [0.5, 0.25])
def test_inverse_of_gaussian_spectrum(s):
    ref = forward_ft(SampledFunction(GRID, np.exp(-(X**2))))
    xi = ref.xi_grid.points
    F = SpectralFunction(ref.xi_grid, np.exp(-s * xi**2), GRID)
    back = inverse_ft(F)
    target = np.exp(-(X**2) / (4 * s)) / np.sqrt(2 * s)
    assert np.max(np.abs(back.values - target)) <= 1e-12


@given(
    c0=st.floats(-2, 2),
    c1=st.floats(-2, 2),
    c2=st.floats(-2, 2),
)
def test_round_trip(c0, c1, c2):
    f = SampledFunction(GRID, (c0 + c1 * X + c2 * X**2) * np.exp(-(X**2) / 2))
    back = inverse_ft(forward_ft(f))
    scale = max(np.linalg.norm(f.values), 1e-30)
    assert np.linalg.norm(back.values - f.values) <= 1e-12 * max(scale, 1.0)


def test_parseval():
    rng = np.random.default_rng(7)
    vals = np.exp(-(X**2) / 2) * np.polyval(rng.standard_normal(4), X)
    f = SampledFunction(GRID, vals)
    F = forward_ft(f)
    nf = np.sqrt(GRID.spacing) * np.linalg.norm(f.values)
    nF = np.sqrt(F.xi_grid.spacing) * np.linalg.norm(F.values)
    assert abs(nf - nF) <= 1e-10 * nf


def test_grid_reciprocity():
    F = forward_ft(SampledFunction(GRID, np.exp(-(X**2))))
    recip = 2 * np.pi / (GRID.n * GRID.spacing)
    assert F.xi_grid.spacing == pytest.approx(recip, rel=1e-14)
    with pytest.raises(ValueError):
        SpectralFunction(F.xi_grid, F.values[:-1], GRID)
    with pytest.raises(ValueError):
        SpectralFunction(F.xi_grid, F.values, make_grid(-16.0, 16.0, 512))


def test_resample_identity():
    ref = forward_ft(SampledFunction(GRID, np.exp(-(X**2))))
    F = SpectralFunction(ref.xi_grid, np.exp(-ref.xi_grid.points**2), GRID)
    R = spectral_resample(F, 1.0)
    assert np.max(np.abs(R.values - F.values)) <= 1e-10


def test_resample_gaussian_closed_form():
    ref = forward_ft(SampledFunction(GRID, np.exp(-(X**2))))
    xi = ref.xi_grid.points
    F = SpectralFunction(ref.xi_grid, np.exp(-(xi**2)), GRID)
    R = spectral_resample(F, 0.5)
    assert np.max(np.abs(R.values - np.exp(-(xi**2) / 4))) <= 1e-8


def _direct_resample(F, scale):
    """F's trigonometric interpolant at scale * xi, summed term by term:
    (h/sqrt(2pi)) e^{-i scale xi_k x_min} sum_j f_j e^{-i 2pi scale j k'/n},
    k' = k - n//2, with each turn scale j k' formed exactly (two_prod) and
    reduced mod n before it meets 2pi/n.  Row -k' is row k''s conjugate,
    so only rows k' >= 0 are formed, in blocks so the matrix stays small."""
    n, g = F.xi_grid.n, F.x_grid
    f = inverse_ft(F).values
    sums, mirrored = [], []
    for k in np.array_split(np.arange(n // 2 + 1), n // 512 + 1):
        p, e = two_prod(scale, np.outer(k, np.arange(n)).astype(float))
        rows = np.exp(-1j * (np.fmod(p, n) + e) * (2 * np.pi / n))
        sums.append(rows @ f)
        mirrored.append(np.conj(rows @ np.conj(f)))
    sums, mirrored = np.concatenate(sums), np.concatenate(mirrored)
    sums = np.concatenate([mirrored[:0:-1], sums[:n - n // 2]])
    xi = scale * F.xi_grid.points
    return (g.spacing / np.sqrt(2 * np.pi)) * np.exp(-1j * xi * g.x_min) * sums


@pytest.mark.parametrize("n", [257, 512, 4099])
@pytest.mark.parametrize("scale", [1.0, 0.5, np.exp(-0.8)])
def test_resample_matches_a_direct_sum(n, scale):
    g = make_grid(-12.0, 12.0, n)
    F = forward_ft(SampledFunction(g, np.exp(-(g.points - 0.7) ** 2 + 0.3j * g.points)))
    want = _direct_resample(F, scale)
    got = spectral_resample(F, scale).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_resample_scale_domain():
    ref = forward_ft(SampledFunction(GRID, np.exp(-(X**2))))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            spectral_resample(ref, bad)


def test_edge_decay_warnings():
    with pytest.warns(EdgeDecayWarning):
        forward_ft(SampledFunction(GRID, np.ones(GRID.n)))
    # spectrum carrying mass near the band edge degrades interpolation
    ref = forward_ft(SampledFunction(GRID, np.exp(-(X**2))))
    xi = ref.xi_grid.points
    edge_heavy = SpectralFunction(ref.xi_grid, np.exp(-((xi / 80.0) ** 2)), GRID)
    with pytest.warns(EdgeDecayWarning):
        spectral_resample(edge_heavy, 0.9)
