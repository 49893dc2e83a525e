import numpy as np
import pytest

from oscwave import GrushinPoint, grushin_heat_kernel, oscillator_kernel_in_coupling

POINT = GrushinPoint(0.3, 0.7, -0.2, 0.1, 0.5)


def test_point_validation():
    with pytest.raises(ValueError):
        GrushinPoint(0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GrushinPoint(0.0, 0.0, 0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        GrushinPoint(np.inf, 0.0, 0.0, 0.0, 1.0)


def test_kernel_value_is_real():
    v = grushin_heat_kernel(POINT, as_complex=True)
    assert abs(v.imag) <= 1e-10 * abs(v.real)


def test_kernel_symmetry_under_point_swap():
    swapped = GrushinPoint(POINT.xp, POINT.yp, POINT.x, POINT.y, POINT.t)
    a = grushin_heat_kernel(POINT)
    b = grushin_heat_kernel(swapped)
    assert abs(a - b) <= 1e-10 * abs(a)


def test_kernel_self_convergence_in_the_node_count():
    coarse = grushin_heat_kernel(POINT, n_a=513)
    fine = grushin_heat_kernel(POINT, n_a=1025)
    assert abs(coarse - fine) <= 1e-8 * abs(fine)


def test_kernel_is_translation_invariant_in_y():
    shifted = GrushinPoint(POINT.x, POINT.y + 2.31, POINT.xp, POINT.yp + 2.31, POINT.t)
    a = grushin_heat_kernel(POINT)
    b = grushin_heat_kernel(shifted)
    assert abs(a - b) <= 1e-12 * abs(a)


def test_kernel_positive_on_sample_points():
    for x, y, xp, yp, t in [
        (0.0, 0.0, 0.0, 0.0, 0.5),
        (1.0, -0.4, 0.3, 0.2, 1.0),
        (2.0, 0.0, -1.0, 0.5, 0.25),
    ]:
        assert grushin_heat_kernel(GrushinPoint(x, y, xp, yp, t)) > 0.0


def test_kernel_decays_along_the_diagonal_ray():
    vals = [
        grushin_heat_kernel(GrushinPoint(x, 0.4, x, 0.4, 0.5))
        for x in (0.0, 0.8, 1.6, 2.4, 3.2)
    ]
    assert all(v > 0 for v in vals)
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_kernel_rejects_bad_quadrature_requests():
    with pytest.raises(ValueError, match="at least 129"):
        grushin_heat_kernel(POINT, n_a=65)


def test_kernel_refuses_offsets_past_a_quarter_alias_period():
    """The dual sum is periodic in y - y' with period pi (n_a - 1) / a_max.

    Just inside a quarter of it the value still matches 16 times the nodes
    (measured 2.3e-15 of the dy = 0 value at the bound, worst over
    x, x' in [-1, 1] and t = 0.1, 0.5, 2); just outside it is refused.
    """
    t, x, xp = 0.5, 0.3, -0.2
    bound = np.pi * 1024 / (4.0 * 64.0)   # n_a = 1025; a_max = 64 here
    peak = grushin_heat_kernel(GrushinPoint(x, 0.0, xp, 0.0, t))
    inside = GrushinPoint(x, 0.999 * bound, xp, 0.0, t)
    fine = grushin_heat_kernel(inside, n_a=16385)
    assert abs(grushin_heat_kernel(inside) - fine) <= 1e-14 * peak
    with pytest.raises(ValueError, match="alias period at a_max = 64, n_a = 1025"):
        grushin_heat_kernel(GrushinPoint(x, 1.001 * bound, xp, 0.0, t))


def test_zero_coupling_limit_is_the_free_line_kernel():
    t, x, xp = 0.5, 0.3, -0.2
    got = oscillator_kernel_in_coupling(np.array([0.0]), t, x, xp)[0]
    want = np.exp(-((x - xp) ** 2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
    assert got == want


def test_coupling_is_continuous_at_zero():
    t, x, xp = 0.5, 0.3, -0.2
    tiny = oscillator_kernel_in_coupling(np.array([1e-6]), t, x, xp)[0]
    limit = oscillator_kernel_in_coupling(np.array([0.0]), t, x, xp)[0]
    assert abs(tiny - limit) <= 1e-10 * limit
