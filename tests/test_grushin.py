import warnings

import numpy as np
import pytest

from oscwave import (
    GrushinPoint,
    grushin_heat_kernel,
    grushin_heat_matrix,
    make_grid,
    oscillator_kernel_in_coupling,
)
from oscwave import grushin
from oscwave.cli import main

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


def test_kernel_refuses_offsets_past_half_the_alias_period():
    """The dual sum is periodic in y - y' with period pi (n_a - 1) / a_max.

    Just inside half of it the value still matches 16 times the nodes
    (measured 1.53e-15 of the dy = 0 value at 0.999 of the bound, worst
    over a 5 x 5 grid of x, x' in [-1, 1] and t = 0.1, 0.5, 2); just
    outside it is refused.
    """
    t, x, xp = 0.5, 0.3, -0.2
    bound = np.pi * 1024 / (2.0 * 64.0)   # n_a = 1025; a_max = 64 here
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


def test_coupling_table_broadcasts_without_warnings():
    a = np.linspace(0.0, 40.0, 33)
    x = np.array([-1.0, 0.0, 0.4])[:, None]
    xp = np.array([0.7, 0.0, -0.3])[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = oscillator_kernel_in_coupling(a, 0.5, x, xp)
    assert table.shape == (3, 33)
    for row, xi, xpi in zip(table, x[:, 0], xp[:, 0]):
        assert np.array_equal(row, oscillator_kernel_in_coupling(a, 0.5, xi, xpi))


def _dump_grid():
    # the CLI's --grid -1,1,16: at t = 0.5 its pairs need two cutoffs
    return make_grid(-1.0, 1.0, 16).points


def test_pairs_split_between_two_cutoffs_on_a_16_point_grid():
    x = _dump_grid()
    a_max = grushin._cutoffs(0.5, np.repeat(x, x.size), np.tile(x, x.size))
    values, counts = np.unique(a_max, return_counts=True)
    assert values.tolist() == [32.0, 64.0]
    assert counts.tolist() == [79, 177]


def _loop_reference(t, x, xp, dy, n_a=1025):
    # one pair at a time, as the dump was computed before it became array
    # code: a cutoff probe per pair, then one complex trapezoid sum
    a_max = 8.0 / t
    while True:
        probe = oscillator_kernel_in_coupling(np.linspace(0.0, a_max, 257), t, x, xp)
        if probe[-1] <= grushin.CUTOFF_DECAY * np.max(probe):
            break
        a_max *= 2.0
    nodes = np.linspace(-a_max, a_max, n_a)
    integrand = np.exp(1j * dy * nodes) * oscillator_kernel_in_coupling(
        np.abs(nodes), t, x, xp)
    weights = np.ones(n_a)
    weights[0] = weights[-1] = 0.5
    return ((nodes[1] - nodes[0]) * np.dot(weights, integrand) / (2.0 * np.pi)).real


def test_grushin_dump_matches_the_point_kernel(tmp_path):
    x = _dump_grid()
    dst = tmp_path / "g.csv"
    assert main(["grushin-heat", "--t", "0.5", "--grid", "-1,1,16", "--dy", "0.3",
                 "--output", str(dst)]) == 0
    rows = np.loadtxt(dst, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], np.repeat(x, x.size))
    assert np.array_equal(rows[:, 1], np.tile(x, x.size))
    dump = rows[:, 2].reshape(x.size, x.size)
    point = np.array([[grushin_heat_kernel(GrushinPoint(xi, 0.3, xj, 0.0, 0.5))
                       for xj in x] for xi in x])
    assert np.max(np.abs(dump - point)) <= 1e-14 * np.max(np.abs(point))
    # the per-pair loop sums in another order: 4.9e-16 of the peak measured
    loop = np.array([[_loop_reference(0.5, xi, xj, 0.3) for xj in x] for xi in x])
    assert np.max(np.abs(dump - loop)) <= 1e-14 * np.max(np.abs(loop))


def test_matrix_bits_do_not_depend_on_the_table_block(monkeypatch):
    x = _dump_grid()
    whole = grushin_heat_matrix(0.5, x, x, 0.3, as_complex=True)
    # two pairs per 1025-node table, eleven per 257-node probe
    monkeypatch.setattr(grushin, "_TABLE_ENTRIES", 3000)
    blocked = grushin_heat_matrix(0.5, x, x, 0.3, as_complex=True)
    assert np.array_equal(whole, blocked)


def test_matrix_raises_for_the_first_offending_pair_in_row_major_order():
    # at dy = 40 the a_max = 64 pairs alias (bound 25.13) and the a_max = 32
    # pairs do not (bound 50.27); row 0 is all a_max = 32, so the first
    # offender is pair (1, 6)
    x = _dump_grid()
    want = None
    for xi in x:
        for xj in x:
            try:
                grushin_heat_kernel(GrushinPoint(xi, 40.0, xj, 0.0, 0.5))
            except ValueError as err:
                want = str(err)
                break
        if want is not None:
            break
    assert want is not None and "a_max = 64" in want
    with pytest.raises(ValueError) as err:
        grushin_heat_matrix(0.5, x, x, 40.0)
    assert str(err.value) == want


def test_y_marginal_is_the_free_heat_kernel_in_x():
    """int p_t(x, y; x', y') dy' = (4 pi t)^{-1/2} e^{-(x - x')^2 / 4t}: the
    y' integral keeps the zero-coupling mode only.  The dy integral is the
    trapezoid rule over |dy| <= 20, step 0.1, which needs offsets past a
    quarter of the a_max = 64 alias period (12.57); measured 5.1e-13
    relative at t = 0.5 on a 5 x 5 grid of x, x' in [-1, 1].
    """
    t = 0.5
    x = np.linspace(-1.0, 1.0, 5)
    dys = 0.1 * np.arange(-200, 201)
    total = 0.1 * sum(grushin_heat_matrix(t, x, x, dy) for dy in dys)
    total -= 0.05 * (grushin_heat_matrix(t, x, x, dys[0])
                     + grushin_heat_matrix(t, x, x, dys[-1]))
    free = np.exp(-((x[:, None] - x) ** 2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
    assert np.max(np.abs(total - free) / free) <= 2e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t, message", [
    (1e-300, "the kernel at t = 1e-300 leaves the double range at x = -1, x' = -1"),
    (1e-320, "below 1e-300 the kernel leaves the double range"),
])
def test_matrix_refuses_times_where_the_kernel_leaves_the_double_range(t, message):
    x = make_grid(-1.0, 1.0, 8).points
    with pytest.raises(ValueError, match=message):
        grushin_heat_matrix(t, x, x, 0.0)


@pytest.mark.parametrize("t, dy, message", [
    (0.0, 0.3, "time t must be positive and finite"),
    (np.nan, 0.3, "time t must be positive and finite"),
    (0.5, np.inf, "coordinates must be finite"),
    (0.5, np.nan, "coordinates must be finite"),
])
def test_matrix_validates_like_the_point(t, dy, message):
    with pytest.raises(ValueError, match=message):
        grushin_heat_matrix(t, [0.0, 0.5], [0.1], dy)


def test_grushin_dump_rejects_a_non_finite_offset(tmp_path, capsys):
    dst = tmp_path / "g.csv"
    assert main(["grushin-heat", "--t", "0.5", "--grid", "-1,1,8", "--dy", "nan",
                 "--output", str(dst)]) == 1
    assert "coordinates must be finite" in capsys.readouterr().err
    assert not dst.exists()


def test_kernel_is_invariant_under_the_grushin_dilation():
    """p_t(x, y; x', y') = lam^3 p_{lam^2 t}(lam x, lam^2 y; lam x', lam^2 y').

    The dilation (x, y) -> (lam x, lam^2 y) scales the operator by lam^-2,
    and the homogeneous dimension is 3.  Measured at lam = 1.7: 2.34e-14
    relative on c13's point and 2.3e-14 of the matrix peak on the grids
    below (the cutoffs and nodes of the two sides differ), so the
    tolerance is 5e-14.
    """
    lam = 1.7

    def dilated(t, x, xp, dy):
        return lam**3 * grushin_heat_matrix(lam**2 * t, lam * np.asarray(x),
                                            lam * np.asarray(xp), lam**2 * dy)

    p = POINT
    direct = grushin_heat_matrix(p.t, [p.x], [p.xp], p.y - p.yp)
    assert abs(dilated(p.t, [p.x], [p.xp], p.y - p.yp) - direct)[0, 0] \
        <= 5e-14 * abs(direct[0, 0])
    for n, t, dy in ((8, 0.5, 0.3), (10, 0.25, 1.0), (8, 1.0, 0.0)):
        x = make_grid(-1.0, 1.0, n).points
        direct = grushin_heat_matrix(t, x, x, dy)
        assert np.max(np.abs(dilated(t, x, x, dy) - direct)) \
            <= 5e-14 * np.max(np.abs(direct))
