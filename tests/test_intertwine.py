import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscwave import (
    BranchPair,
    IntertwineParams,
    SampledFunction,
    SpectralCoefficients,
    apply_T,
    apply_T_inverse,
    branch_spectra,
    derive_params,
    forward_ft,
    hermite_fn,
    intertwine_residual,
    intertwine_residuals,
    inverse_ft,
    make_grid,
    oscillator_apply,
    reconstruct,
    rel_l2_error,
    weight,
)
from oscwave.fourier import EdgeDecayWarning, SpectralFunction
from oscwave.intertwine import (_INV_2PI, _RAD_PER_UNIT, _RHO, _branch_transform,
                                _centered_d, _damped, _inverse_phase_sums, _phase_sums,
                                _phase_tables, _split, _transport_rows, _two_prod)

GRID = make_grid(-12.0, 12.0, 2048)
X = GRID.points
WINDOW = IntertwineParams(1.0, GRID, make_grid(0.0, 1.2, 2048))


def test_weight_closed_forms():
    assert weight(1.0, 0.7) == pytest.approx(np.exp(1 / 2.8), rel=1e-14)
    assert weight(4.0, 1.0) == pytest.approx(2 * np.exp(4.0), rel=1e-14)
    assert weight(-1.0, 1.0) == pytest.approx(np.exp(0.25), rel=1e-14)
    with pytest.raises(ValueError):
        weight(0.0, 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        IntertwineParams(-1.0, GRID, make_grid(0.0, 1.0, 64))


def test_branch_pair_needs_shared_grid():
    g1 = make_grid(0.0, 1.0, 64)
    g2 = make_grid(0.0, 2.0, 64)
    f1 = SampledFunction(g1, np.zeros(64, dtype=complex))
    f2 = SampledFunction(g2, np.zeros(64, dtype=complex))
    with pytest.raises(ValueError):
        BranchPair(f1, f2)


def test_ground_state_branches_are_exponentials():
    """The Gaussian weight cancels exactly: both branches e^{-aX}/sqrt(2a)."""
    phi = SampledFunction(GRID, np.exp(-(X**2) / 2).astype(complex))
    b = _branch_transform(_damped(phi, 1.0), WINDOW)
    XX = WINDOW.X_grid.points
    target = np.exp(-XX) / np.sqrt(2.0)
    for side in (b.plus, b.minus):
        assert np.max(np.abs(side.values - target)) <= 1e-12 * np.max(target)


def test_zero_maps_to_zero():
    zero = SampledFunction(GRID, np.zeros(GRID.n, dtype=complex))
    b = _branch_transform(_damped(zero, 1.0), WINDOW)
    assert np.max(np.abs(b.plus.values)) == 0.0
    assert np.max(np.abs(b.minus.values)) == 0.0


def test_real_even_input_gives_equal_branches():
    phi = SampledFunction(GRID, (np.exp(-0.6 * X**2) * (1 + 0.2 * X**2)).astype(complex))
    b = _branch_transform(_damped(phi, 1.0), WINDOW)
    assert np.max(np.abs(b.plus.values - b.minus.values)) <= 1e-10


def test_window_branches_of_complex_uneven_data_match_a_plain_sum():
    """Each branch reads the damped spectrum at its own sign of xi.

    Data that is neither real nor even has G(-xi) != G(xi) and
    G(-xi) != conj(G(xi)), so a branch built from the wrong sign or the
    wrong conjugate fails here; real even data cannot tell them apart.
    """
    a = 1.0
    g = make_grid(-8.0, 8.0, 256)
    x = g.points
    vals = (1.0 + 0.5j) * np.exp(-((x - 0.7) ** 2)) + 0.3j * x * np.exp(-0.5 * x**2)
    p = IntertwineParams(a, g, make_grid(0.0, 1.2, 64))
    b = _branch_transform(_damped(SampledFunction(g, vals), a), p)
    xi = np.exp(-2.0 * a * p.X_grid.points)
    damped = vals * np.exp(-0.5 * a * x**2)
    for side, sign in ((b.plus, 1.0), (b.minus, -1.0)):
        spectrum = np.exp(-1j * sign * np.outer(xi, x)) @ damped * g.spacing
        want = np.sqrt(xi) * np.exp(xi**2 / (4.0 * a)) * spectrum / np.sqrt(2.0 * np.pi)
        assert np.max(np.abs(side.values - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_x", [8, 257, 1000])
def test_factorized_phase_sums_match_a_long_double_direct_sum(n_x):
    """Forward and inverse phase sums on grid sizes that are no power of two
    (257 is prime) against every term e^{-i xi x} formed in long double.

    The grid is off-center, so a dropped e^{-i xi x0} factor shows; the
    data is complex and uneven, and each inverse branch runs alone, so a
    swapped sign shows in either direction.
    """
    rng = np.random.default_rng(n_x)
    g = make_grid(-3.3, 5.1, n_x)
    n_xi = 63
    xi = np.sort(rng.uniform(0.02, 0.9, n_xi)) * np.pi / g.spacing
    ld = np.longdouble
    theta = np.multiply.outer(xi.astype(ld), ld(g.x_min) + ld(g.spacing) * np.arange(n_x))
    phases = np.cos(theta) - 1j * np.sin(theta)

    def assert_close(got, want):
        want = want.astype(complex)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    values = rng.normal(size=n_x) + 1j * rng.normal(size=n_x)
    scale = g.spacing / np.sqrt(2.0 * np.pi)
    tables = _phase_tables(xi, g)
    g_plus, g_minus = _phase_sums(values, g, xi, tables)
    assert_close(g_plus, scale * (phases @ values))
    assert_close(g_minus, scale * (phases.conj() @ values))

    c = rng.normal(size=n_xi) + 1j * rng.normal(size=n_xi)
    zero = np.zeros(n_xi, dtype=complex)
    assert_close(_inverse_phase_sums(g, c, zero, tables), c @ phases.conj())
    assert_close(_inverse_phase_sums(g, zero, c, tables), c @ phases)


def test_n_samples_sum_as_the_n_by_1_block():
    """A 1-D call is the k = 1 block of the one code path: on a heat
    window's shared rows (high and low) both give the same bits."""
    g = make_grid(-12.0, 12.0, 512)
    f0 = reconstruct(SpectralCoefficients(1.0, np.random.default_rng(5).standard_normal(8)), g)
    _, xi, tables = _transport_rows(derive_params(1.0, g, f0), 0.4)
    assert tables.high.size and tables.low.size
    damped = _damped(f0, 1.0)
    for column, block in zip(_phase_sums(damped, g, xi, tables),
                             _phase_sums(damped[:, None], g, xi, tables)):
        assert column.shape == (xi.size,) and block.shape == (xi.size, 1)
        assert np.array_equal(column, block[:, 0])


@pytest.mark.parametrize("n_x", [8, 257, 1000])
def test_each_column_of_a_block_matches_a_long_double_direct_sum(n_x):
    """The bound of test_factorized_phase_sums_match_a_long_double_direct_sum
    per column of a 3-column block of complex, uneven data, with rows of
    both kinds: the frequencies there, and as many with |xi| R <= _RHO."""
    rng = np.random.default_rng(n_x)
    g = make_grid(-3.3, 5.1, n_x)
    R = g.spacing * (0.5 * (n_x - 1))
    xi = np.sort(np.concatenate([rng.uniform(0.02, 0.9, 63) * np.pi / g.spacing,
                                 rng.uniform(0.0, _RHO, 63) / R]))
    ld = np.longdouble
    theta = np.multiply.outer(xi.astype(ld), ld(g.x_min) + ld(g.spacing) * np.arange(n_x))
    phases = np.cos(theta) - 1j * np.sin(theta)
    tables = _phase_tables(xi, g)
    assert tables.high.size == tables.low.size == 63

    def assert_close(got, want):
        want = want.astype(complex)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    block = rng.normal(size=(n_x, 3)) + 1j * rng.normal(size=(n_x, 3))
    scale = g.spacing / np.sqrt(2.0 * np.pi)
    g_plus, g_minus = _phase_sums(block, g, xi, tables)
    assert g_plus.shape == g_minus.shape == (xi.size, 3)
    for c in range(3):
        assert_close(g_plus[:, c], scale * (phases @ block[:, c]))
        assert_close(g_minus[:, c], scale * (phases.conj() @ block[:, c]))


def test_a_window_without_low_rows_skips_the_moment_product():
    """c04's windows (512 rows, all high at n = 2048) have no low rows, so
    the forward sum forms no moment product: a table set without powers
    still sums, to the same bits."""
    p = IntertwineParams(0.5, GRID, make_grid(0.0, 0.3, 512))
    tables = p.phase_tables
    assert tables.low.size == 0
    values = hermite_fn(1, 0.5, X) * np.exp(-0.25 * X**2) * (1.0 + 0.5j)
    want = _phase_sums(values, GRID, p.xi_nodes, tables)
    got = _phase_sums(values, GRID, p.xi_nodes, tables._replace(powers=None))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_batched_residuals_report_as_one_function_calls():
    """intertwine_residuals sums every function's two sides as one block;
    each report keeps the verdict of its one-function call, with the
    metric within 1e-6 relative (the block sums in another order)."""
    p = IntertwineParams(1.0, GRID, make_grid(0.0, 0.3, 512))
    mix = reconstruct(SpectralCoefficients(1.0, np.random.default_rng(3).standard_normal(6)), GRID)
    phis = [SampledFunction(GRID, hermite_fn(k, 1.0, X).astype(complex)) for k in range(3)]
    phis.append(mix)
    batched = intertwine_residuals(phis, p)
    assert len(batched) == len(phis)
    for phi, rep in zip(phis, batched):
        one = intertwine_residual(phi, p)
        assert (rep.check_name, rep.verdict, rep.tolerance) == (
            one.check_name, one.verdict, one.tolerance)
        assert abs(rep.metric - one.metric) <= 1e-6 * one.metric


def test_an_unresolved_column_warns_alone():
    """Among resolved neighbours, only the unresolved function warns, with
    the one-function call's warnings (the residual's own, once, and its
    spectrum's EdgeDecayWarning), and only its report turns
    informational."""
    g = make_grid(-12.0, 12.0, 256)
    p = IntertwineParams(1.0, g, make_grid(0.0, 0.3, 128))
    ground = SampledFunction(g, np.exp(-(g.points**2) / 2).astype(complex))
    sharp = SampledFunction(g, np.exp(-20 * g.points**2).astype(complex))

    def warned(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        return result, sorted((w.category.__name__, str(w.message)) for w in caught)

    alone, single = warned(lambda: intertwine_residual(sharp, p))
    reports, batched = warned(lambda: intertwine_residuals([ground, sharp, ground], p))
    assert [c for c, _ in single].count("UserWarning") == 1
    assert batched == single
    assert [r.verdict for r in reports] == ["pass", "informational", "pass"]
    assert reports[1].notes == alone.notes


def test_batched_residuals_refuse_functions_off_the_window_grid():
    p = IntertwineParams(1.0, GRID, make_grid(0.0, 0.3, 512))
    other = make_grid(-10.0, 10.0, 2048)
    with pytest.raises(ValueError, match="x grid"):
        intertwine_residuals([SampledFunction(other, np.exp(-other.points**2 / 2))], p)


@pytest.mark.parametrize("lo, hi, n", [
    pytest.param(-37.3, 41.9, 4099, id="straddling_zero"),
    pytest.param(20.5, 61.3, 2048, id="positive_x0")])
def test_phase_table_entries_match_mpmath(lo, hi, n):
    """Every table entry is e^{-i theta} to rounding, theta formed exactly.

    One grid is off-center with |x0| = 37.3 and n = 4099 (prime), the
    other lies wholly at x > 0, and xi runs to 0.95 of the Nyquist
    frequency, so the arguments reach ~6000 rad: rounding one to double
    before the reduction mod 2pi costs ~1e-13 there.  The coarse and fine
    tables hold cos and sin at J, r >= 0; an entry at a negative index is
    read back as cos + i sin, and half of the sampled indices are
    negative.  Over 500 sampled entries per table on each grid the worst
    measured 3.1e-16, one rounding.
    """
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    g = make_grid(lo, hi, n)
    xi = np.sort(rng.uniform(1e-3, 0.95, 257)) * np.pi / g.spacing
    tables = _phase_tables(xi, g)
    xi = xi[tables.high]
    half, top, _ = _split(n)
    h, x0, c = mp.mpf(g.spacing), mp.mpf(g.x_min), (n - 1) // 2

    def signed(table):
        # the entry at index j, read by symmetry where j < 0
        return lambda k, j: table[k, 0, np.abs(j)] - 1j * np.sign(j) * table[k, 1, np.abs(j)]

    assert tables.coarse.shape == (xi.size, 2, top + 1)
    assert tables.fine.shape == (xi.size, 2, half + 1)
    for name, entry, size, step in (
            ("mid", lambda k, j: tables.mid[k], 0, lambda j: x0 + h * c),
            ("coarse", signed(tables.coarse), top, lambda j: h * (2 * half + 1) * j),
            ("fine", signed(tables.fine), half, lambda j: h * j)):
        rows = rng.integers(0, xi.size, 400)
        cols = rng.integers(-size, size + 1, 400)
        got = entry(rows, cols)
        with mp.workprec(150):
            want = np.array([complex(mp.expj(-mp.mpf(xi[k]) * step(int(j))))
                             for k, j in zip(rows, cols)])
        assert np.max(np.abs(got - want)) <= 8e-16, name


@pytest.mark.parametrize("lo, hi, n", [
    pytest.param(-3.3, 5.1, 500, id="straddling_zero"),
    pytest.param(20.5, 61.3, 2048, id="positive_x0"),
    pytest.param(1000.3, 1001.1, 64, id="far_from_zero")])
def test_low_and_high_rows_match_a_long_double_direct_sum(lo, hi, n):
    """Forward and inverse sums with xi from 0.95 of the Nyquist frequency
    down to e^{-37}, in shuffled order, against every term e^{-i xi x}
    formed in long double from e^{-i xi x0} in mpmath.  Rows with
    |xi| R <= _RHO (R the half-width) sum through the moment expansion,
    the rest through the factored tables; two added rows sit on the
    boundary, |xi| R == _RHO (low) and one ulp above it (high).  On the
    last grid the centre lies 2500 half-widths from 0, so a rounding of
    x_c left in the low rows shows.  The data are complex.  Each row is
    held to a rounding of its terms' size: forward within 1e-16
    h/sqrt(2pi) sum|v|, inverse within 2e-16 sum|c|.
    """
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    g = make_grid(lo, hi, n)
    R = g.spacing * (0.5 * (n - 1))
    edge = _RHO / R
    while edge * R > _RHO:
        edge = np.nextafter(edge, 0.0)
    while np.nextafter(edge, 1.0) * R <= _RHO:
        edge = np.nextafter(edge, 1.0)
    xi = np.concatenate([np.geomspace(0.95 * np.pi / g.spacing, np.exp(-37.0), 400),
                         [edge, np.nextafter(edge, 1.0)]])
    xi = rng.permutation(xi)
    tables = _phase_tables(xi, g)
    low = np.zeros(xi.size, dtype=bool)
    low[tables.low] = True
    assert np.array_equal(low, np.abs(xi) * R <= _RHO)
    assert 0 < tables.high.size < tables.low.size
    assert low[xi == edge] and not low[xi == np.nextafter(edge, 1.0)]

    ld = np.longdouble
    with mp.workprec(150):
        offset = [mp.expj(-mp.mpf(k) * mp.mpf(g.x_min)) for k in xi]
        off_re = np.array([ld(mp.nstr(z.real, 30)) for z in offset])
        off_im = np.array([ld(mp.nstr(z.imag, 30)) for z in offset])
    theta = np.multiply.outer(xi.astype(ld), ld(g.spacing) * np.arange(n))
    cos = off_re[:, None] * np.cos(theta) + off_im[:, None] * np.sin(theta)
    sin = off_re[:, None] * np.sin(theta) - off_im[:, None] * np.cos(theta)

    def direct(vals, sign):
        # sum_j vals_j e^{-i sign xi x_j} over the rows, in long double
        re, im = vals.real.astype(ld), vals.imag.astype(ld)
        return ((cos @ re + sign * (sin @ im))
                + 1j * (cos @ im - sign * (sin @ re))).astype(complex)

    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    scale = g.spacing / np.sqrt(2.0 * np.pi)
    g_plus, g_minus = _phase_sums(values, g, xi, tables)
    bound = 1e-16 * scale * np.sum(np.abs(values))
    assert np.all(np.abs(g_plus - scale * direct(values, 1.0)) <= bound)
    assert np.all(np.abs(g_minus - scale * direct(values, -1.0)) <= bound)

    c = rng.normal(size=xi.size) + 1j * rng.normal(size=xi.size)
    zero = np.zeros(xi.size, dtype=complex)
    cos, sin = cos.T, sin.T
    bound = 2e-16 * np.sum(np.abs(c))
    assert np.all(np.abs(_inverse_phase_sums(g, c, zero, tables) - direct(c, -1.0)) <= bound)
    assert np.all(np.abs(_inverse_phase_sums(g, zero, c, tables) - direct(c, 1.0)) <= bound)


def test_derived_windows_build_trig_tables_for_a_fifth_of_their_rows():
    """On c05's data (a = 1, [-12, 12), 2048 samples) derive_params runs X
    to 18.5/a, where xi = e^{-37}; 81% of its rows have |xi| R <= _RHO and
    need no trig table.  The other rows hold cos and sin at J, r >= 0 only:
    24 + 23 pairs a row here, where complex tables over every J and r held
    46 + 45 entries.  Counting a pair as one entry, the tables hold at most
    an eighth of the N (ceil(n/m) + m) entries every row once needed
    (measured 0.11; 0.20 with the complex tables)."""
    g = make_grid(-12.0, 12.0, 2048)
    f0 = reconstruct(SpectralCoefficients(1.0, np.random.default_rng(5).standard_normal(8)), g)
    p = derive_params(1.0, g, f0)
    tables = p.phase_tables
    N, m = p.X_grid.n, 2 * _split(g.n)[0] + 1
    entries = (tables.mid.size + tables.coarse.size // 2 + tables.fine.size // 2
               + tables.centre.size)
    assert entries <= 0.125 * N * (-(-g.n // m) + m)
    assert tables.taylor.shape[0] + tables.mid.size == N


def test_two_prod_is_exact():
    """p + e is the product exactly, over the exponents the tables meet:
    frequencies from e^{-37}, grid offsets and steps, turn counts to 2^63,
    and the two constants it multiplies by, 1/2pi and 2pi/2^64."""
    rng = np.random.default_rng(64)
    a = np.ldexp(rng.uniform(-2.0, 2.0, 3000), rng.integers(-70, 64, 3000))
    b = np.ldexp(rng.uniform(-2.0, 2.0, 3000), rng.integers(-70, 64, 3000))
    b[:1000], b[1000:2000] = _INV_2PI[0], _RAD_PER_UNIT[0]
    a[:2] = 2.0**63 - 2048.0, -(2.0**63)
    p, e = _two_prod(a, b)
    for ai, bi, pi, ei in zip(a, b, p, e):
        assert Fraction(pi) + Fraction(ei) == Fraction(ai) * Fraction(bi), (ai, bi)


def test_branch_spectra_deweights_to_the_damped_spectrum():
    phi = SampledFunction(GRID, np.exp(-(X**2) / 2).astype(complex))
    b = _branch_transform(_damped(phi, 1.0), WINDOW)
    plus, minus = branch_spectra(b, WINDOW)
    target = np.exp(-WINDOW.xi_nodes**2 / 4) / np.sqrt(2.0)
    assert np.max(np.abs(plus - target)) <= 1e-12
    assert np.max(np.abs(minus - target)) <= 1e-12


def test_transform_linearity():
    f1 = SampledFunction(GRID, hermite_fn(1, 1.0, X).astype(complex))
    f2 = SampledFunction(GRID, hermite_fn(2, 1.0, X).astype(complex))
    al, be = 0.7 - 0.2j, -1.3 + 0.4j
    combo = SampledFunction(GRID, al * f1.values + be * f2.values)
    b1, b2, bc = (_branch_transform(_damped(f, 1.0), WINDOW) for f in (f1, f2, combo))
    for got, want in (
        (bc.plus.values, al * b1.plus.values + be * b2.plus.values),
        (bc.minus.values, al * b1.minus.values + be * b2.minus.values),
    ):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


def test_eigenfunction_transport():
    """Mode n rides the conjugated flow with rate (2n+1)a."""
    p = IntertwineParams(1.0, GRID, make_grid(0.0, 0.3, 512))
    h = p.X_grid.spacing
    for n in range(5):
        f = SampledFunction(GRID, hermite_fn(n, 1.0, X).astype(complex))
        b = _branch_transform(_damped(f, 1.0), p)
        der = _centered_d(b.plus.values, h)
        resid = der + (2 * n + 1) * b.plus.values[1:-1]
        assert np.linalg.norm(resid) / np.linalg.norm(der) <= 1e-4


def _spectral_derivative(f, order):
    F = forward_ft(f)
    vals = (1j * F.xi_grid.points) ** order * F.values
    return inverse_ft(SpectralFunction(F.xi_grid, vals, F.x_grid)).values


def test_conjugation_identity():
    # damping the oscillator by the ground-state Gaussian leaves a drift term
    a = 1.0
    psi_vals = (1 + 0.5 * X + 0.3 * X * X) * np.exp(-(X**2))
    psi = SampledFunction(GRID, psi_vals.astype(complex))
    grown = SampledFunction(GRID, psi_vals * np.exp(a * X**2 / 2))
    lap = _spectral_derivative(grown, 2) - (a * X) ** 2 * grown.values
    lhs = np.exp(-a * X**2 / 2) * lap
    rhs = _spectral_derivative(psi, 2) + 2 * a * X * _spectral_derivative(psi, 1) + a * psi_vals
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-8


def test_conjugated_operator_on_the_frequency_side():
    a = 1.0
    psi_vals = (1 + 0.5 * X + 0.3 * X * X) * np.exp(-(X**2))
    psi = SampledFunction(GRID, psi_vals.astype(complex))
    grown = SampledFunction(GRID, psi_vals * np.exp(a * X**2 / 2))
    lap = _spectral_derivative(grown, 2) - (a * X) ** 2 * grown.values
    lhs = forward_ft(SampledFunction(GRID, np.exp(-a * X**2 / 2) * lap))
    F = forward_ft(psi)
    xi = F.xi_grid.points
    dF = forward_ft(SampledFunction(GRID, -1j * X * psi_vals)).values
    rhs = -(xi**2) * F.values - 2 * a * xi * dF - a * F.values
    assert np.linalg.norm(lhs.values - rhs) / np.linalg.norm(rhs) <= 1e-6


def _tuned_round_trip(a, data, damped):
    # grid half-width: last point where the damped data is above 5e-16 of peak
    s = np.linspace(0.0, 40.0, 400001)
    dv = damped(s)
    L = s[np.nonzero(dv >= 5e-16 * dv.max())[0].max()]
    g = make_grid(-L, L, 4096)
    f = SampledFunction(g, data(g.points).astype(complex))
    p = derive_params(a, g, f)
    back = apply_T_inverse(apply_T(f, p), p, mask_floor=5e-16)
    return rel_l2_error(back, f)


def test_round_trip_ground_state():
    err = _tuned_round_trip(1.0, lambda s: np.exp(-(s**2) / 2), lambda s: np.exp(-(s**2)))
    assert err <= 1e-8


def test_round_trip_odd_data():
    err = _tuned_round_trip(
        1.0, lambda s: s * np.exp(-(s**2) / 2), lambda s: np.abs(s) * np.exp(-(s**2))
    )
    assert err <= 1e-8


def test_round_trip_wide_coupling():
    err = _tuned_round_trip(
        0.5, lambda s: np.exp(-0.25 * s**2), lambda s: np.exp(-0.5 * s**2)
    )
    assert err <= 1e-8


# shared fixed-size configuration keeps each property example affordable
PROP_GRID = make_grid(-6.2, 6.2, 2048)
_PX = PROP_GRID.points
_PROP_BASIS = np.vstack([hermite_fn(k, 1.0, _PX) for k in range(3)])
PROP_PARAMS = derive_params(
    1.0, PROP_GRID, SampledFunction(PROP_GRID, _PROP_BASIS.sum(axis=0).astype(complex))
)


@settings(max_examples=5)
@given(
    c0=st.floats(-2, 2),
    c1=st.floats(-2, 2),
    c2=st.floats(-2, 2),
)
def test_round_trip_property_low_degree_data(c0, c1, c2):
    coeffs = np.array([c0, c1, c2])
    if np.max(np.abs(coeffs)) < 0.1:
        coeffs[0] = 1.0
    f = SampledFunction(PROP_GRID, (coeffs @ _PROP_BASIS).astype(complex))
    back = apply_T_inverse(apply_T(f, PROP_PARAMS), PROP_PARAMS, mask_floor=5e-16)
    assert rel_l2_error(back, f) <= 1e-7


def test_inverse_linearity():
    f1 = SampledFunction(PROP_GRID, _PROP_BASIS[0].astype(complex))
    f2 = SampledFunction(PROP_GRID, _PROP_BASIS[1].astype(complex))
    b1 = apply_T(f1, PROP_PARAMS)
    b2 = apply_T(f2, PROP_PARAMS)
    summed = BranchPair(
        SampledFunction(b1.plus.grid, b1.plus.values + b2.plus.values),
        SampledFunction(b1.minus.grid, b1.minus.values + b2.minus.values),
    )
    back = apply_T_inverse(summed, PROP_PARAMS, mask_floor=5e-16)
    target = SampledFunction(PROP_GRID, f1.values + f2.values)
    assert rel_l2_error(back, target) <= 1e-7


def test_residual_on_ground_state():
    rep = intertwine_residual(
        SampledFunction(GRID, np.exp(-(X**2) / 2).astype(complex)),
        IntertwineParams(1.0, GRID, make_grid(0.0, 0.3, 512)),
    )
    assert rep.verdict == "pass"
    assert rep.metric <= 1e-6


def test_residual_on_first_excited_mode():
    rep = intertwine_residual(
        SampledFunction(GRID, hermite_fn(1, 1.0, X).astype(complex)),
        IntertwineParams(1.0, GRID, make_grid(0.0, 0.3, 512)),
    )
    assert rep.verdict == "pass"
    assert rep.metric <= 1e-5


def test_residual_turns_informational_on_unresolved_data():
    g = make_grid(-12.0, 12.0, 256)
    p = IntertwineParams(1.0, g, make_grid(0.0, 0.3, 128))
    sharp = SampledFunction(g, np.exp(-20 * g.points**2).astype(complex))
    with pytest.warns(UserWarning):
        rep = intertwine_residual(sharp, p)
    assert rep.verdict == "informational"


def test_apply_T_rejects_uncovered_spectrum():
    wide = SampledFunction(GRID, np.exp(-20 * X**2).astype(complex))
    narrow_window = IntertwineParams(1.0, GRID, make_grid(0.0, 0.5, 256))
    with pytest.raises(ValueError, match="admissible"):
        apply_T(wide, narrow_window)


def test_apply_T_refuses_a_user_window_short_of_the_derived_one():
    """The derived window covers the data's spectrum; a user window that
    starts higher in X (a lower top frequency) cuts live spectrum and is
    refused, while the derived one is accepted."""
    f = SampledFunction(GRID, hermite_fn(3, 1.0, X).astype(complex))
    p = derive_params(1.0, GRID, f)
    apply_T(f, p)
    X_grid = p.X_grid
    short = IntertwineParams(1.0, GRID, make_grid(X_grid.x_min + 1.0, X_grid.x_max, 512))
    with pytest.raises(ValueError, match="admissible"):
        apply_T(f, short)


def test_derive_params_rejects_aliased_data():
    g = make_grid(-12.0, 12.0, 256)
    sharp = SampledFunction(g, np.exp(-20 * g.points**2).astype(complex))
    with pytest.raises(ValueError):
        derive_params(1.0, g, sharp)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_windows_refuse_couplings_and_data_they_cannot_cover():
    """A subnormal coupling overflowed xi^2/4a (user window) and X_EXTENT/a
    (derived window); data whose damped spectrum is one bin at xi = 0 took
    log(0).  Each is now refused by name."""
    g = make_grid(-12.0, 12.0, 512)
    with pytest.raises(ValueError, match="weight would overflow"):
        IntertwineParams(1e-316, g, make_grid(-1.0, 1.0, 64))
    gauss = SampledFunction(g, np.exp(-g.points**2).astype(complex))
    with pytest.raises(ValueError, match="coupling a = 1e-316 is too small"):
        derive_params(1e-316, g, gauss)
    flat = SampledFunction(g, np.ones(g.n, dtype=complex))
    with pytest.raises(ValueError, match="constant on this grid"), \
            pytest.warns(EdgeDecayWarning):
        derive_params(1e-12, g, flat)


def test_inverse_rejects_undecayed_branches():
    # de-weighted spectrum identically 1: no decay at the large-frequency end
    w = weight(PROP_PARAMS.xi_nodes, PROP_PARAMS.a).astype(complex)
    flat = BranchPair(
        SampledFunction(PROP_PARAMS.X_grid, w),
        SampledFunction(PROP_PARAMS.X_grid, w.copy()),
    )
    with pytest.raises(ValueError, match="decay"):
        apply_T_inverse(flat, PROP_PARAMS)


def test_oscillator_apply_ground_state_eigenrelation():
    f = SampledFunction(GRID, np.exp(-(X**2) / 2).astype(complex))
    out = oscillator_apply(f, 1.0)
    assert np.max(np.abs(out.values + f.values)) <= 1e-10
