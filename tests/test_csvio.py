import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscwave import (
    SampledFunction,
    SpectralCoefficients,
    VerificationReport,
    make_grid,
    read_function_csv,
    reconstruct,
    write_function_csv,
    write_kernel_csv,
    write_report_csv,
)
from oscwave import csvio
from oscwave.cli import main
from oscwave.csvio import _WRITE_BLOCK


def test_function_round_trip_is_bitwise(tmp_path):
    g = make_grid(-2.0, 2.0, 64)
    rng = np.random.default_rng(3)
    f = SampledFunction(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    p1 = tmp_path / "f1.csv"
    p2 = tmp_path / "f2.csv"
    write_function_csv(f, p1)
    g2 = read_function_csv(p1)
    assert np.array_equal(g2.values, f.values)
    assert g2.grid == f.grid
    write_function_csv(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_accepts_real_only_columns(tmp_path):
    p = tmp_path / "real.csv"
    lines = ["x,re"] + [f"{0.5 * k},{k * k}" for k in range(8)]
    p.write_text("\n".join(lines) + "\n")
    f = read_function_csv(p)
    assert np.array_equal(f.values.imag, np.zeros(8))
    assert f.values[3] == 9.0
    assert f.grid.spacing == pytest.approx(0.5, rel=1e-15)


def test_read_rejects_nonuniform_grid(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,re\n0.0,1.0\n1.0,1.0\n2.5,1.0\n3.5,1.0\n")
    # rows count data lines only; x = 2.5 is the third sample
    with pytest.raises(ValueError, match="data row 3"):
        read_function_csv(p)


def test_read_rejects_missing_header(tmp_path):
    p = tmp_path / "head.csv"
    p.write_text("0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        read_function_csv(p)


def test_read_rejects_decreasing_x(tmp_path):
    p = tmp_path / "dec.csv"
    p.write_text("x,re\n1.0,1.0\n0.0,2.0\n-1.0,3.0\n")
    with pytest.raises(ValueError, match="increasing"):
        read_function_csv(p)


def test_read_rejects_short_rows(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("x,re\n0.0\n0.1\n")
    with pytest.raises(ValueError, match=r"short\.csv: data row 1 has 1 field"):
        read_function_csv(p)


def test_read_rejects_non_numeric_fields(tmp_path):
    p = tmp_path / "text.csv"
    p.write_text("x,re,im\n0.0,1.0,0.0\n0.5,abc,0.0\n")
    with pytest.raises(ValueError, match=r"text\.csv: data row 2 has a non-numeric"):
        read_function_csv(p)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_read_rejects_non_finite_x(tmp_path, bad):
    # the grid is rebuilt from the first x and the spacing, so a non-finite
    # x further down would otherwise pass the uniformity check unseen
    p = tmp_path / "x.csv"
    rows = [f"{0.5 * i},1.0,0.0" for i in range(10)]
    rows[5] = f"{bad},1.0,0.0"
    p.write_text("x,re,im\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"x\.csv: non-finite x at data row 6"):
        read_function_csv(p)


def _read_strictly(path):
    # any warning raised while reading fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return read_function_csv(path)


# grids hold at least 8 samples; these rows are x = 0, 0.5, ..., 3.5
_X = [repr(0.5 * k) for k in range(8)]
_RE = [repr(float(k + 1)) for k in range(8)]
_IM = [repr(-0.25 * k) for k in range(8)]
_VALUES = np.array([complex(float(r), float(i)) for r, i in zip(_RE, _IM)])


def _plain_rows():
    return [[x, r, i] for x, r, i in zip(_X, _RE, _IM)]


def test_read_skips_blank_lines(tmp_path):
    p = tmp_path / "blank.csv"
    lines = ["x,re,im", ""] + [",".join(r) + "\n" for r in _plain_rows()]
    p.write_text("\n".join(lines) + "\n\n")
    f = _read_strictly(p)
    assert np.array_equal(f.values, _VALUES)
    assert f.grid.points[0] == 0.0 and f.grid.spacing == 0.5


def test_read_ignores_fields_past_the_header_columns(tmp_path):
    p = tmp_path / "extra.csv"
    rows = [r + ["99"] * (k % 3) for k, r in enumerate(_plain_rows())]
    p.write_text("x,re,im,note\n" + "\n".join(",".join(r) for r in rows) + "\n")
    assert np.array_equal(_read_strictly(p).values, _VALUES)
    # under an x,re header a third field is not an imaginary part
    p.write_text("x,re\n" + "\n".join(",".join(r) for r in rows) + "\n")
    f = _read_strictly(p)
    assert np.array_equal(f.values, _VALUES.real)
    assert not f.values.imag.any() and not np.signbit(f.values.imag).any()


@pytest.mark.parametrize("form", [" {} ,{}  ,  {} ", '"{}",{},"{}"'],
                         ids=["spaces", "quotes"])
def test_read_accepts_spaces_and_quotes_around_numbers(tmp_path, form):
    p = tmp_path / "spaces.csv"
    rows = [form.format(*row) for row in _plain_rows()]
    p.write_text("x, re, im\n" + "\n".join(rows) + "\n")
    assert np.array_equal(_read_strictly(p).values, _VALUES)


def test_read_accepts_lf_and_crlf_line_ends(tmp_path):
    rows = _plain_rows()
    rows[1][1:] = ["0.10000000000000001", "1e-300"]
    rows[2][1:] = ["-0", "5e-324"]
    lines = ["x,re,im"] + [",".join(r) for r in rows]
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(("\n".join(lines) + "\n").encode())
    crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    a, b = _read_strictly(lf), _read_strictly(crlf)
    assert a.grid == b.grid
    assert a.values.tobytes() == b.values.tobytes()
    assert a.values[1] == complex(0.1, 1e-300)
    assert a.values[2] == complex(-0.0, 5e-324) and np.signbit(a.values[2].real)


@pytest.mark.parametrize("column", [1, 2])
@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_read_rejects_non_finite_values_without_a_warning(tmp_path, column, bad):
    rows = _plain_rows()
    rows[3][column] = bad
    p = tmp_path / "inf.csv"
    p.write_text("x,re,im\n" + "\n".join(",".join(r) for r in rows) + "\n")
    with pytest.raises(ValueError, match="sampled values must be finite"):
        _read_strictly(p)


@pytest.mark.parametrize("header", ["x,re", "x,re,im"])
@pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n"])
def test_header_only_file_exits_one_without_a_warning(tmp_path, capsys, header, body):
    src = tmp_path / "head.csv"
    src.write_text(header + "\n" + body)
    with pytest.raises(ValueError, match="at least two samples"):
        _read_strictly(src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["heat-dirac", "--t", "1.0", "--input", str(src),
                   "--output", str(tmp_path / "out.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"oscwave: {src}: need at least two samples\n"


def _rows_with(bad_row, k):
    """The eight data rows with data row k (1-based) replaced and blank
    lines after rows 1 and 3, so data rows and file lines differ."""
    lines = ["x,re,im"]
    for j, row in enumerate(_plain_rows(), start=1):
        lines.append(bad_row if j == k else ",".join(row))
        if j in (1, 3):
            lines.append("")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", [2, 4, 8])
def test_short_row_message_names_the_data_row(tmp_path, k):
    p = tmp_path / "short.csv"
    p.write_text(_rows_with("7", k))
    with pytest.raises(ValueError, match=rf"short\.csv: data row {k} has 1 field\(s\)"):
        _read_strictly(p)


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("row", ["1,abc,0", "1,1,", "1_x,1,0", " ,1,0"])
def test_non_numeric_message_names_the_data_row(tmp_path, k, row):
    p = tmp_path / "text.csv"
    p.write_text(_rows_with(row, k))
    with pytest.raises(ValueError, match=rf"text\.csv: data row {k} has a non-numeric field: "):
        _read_strictly(p)


def test_digit_separators_are_refused(tmp_path):
    # float() takes digit separators, the array parser does not
    p = tmp_path / "sep.csv"
    p.write_text(_rows_with("1,1_0,0", 4))
    with pytest.raises(ValueError, match=r"sep\.csv: .*'1_0'"):
        _read_strictly(p)


@pytest.mark.parametrize("k", [1, 4, 8])
def test_row_without_im_under_an_im_header_is_an_error(tmp_path, k):
    # ragged rows are refused: a two-field row under x,re,im is not read as im = 0
    p = tmp_path / "ragged.csv"
    p.write_text(_rows_with(f"{0.5 * (k - 1)},1", k))
    with pytest.raises(ValueError, match=rf"ragged\.csv: data row {k} has 2 field\(s\); "
                                         "need at least x, re and im"):
        _read_strictly(p)


def test_function_dump_bytes(tmp_path):
    # read as bytes: universal newlines would hide a changed line end
    g = make_grid(0.0, 4.0, 8)
    vals = np.zeros(8, dtype=complex)
    vals[:3] = [complex(-0.0, 0.1), complex(0.1, 1e-300), complex(1e-300, -0.0)]
    p = tmp_path / "f.csv"
    write_function_csv(SampledFunction(g, vals), p)
    assert p.read_bytes() == (
        b"x,re,im\r\n"
        b"0,-0,0.10000000000000001\r\n"
        b"0.5,0.10000000000000001,1e-300\r\n"
        b"1,1e-300,-0\r\n"
        b"1.5,0,0\r\n2,0,0\r\n2.5,0,0\r\n3,0,0\r\n3.5,0,0\r\n")


def test_kernel_dump_bytes(tmp_path):
    K = np.array([[-0.0, 0.1], [1e-300, np.inf]])
    p = tmp_path / "k.csv"
    write_kernel_csv(np.array([0.0, 1.0]), np.array([-0.5, 0.5]), K, p)
    assert p.read_bytes() == (
        b"x,xp,value\r\n"
        b"0,-0.5,-0\r\n"
        b"0,0.5,0.10000000000000001\r\n"
        b"1,-0.5,1e-300\r\n"
        b"1,0.5,inf\r\n")


def test_kernel_dump_layout(tmp_path):
    x = np.array([0.0, 1.0])
    xp = np.array([0.0, 0.5, 1.0])
    K = np.arange(6.0).reshape(2, 3)
    p = tmp_path / "k.csv"
    write_kernel_csv(x, xp, K, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "x,xp,value"
    assert len(lines) == 1 + 6
    assert lines[1].split(",") == ["0", "0", "0"]
    assert lines[6].split(",") == ["1", "1", "5"]
    with pytest.raises(ValueError):
        write_kernel_csv(x, xp, K.T, tmp_path / "bad.csv")


def _reference_bytes(header, columns):
    """%.17g per field, comma-joined, CRLF after every line."""
    rows = [",".join("%.17g" % float(v) for v in row) for row in zip(*columns)]
    return "".join(line + "\r\n" for line in [header] + rows).encode()


def _any_doubles(rng, n):
    # uniform bit patterns cover every exponent, subnormals, inf and nan
    return rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


_SPECIALS = [-0.0, 5e-324, -5e-324, 1e-300, np.inf, -np.inf, np.nan, 0.1,
             1.7976931348623157e308, 2.0**-1022]


def test_kernel_dump_bytes_match_per_field_formatting(tmp_path):
    rng = np.random.default_rng(9)
    x, xp = _any_doubles(rng, 61), _any_doubles(rng, 73)
    x[:len(_SPECIALS)] = _SPECIALS
    K = _any_doubles(rng, x.size * xp.size).reshape(x.size, xp.size)
    K[0, :len(_SPECIALS)] = _SPECIALS
    assert K.size > _WRITE_BLOCK
    p = tmp_path / "k.csv"
    write_kernel_csv(x, xp, K, p)
    assert p.read_bytes() == _reference_bytes(
        "x,xp,value", [np.repeat(x, xp.size), np.tile(xp, x.size), K.ravel()])


def test_function_dump_bytes_match_per_field_formatting(tmp_path):
    rng = np.random.default_rng(10)
    n = 2 * _WRITE_BLOCK + 5
    re, im = _any_doubles(rng, n), _any_doubles(rng, n)
    re[~np.isfinite(re)] = -0.0
    im[~np.isfinite(im)] = 5e-324
    re[:3], im[:3] = [-0.0, 5e-324, 1e-300], [1e-300, -0.0, -5e-324]
    vals = np.empty(n, dtype=complex)
    vals.real, vals.imag = re, im   # re + 1j * im would turn -0.0 into 0
    f = SampledFunction(make_grid(-7.0, 3.0, n), vals)
    p = tmp_path / "f.csv"
    write_function_csv(f, p)
    assert p.read_bytes() == _reference_bytes("x,re,im", [f.grid.points, re, im])


def test_kernel_dump_with_no_rows(tmp_path):
    p = tmp_path / "k.csv"
    write_kernel_csv(np.empty(0), np.empty(0), np.empty((0, 0)), p)
    assert p.read_bytes() == b"x,xp,value\r\n"
    write_kernel_csv([1.0, 2.0], [], np.empty((2, 0)), p)
    assert p.read_bytes() == b"x,xp,value\r\n"


def test_kernel_dump_takes_lists(tmp_path):
    p = tmp_path / "k.csv"
    write_kernel_csv([0, 0.5], [-1.0], [[3], [0.1]], p)
    assert p.read_bytes() == b"x,xp,value\r\n0,-1,3\r\n0.5,-1,0.10000000000000001\r\n"
    write_kernel_csv([0, 1], [2], [[3], [2**60]], p)
    assert p.read_bytes() == b"x,xp,value\r\n0,2,3\r\n1,2,1.152921504606847e+18\r\n"


def test_kernel_dump_rejects_complex_values(tmp_path):
    p = tmp_path / "k.csv"
    K = np.array([[0.0, 1.0], [1.0 + 2.0j, 0.0]])
    with pytest.raises(ValueError, match="kernel matrix must be real"):
        write_kernel_csv([0.0, 1.0], [0.0, 1.0], K, p)
    # a complex dtype is refused even when every imaginary part is zero
    with pytest.raises(ValueError, match="kernel matrix must be real"):
        write_kernel_csv([0.0, 1.0], [0.0, 1.0], K.real.astype(complex), p)


def test_report_dump_layout(tmp_path):
    reports = [
        VerificationReport("alpha", 1e-9, 1e-6, "pass", "fine"),
        VerificationReport("beta", 0.5, 1e-6, "fail", "broken"),
    ]
    p = tmp_path / "r.csv"
    write_report_csv(reports, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "check,metric,tolerance,verdict,notes"
    assert lines[1].startswith("alpha,") and lines[1].endswith(",pass,fine")
    assert lines[2].startswith("beta,") and ",fail," in lines[2]


def _lines(values):
    """The writer's rendering of each double, one per CRLF line."""
    return csvio._joined(csvio._fields(np.asarray(values, dtype=float))[:, None])


def _printf_lines(values):
    return b"".join(b"%.17g\r\n" % v for v in np.asarray(values, dtype=float).tolist())


@settings(max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_each_field_is_printf_17g(values):
    # st.floats() draws subnormals, both zeros, both infinities and nan
    assert _lines(values) == _printf_lines(values)


def test_fields_next_to_every_power_of_ten():
    # floor(log10 |v|) is the exponent guess, and it can be off by one next
    # to 10^q; the range check catches that and the value prints by %.17g
    tens = np.array([float(f"1e{q}") for q in range(-300, 301)])
    values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    values = np.concatenate([values, -values])
    assert _lines(values) == _printf_lines(values)


def test_exact_ties_round_half_to_even():
    # in [2^50, 2^53) a double with fraction .25 or .75 is a tie at 17
    # digits: 1125899906842624.25 prints ...624.2, and ...624.75 ...624.8
    whole = 2.0**50 + np.random.default_rng(4).integers(0, 2**53 - 2**50, 500)
    values = np.concatenate([whole + 0.25, whole + 0.75, 2.0**53 - np.array([0.25, 0.75])])
    assert b"%.17g" % (2.0**50 + 0.25) == b"1125899906842624.2"
    assert b"%.17g" % (2.0**50 + 0.75) == b"1125899906842624.8"
    assert _lines(values) == _printf_lines(values)


def test_fixed_and_exponent_forms_switch_where_printf_does():
    # %g prints 1e-05 but 0.0001, and 10000000000000000 but 1e+17; a value
    # that rounds up to the next power of ten takes that power's form
    edges = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                             [9.99999999999999995e-5, 99999999999999999.0, 0.1, 1.0, 1e15,
                              123456789012345678.0, 1200.0, 0.00012, 1.5e20]])
    values = np.concatenate([values, -values])
    assert _lines(values[:4]) == b"1.0000000000000001e-05\r\n0.0001\r\n10000000000000000\r\n1e+17\r\n"
    assert _lines(values) == _printf_lines(values)


def test_heat_output_renders_without_the_slow_lane(tmp_path, monkeypatch):
    """Every value of a seeded heat-ho output takes the vectorized path: a
    writer that printed every value by %.17g would pass the byte tests
    above, but not this one."""
    g = make_grid(-12.0, 12.0, 2048)
    coeffs = SpectralCoefficients(1.0, np.random.default_rng(11).standard_normal(8))
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    write_function_csv(reconstruct(coeffs, g), src)

    def refuse(x):
        raise AssertionError(f"{x!r} took the slow lane")
    monkeypatch.setattr(csvio, "_printf", refuse)
    assert main(["heat-ho", "--route", "intertwine", "--a", "1", "--t", "0.4",
                 "--input", str(src), "--output", str(dst)]) == 0
    values = np.loadtxt(dst, delimiter=",", skiprows=1)
    assert values.shape == (2048, 3) and (values[:, 1:] == 0).any() and values[:, 1:].any()
    monkeypatch.undo()
    assert dst.read_bytes() == _reference_bytes("x,re,im", values.T)
