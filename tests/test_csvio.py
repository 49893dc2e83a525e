import numpy as np
import pytest

from oscwave import (
    SampledFunction,
    VerificationReport,
    make_grid,
    read_function_csv,
    write_function_csv,
    write_kernel_csv,
    write_report_csv,
)


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
