"""CSV exchange formats: sampled functions, kernel matrices, check reports.

Floats are rendered with %.17g so a write/read cycle reproduces every
double bit-for-bit.  A read/write cycle reproduces the decimal text only of
files this module wrote: a hand-written 0.1 comes back as
0.10000000000000001.
"""

import csv

import numpy as np

from .grids import SampledFunction, make_grid

# relative wobble allowed in the x column before it stops being a uniform grid
UNIFORM_TOL = 1.0e-9

# rows formatted by one %-operation: bounds the string a large kernel dump
# builds at once
_WRITE_BLOCK = 4096


def _fmt(v):
    return "%.17g" % v


def _write_columns(path, header, cols):
    # the csv module's default dialect: comma delimiter, CRLF line ends, no
    # quoting (numbers never need it); each block of rows is one %-format
    row = ",".join(["%.17g"] * cols.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, len(cols), _WRITE_BLOCK):
            block = cols[start:start + _WRITE_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_function_csv(f, path):
    """Dump a SampledFunction as rows of x, Re, Im."""
    _write_columns(path, "x,re,im",
                   np.column_stack([f.grid.points, f.values.real, f.values.imag]))


def _bad_row(path, lines, width):
    """The message for the first data row that is short or non-numeric."""
    need = "x, re and im" if width == 3 else "x and re"
    # rows count data lines only, as in the non-uniform-x message
    rows = (row for row in csv.reader(lines) if row)
    for row_no, row in enumerate(rows, start=1):
        if len(row) < width:
            return (f"{path}: data row {row_no} has {len(row)} field(s); "
                    f"need at least {need}")
        try:
            for field in row[:width]:
                float(field)
        except ValueError:
            return (f"{path}: data row {row_no} has a non-numeric field: "
                    f"{','.join(row)!r}")
    return None


def read_function_csv(path):
    """Load a sampled function; the x column must be uniformly spaced.

    The im column may be absent, in which case the data is real.  Every
    data row needs a field for each column the header names.
    """
    with open(path) as fh:
        head, _, body = fh.read().partition("\n")
    header = next(csv.reader([head]), [])
    if [h.strip() for h in header[:2]] != ["x", "re"]:
        raise ValueError(f"{path}: expected header starting with x,re")
    width = 3 if len(header) >= 3 and header[2].strip() == "im" else 2
    lines = body.splitlines()
    data = np.empty((0, width))
    # loadtxt warns on a body without data; there is nothing to parse then
    if any(lines):
        try:
            data = np.loadtxt(lines, delimiter=",", usecols=range(width),
                              comments=None, quotechar='"', ndmin=2)
        except ValueError as err:
            raise ValueError(_bad_row(path, lines, width) or f"{path}: {err}") from None
    if len(data) < 2:
        raise ValueError(f"{path}: need at least two samples")
    x = data[:, 0]
    bad = np.nonzero(~np.isfinite(x))[0]
    if bad.size:
        raise ValueError(f"{path}: non-finite x at data row {bad[0] + 1}")
    h = x[1] - x[0]
    if h <= 0:
        raise ValueError(f"{path}: x must be strictly increasing (row 2)")
    gaps = np.diff(x)
    bad = np.nonzero(np.abs(gaps - h) > UNIFORM_TOL * h)[0]
    if bad.size:
        # +2 converts the gap index to the 1-based row of the offending x
        raise ValueError(
            f"{path}: non-uniform x at data row {bad[0] + 2} "
            f"(spacing {gaps[bad[0]]:.17g}, expected {h:.17g})"
        )
    grid = make_grid(x[0], x[0] + h * len(x), len(x))
    # filled part by part: re + 1j*im would warn on an infinite im
    vals = np.zeros(len(x), dtype=complex)
    vals.real = data[:, 1]
    if width == 3:
        vals.imag = data[:, 2]
    return SampledFunction(grid, vals)


def write_kernel_csv(x, xp, values, path):
    """Dump a kernel matrix K[i, j] = K(x_i, xp_j) as x, xp, value rows."""
    values = np.asarray(values)
    if values.shape != (len(x), len(xp)):
        raise ValueError("kernel shape does not match the coordinate axes")
    if np.iscomplexobj(values):
        raise ValueError(f"kernel matrix must be real, got {values.dtype} values")
    # each coordinate is formatted once: a matrix row's template puts its
    # x field before every "xp_j,%.17g" line, so a block's %-format renders
    # only the values
    xs = ["%.17g," % v for v in np.asarray(x, dtype=float).tolist()]
    lines = [""] + ["%.17g,%%.17g\r\n" % v for v in np.asarray(xp, dtype=float).tolist()]
    rows = max(1, _WRITE_BLOCK // len(lines))
    with open(path, "w", newline="") as fh:
        fh.write("x,xp,value\r\n")
        for start in range(0, len(xs), rows):
            template = "".join(f.join(lines) for f in xs[start:start + rows])
            fh.write(template % tuple(values[start:start + rows].ravel().tolist()))


def write_report_csv(reports, path):
    """One line per verification check: name, metric, tolerance, verdict."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "metric", "tolerance", "verdict", "notes"])
        for r in reports:
            w.writerow([r.check_name, _fmt(r.metric), _fmt(r.tolerance),
                        r.verdict, r.notes])
