"""CSV exchange formats: sampled functions, kernel matrices, check reports.

Floats are rendered with %.17g so a write/read cycle reproduces every
double bit-for-bit.  A read/write cycle reproduces the decimal text only of
files this module wrote: a hand-written 0.1 comes back as
0.10000000000000001.

The function and kernel dumps render their doubles in numpy, a block at a
time, and the bytes equal a per-value '%.17g' exactly.  For a double v with
1e-280 <= |v| <= 1e280, k = floor(log10 |v|) and D = |v| 10^(16 - k) is
formed as p + r: p = fl(|v| hi) and its rounding error come from Dekker's
exact product with the first double of a two-double 10^(16 - k), and the
second double's product joins the error term.  So r is within ~1e-14 of
D - p, and p is an integer (p > 2^53).  Where D's integer part lies in
[10^16, 10^17) and its fraction is more than 1e-9 from 1/2, rounding D to
the nearest integer gives the 17 significant digits that %.17g prints
(Loitsch, PLDI 2010, certifies Grisu3's shortest digits the same way).  The
digits, the decimal point, the %g choice between fixed and exponent form
(exponent form iff k < -4 or k >= 17) and the exponent then come from
lookup tables.
Zeros print as 0 or -0.  Every other value goes through '%.17g' % v on its
own: nan, the infinities, |v| outside that range, near-ties (exact ties
round half to even there) and any value whose k a platform's log10 misses.
"""

import csv
import functools
from typing import NamedTuple

import numpy as np

from .grids import SampledFunction, _two_prod, make_grid

# relative wobble allowed in the x column before it stops being a uniform grid
UNIFORM_TOL = 1.0e-9

# CSV lines rendered by one numpy pass: bounds the temporaries a large
# kernel dump builds at once
_WRITE_BLOCK = 4096

# the fast path's range of |v|, and k's table range around it
_FAST_MIN, _FAST_MAX = 1.0e-280, 1.0e280
_K_MAX = 281
# D's fraction must be this far from 1/2; r's error is ~1e-14
_TIE_GAP = 1.0e-9

# A field is 48 bytes, NUL where it prints nothing: the sign; "0.000", the
# prefix of a fixed form below 1; digit j at byte 6 + 2j, each followed by
# the slot of a decimal point; the exponent at bytes 40-44; and at 46-47 the
# separator after it.  The writer drops the NULs with bytes.translate.
_FIELD = 48
_DIGITS = slice(6, 40, 2)
_EXPONENT = 40
_SEPARATOR = 46


class _Tables(NamedTuple):
    hi: np.ndarray       # 10^(16 - k) = hi + lo, by k + _K_MAX
    lo: np.ndarray
    frame: np.ndarray    # by 2 (k + _K_MAX) + point: a field's fixed bytes
                         # but the sign, as six little-endian uint64 words
    unit: np.ndarray     # by k + _K_MAX: 10^(digits after the point's slot)
    quads: np.ndarray    # by g < 10^4: four digits at bytes 0, 2, 4, 6 of a
                         # word; by 10^4 + g: the same, trailing zeros NUL


@functools.cache
def _tables():
    """The writer's lookup tables, built on first use from exact integers."""
    ks = range(-_K_MAX, _K_MAX + 1)
    hi, lo = [], []
    for k in ks:
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den              # correctly rounded, as is the rest below
        m, e = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * e - m * den) / (den * e))
    frame = np.zeros((len(ks), 2, _FIELD), np.uint8)
    unit = np.ones(len(ks), np.int64)
    for i, k in enumerate(ks):
        f = frame[i]
        if -4 <= k < 0:
            prefix = b"0." + b"0" * (-k - 1)
            f[:, 1:1 + len(prefix)] = np.frombuffer(prefix, np.uint8)
            continue
        point = 0
        if 0 <= k < 17:
            f[:, _DIGITS][:, :k + 1] = ord("0")   # integer digits show
            point = k
        else:
            exponent = b"e%+03d" % k
            f[:, _EXPONENT:_EXPONENT + len(exponent)] = np.frombuffer(exponent, np.uint8)
        if point < 16:
            f[1, _DIGITS.start + 2 * point + 1] = ord(".")
            unit[i] = 10 ** (16 - point)
    g = np.arange(10**4)
    digits = g[:, None] // np.array([1000, 100, 10, 1]) % 10
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    quads = np.zeros((2, 10**4, 8), np.uint8)
    quads[:, :, 0::2] = digits + ord("0")
    quads[1, :, 0::2] *= trailing == 0
    word = np.dtype("<u8")
    return _Tables(np.array(hi), np.array(lo),
                   frame.reshape(-1, _FIELD).view(word), unit,
                   quads.reshape(-1, 8).view(word).ravel())


def _printf(x):
    """The slow lane: CPython's exact %.17g of one double."""
    return b"%.17g" % x


def _fields(values):
    """'%.17g' % v for each double v of values, as NUL-padded _FIELD-byte
    rows of uint8 (shape values.shape + (_FIELD,)); see the module docstring."""
    t = _tables()
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    k = np.log10(a)
    # a k that log10 misses only fails the range check below
    ki = np.floor(k, out=k).astype(np.intp) + _K_MAX
    p, r = _two_prod(a, t.hi.take(ki, mode="clip"))
    r += a * t.lo.take(ki, mode="clip")
    whole = np.floor(r)
    frac = r - whole
    n = p.astype(np.int64) + whole.astype(np.int64)
    ok = fast & (n >= 10**16)
    n += frac > 0.5
    ok &= (n < 10**17) & (np.abs(frac - 0.5) > _TIE_GAP)
    # zeros and the values left to %.17g render as 0 with k = 0
    n *= ok
    ki[~ok] = _K_MAX
    # 17 digits: the leading one, then four groups of four, whose trailing
    # zeros are NUL where every later group is zero
    high, low = np.divmod(n, 10**8)
    lead, high = np.divmod(high, 10**8)
    g = np.empty((v.size, 4), np.int64)
    g[:, 0], g[:, 1] = np.divmod(high, 10**4)
    g[:, 2], g[:, 3] = np.divmod(low, 10**4)
    g[:, 3] += 10**4
    g[:, 2] += 10**4 * (g[:, 3] == 10**4)
    g[:, 1] += 10**4 * (low == 0)
    g[:, 0] += 10**4 * (g[:, 1] == 10**4)
    point = n % t.unit.take(ki) != 0
    out = t.frame.take(2 * ki + point, axis=0)
    out[:, 0] |= ((lead.astype(np.uint64) + ord("0")) << 8 * _DIGITS.start
                  | np.signbit(v) * np.uint64(ord("-")))
    out[:, 1:5] |= t.quads.take(g)
    out = out.view(np.uint8)
    slow = np.flatnonzero(~ok & (v != 0))
    for i, x in zip(slow.tolist(), v[slow].tolist()):
        text = _printf(x)
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.reshape(np.shape(values) + (_FIELD,))


def _joined(fields):
    """The CSV lines of (rows, columns, _FIELD) fields, as bytes: the csv
    module's default dialect, comma delimiter, CRLF line ends, no quoting
    (numbers never need it)."""
    fields[:, :-1, _SEPARATOR] = ord(",")
    fields[:, -1, _SEPARATOR:] = np.frombuffer(b"\r\n", np.uint8)
    return fields.tobytes().translate(None, b"\0")


def _write_columns(path, header, cols):
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for start in range(0, len(cols), _WRITE_BLOCK):
            fh.write(_joined(_fields(cols[start:start + _WRITE_BLOCK])))


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
    # each coordinate is formatted once, then copied into its rows
    xf = _fields(x)
    xpf = _fields(xp)
    rows = max(1, _WRITE_BLOCK // max(1, len(xpf)))
    with open(path, "wb") as fh:
        fh.write(b"x,xp,value\r\n")
        for start in range(0, len(xf), rows):
            block = _fields(values[start:start + rows])
            fields = np.empty(block.shape[:2] + (3, _FIELD), np.uint8)
            fields[:, :, 0] = xf[start:start + rows, None]
            fields[:, :, 1] = xpf
            fields[:, :, 2] = block
            fh.write(_joined(fields.reshape(-1, 3, _FIELD)))


def write_report_csv(reports, path):
    """One line per verification check: name, metric, tolerance, verdict."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "metric", "tolerance", "verdict", "notes"])
        for r in reports:
            w.writerow([r.check_name, "%.17g" % r.metric, "%.17g" % r.tolerance,
                        r.verdict, r.notes])
