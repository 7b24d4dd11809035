"""Flat-file export formats for matrices, fields and reports.

Matrices go out two ways: CSV with row-major "re,im" cell pairs, and raw
little-endian complex128 binary next to a JSON sidecar that records the grid,
the scheme and a format version.  Fields export as CSV rows of node
coordinates followed by the value's real and imaginary parts.

Every CSV cell is the text ``'%.17g' % x`` of its float64 value, so it
decodes bit for bit; lines end in "\\n".  The cells are not formatted one
Python call at a time but by one vectorized kernel over blocks of cells:

- k = floor(log10 |x|) is estimated, and V = |x| * 10**(16 - k) is formed as
  p + t, where p = |x| * hi is an integer float >= 2**53, t is Dekker's exact
  error of that product plus |x| * lo, and hi + lo is 10**(16 - k) as a
  double-double (built from `fractions.Fraction` on first use).  The error of
  V is below 1e-13.
- Cells whose V falls outside [1e16, 1e17) are scaled again with k -/+ 1; V
  rounded to nearest is then the 17-digit significand D, and a carry to
  10**17 becomes 10**16 with k + 1.
- D splits by int64 divmod into a leading digit and four 4-digit groups,
  each one lookup of four ASCII digits; a per-group table of trailing zeros
  gives the digit count that '%g' keeps.
- Each cell becomes a fixed-slot record of 48 bytes (sign, "0.000" prefix,
  17 digit and point pairs, "e+ddd", separator) with NUL bytes wherever '%g'
  writes nothing, and one ``bytes.translate`` drops the NULs of a whole
  chunk.  Chunks of `CHUNK_CELLS` cells bound the kernel's memory, whatever
  the size of the matrix.

Zeros, infinities, NaN, magnitudes outside (1e-280, 1e290) and cells whose
scaled fraction lies within 1e-9 of one half (exact ties among them) are
formatted by ``'%.17g' %`` itself, once per distinct value, so those bytes are
Python's by construction.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction

import numpy as np

from .grids import Grid, XiGrid
from .operators import OperatorMatrix

FORMAT_VERSION = 1

#: Cells formatted at once; a chunk's records take CHUNK_CELLS * 48 bytes.
CHUNK_CELLS = 1 << 14

#: Magnitudes the kernel formats; outside them '%.17g' % does.
_LOW, _HIGH = 1e-280, 1e290
#: Exponents k of the kernel's cells, with room for the one-step correction.
_K_MIN, _K_MAX = -282, 291
#: A scaled fraction this close to 1/2 is left to '%.17g' %.
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0   # 2**27 + 1: Veltkamp's splitter for 26-bit halves
_E16, _E17 = 10 ** 16, 10 ** 17
_NONE = 17             # the point position of a cell without a point
_NUL = b"\0"


def _grid_meta(grid: Grid) -> dict:
    return {"half_width": list(grid.half_width), "counts": list(grid.counts),
            "dual": grid.dual}


def save_matrix(op: OperatorMatrix, base_path: str, scheme: str = "",
                extra: dict | None = None) -> tuple[str, str]:
    """Write <base>.bin (little-endian complex128, row major) and <base>.json."""
    bin_path = base_path + ".bin"
    meta_path = base_path + ".json"
    data = np.ascontiguousarray(op.kernel, dtype="<c16")
    with open(bin_path, "wb") as fh:
        fh.write(data.tobytes())
    meta = {
        "format_version": FORMAT_VERSION,
        "dtype": "complex128",
        "byte_order": "little",
        "shape": list(op.kernel.shape),
        "grid": _grid_meta(op.grid),
        "scheme": scheme,
    }
    if extra:
        meta.update(extra)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    return bin_path, meta_path


def load_matrix(base_path: str) -> OperatorMatrix:
    with open(base_path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    shape = tuple(meta["shape"])
    g = meta["grid"]
    grid = Grid(tuple(g["half_width"]), tuple(g["counts"]), g.get("dual", False))
    data = np.fromfile(base_path + ".bin", dtype="<c16").reshape(shape)
    return OperatorMatrix(grid, data.astype(complex), meta={"scheme": meta.get("scheme")})


# ---------------------------------------------------------------------------
# The '%.17g' kernel
# ---------------------------------------------------------------------------

def _words(strings) -> np.ndarray:
    """uint64 words whose bytes are the given strings of at most 8 bytes,
    NUL padded; byte b of a word is slot b of its part of a record."""
    return np.frombuffer(b"".join(t.ljust(8, _NUL) for t in strings), "<u8")


def _slots(pairs) -> bytes:
    """8 bytes with byte b set to pairs[b] where given, else NUL."""
    return bytes(pairs.get(b, 0) for b in range(8))


@functools.cache
def _tables() -> dict:
    """Read-only lookup tables of the kernel, built on first use.

    A record is six uint64 words (48 slots): word 0 holds the sign, the
    "0.000" prefix, the leading digit and its point; words 1-4 hold the
    (digit, point) pairs of the four 4-digit groups; word 5 holds "e+ddd"
    and the separator.  Digit j (0-16) sits in slot 6 + 2j, its point in
    slot 7 + 2j.
    """
    hi, lo = [], []
    for s in range(16 - _K_MAX, 17 - _K_MIN):
        exact = Fraction(10) ** s
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    groups = np.arange(10_000)
    trailing = sum(groups % d == 0 for d in (10, 100, 1000, 10_000))
    digit, dot = ord("0"), ord(".")
    # the four digits of each group in the even slots of one word
    quad = np.zeros((10_000, 8), np.uint8)
    quad[:, ::2] = np.frombuffer("".join(f"{g:04d}" for g in groups).encode(),
                                 np.uint8).reshape(-1, 4)
    tables = {
        "hi": hi, "lo": lo, "hi_h": hi_h, "hi_l": hi - hi_h,
        "quad": quad.view("<u8").reshape(-1),
        # last significant digit + 1 of a number whose last nonzero group is
        # group i (1-4); 0 where the group is zero
        "ends": [np.where(groups != 0, 4 * i + 1 - trailing, 0) for i in range(1, 5)],
        # word i's digits that a number of `shown` digits keeps
        "keep": [_words(_slots({2 * m: 0xFF for m in range(4) if 4 * i - 3 + m < shown})
                        for shown in range(18)) for i in range(1, 5)],
        # word i's point after digit j, for j = 0.._NONE
        "dot": [_words(_slots({7: dot} if j == 0 else {})
                       for j in range(_NONE + 1))]
               + [_words(_slots({2 * (j - 4 * i + 3) + 1: dot} if 0 <= j - 4 * i + 3 < 4
                                else {}) for j in range(_NONE + 1)) for i in range(1, 5)],
        # sign (NUL or "-") and prefix, by 5 * negative + (-k of a fixed-form
        # k < 0, else 0)
        "head": _words(sign + prefix for sign in (b"", b"-")
                       for prefix in (bytes(5), b"0.", b"0.0", b"0.00", b"0.000")),
        "lead": _words(_slots({6: digit + d}) for d in range(10)),
        # exponent slots for k in [_K_MIN, _K_MAX], then an empty word
        "tail": _words([f"e{k:+03d}".encode() for k in range(_K_MIN, _K_MAX + 1)] + [b""]),
    }
    for value in tables.values():
        for arr in value if isinstance(value, list) else [value]:
            arr.setflags(write=False)
    return tables


def _scaled(a: np.ndarray, k: np.ndarray, tab: dict):
    """V = a * 10**(16 - k) as (p, t): p = fl(a * hi) and t its exact
    (Dekker) error plus a * lo."""
    i = _K_MAX - k   # the row of s = 16 - k
    hi = tab["hi"][i]
    p = a * hi
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    hi_h, hi_l = tab["hi_h"][i], tab["hi_l"][i]
    err = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    return p, err + a * tab["lo"][i]


def _decimal(a: np.ndarray):
    """(D, k, formatted) of magnitudes a: D in [1e16, 1e17) is the 17-digit
    significand and k the decimal exponent that '%.16e' writes; where
    `formatted` is False the kernel leaves the cell to '%.17g' %."""
    tab = _tables()
    formatted = (a > _LOW) & (a < _HIGH)
    a = np.where(formatted, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, k, tab)
    floor_t = np.floor(t)
    n = p.astype(np.int64) + floor_t.astype(np.int64)
    off = np.flatnonzero((n < _E16) | (n >= _E17))
    if off.size:
        # log10 missed by one next to a power of ten
        k[off] += np.where(n[off] < _E16, -1, 1)
        p[off], t[off] = _scaled(a[off], k[off], tab)
        floor_t[off] = np.floor(t[off])
        n[off] = p[off].astype(np.int64) + floor_t[off].astype(np.int64)
    frac = t - floor_t
    d = n + (frac > 0.5)
    # a guard on the exponent estimate; V within 1e-13 of 1e16 or 1e17 may
    # sit on the wrong side of it, and both sides round to the same digits
    formatted &= (np.abs(frac - 0.5) >= _TIE_MARGIN) & (d >= _E16) & (d <= _E17)
    carry = d == _E17
    d[carry] = _E16
    k += carry
    return d, k, formatted


def _records(x: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """(x.shape, 6) little-endian uint64 records of a float64 block (see
    `_tables`); `sep` holds the separator byte of each cell, broadcast
    against x."""
    tab = _tables()
    shape = np.shape(x)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    d, k, formatted = _decimal(np.abs(x))
    lead, rest = np.divmod(d, _E16)
    groups = []
    for scale in (10 ** 12, 10 ** 8, 10 ** 4):
        g, rest = np.divmod(rest, scale)
        groups.append(g)
    groups.append(rest)
    kept = np.ones_like(k)
    for g, ends in zip(groups, tab["ends"]):
        np.maximum(kept, ends[g], out=kept)

    fixed = (k >= -4) & (k < 17)
    shown = np.where(fixed, np.maximum(kept, k + 1), kept)
    point = np.where(fixed, k, 0)
    point = np.where((kept > point + 1) & (point >= 0), point, _NONE)
    rec = np.empty((x.size, 6), "<u8")
    rec[:, 0] = (tab["head"][5 * np.signbit(x) + np.where(fixed & (k < 0), -k, 0)]
                 | tab["lead"][lead] | tab["dot"][0][point])
    for i, g in enumerate(groups, start=1):
        rec[:, i] = (tab["quad"][g] & tab["keep"][i - 1][shown]) | tab["dot"][i][point]
    rec[:, 5] = (tab["tail"][np.where(fixed, _K_MAX - _K_MIN + 1, k - _K_MIN)]
                 | np.broadcast_to(sep, shape).reshape(-1).astype(np.uint64) << np.uint64(40))

    rest = np.flatnonzero(~formatted)
    if rest.size:
        # each distinct value once, by '%.17g' % itself
        bits, inverse = np.unique(x[rest].view(np.uint64), return_inverse=True)
        texts = np.zeros((bits.size, 45), np.uint8)
        for row, value in zip(texts, bits.view(np.float64).tolist()):
            text = ("%.17g" % value).encode("ascii")
            row[:len(text)] = np.frombuffer(text, np.uint8)
        rec.view(np.uint8).reshape(-1, 48)[rest, :45] = texts[inverse.reshape(-1)]
    return rec.reshape(shape + (6,))


def _text(records: np.ndarray) -> bytes:
    """The CSV bytes of a block of records: every NUL pad dropped."""
    return records.tobytes().translate(None, _NUL)


def _separators(cells: int) -> np.ndarray:
    """Separator bytes of one CSV line of `cells` cells."""
    sep = np.full(cells, ord(","), np.uint8)
    sep[-1] = ord("\n")
    return sep


def _write_rows(fh, rows: np.ndarray):
    """Write a (lines, cells) float64 array as CSV lines, a chunk at a time."""
    sep = _separators(rows.shape[1])
    step = max(1, CHUNK_CELLS // rows.shape[1])
    for start in range(0, len(rows), step):
        fh.write(_text(_records(rows[start:start + step], sep)))


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def _real_pairs(values: np.ndarray) -> np.ndarray:
    """(..., 2 * cols) float64 view with each entry's real and imaginary parts
    side by side."""
    values = np.ascontiguousarray(values, dtype=np.complex128)
    return values.view(np.float64)


def matrix_to_csv(op: OperatorMatrix, path: str):
    """Row-major CSV; each matrix entry contributes a "re,im" pair of cells."""
    with open(path, "wb") as fh:
        _write_rows(fh, _real_pairs(op.kernel))


def field_to_csv(samples: np.ndarray, grid: Grid, path: str):
    """CSV rows: node coordinates, value real part, value imaginary part."""
    nodes = grid.nodes()
    vals = np.asarray(samples, dtype=complex).reshape(-1)
    if len(vals) != len(nodes):
        raise ValueError("sample count does not match the grid")
    rows = np.concatenate([nodes, _real_pairs(vals).reshape(-1, 2)], axis=1)
    with open(path, "wb") as fh:
        _write_rows(fh, rows)


def xi_field_to_csv(values: np.ndarray, xi_grid: XiGrid, path: str):
    """CSV rows: z coordinates, zeta coordinates, re, im."""
    z_nodes, zeta_nodes = xi_grid.node_pairs()
    n = z_nodes.shape[1]
    comma = np.full(n, ord(","), np.uint8)
    # each coordinate is formatted once and gathered into every line using it
    z_rec = _records(z_nodes, comma)
    zeta_rec = _records(zeta_nodes, comma)
    pairs = _real_pairs(values).reshape(len(z_nodes), len(zeta_nodes), 2)
    value_sep = _separators(2)
    width = 2 * n + 2
    step = max(1, CHUNK_CELLS // (len(zeta_nodes) * width))
    with open(path, "wb") as fh:
        for start in range(0, len(z_nodes), step):
            stop = min(start + step, len(z_nodes))
            lines = np.empty((stop - start, len(zeta_nodes), width, 6), "<u8")
            lines[:, :, :n] = z_rec[start:stop, None]
            lines[:, :, n:2 * n] = zeta_rec
            lines[:, :, 2 * n:] = _records(pairs[start:stop], value_sep)
            fh.write(_text(lines))


def write_json(obj: dict, path: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
