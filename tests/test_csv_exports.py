"""CSV exports write the same bytes as per-cell '%.17g' formatting.

The references below are per-cell writers, kept here so that the vectorized
kernel of `nilquant.exports` can be compared with Python's own formatting on
the same data: random bit patterns, every power of two, powers of ten and
their neighbours, exact decimal ties, the fixed/exponent boundaries, signed
zeros, infinities, NaN and subnormal values, in one chunk and split across
many.
"""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from nilquant import exports
from nilquant.exports import field_to_csv, matrix_to_csv, xi_field_to_csv
from nilquant.grids import Grid, XiGrid
from nilquant.operators import OperatorMatrix

from oracles import traced_peak

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-309,
           1e308, 0.1, -1.0 / 3.0]


def reference_matrix_csv(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(",".join(f"{v.real:.17g},{v.imag:.17g}" for v in row) + "\n")


def reference_field_csv(vals, nodes, path):
    with open(path, "w", encoding="utf-8") as fh:
        for node, v in zip(nodes, vals):
            coords = ",".join(f"{c:.17g}" for c in node)
            fh.write(f"{coords},{v.real:.17g},{v.imag:.17g}\n")


def reference_xi_field_csv(vals, z_nodes, zeta_nodes, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i, z in enumerate(z_nodes):
            for j, zeta in enumerate(zeta_nodes):
                coords = ",".join(f"{c:.17g}" for c in z)
                dcoords = ",".join(f"{c:.17g}" for c in zeta)
                v = vals[i, j]
                fh.write(f"{coords},{dcoords},{v.real:.17g},{v.imag:.17g}\n")


def _values(rng, shape):
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape) \
        + 1j * rng.normal(size=shape)
    flat = vals.reshape(-1)
    flat.real[:len(SPECIAL)] = SPECIAL
    flat.imag[:len(SPECIAL)] = SPECIAL[::-1]
    return vals


def test_matrix_csv_bytes(tmp_path):
    grid = Grid.box(2, 1.0, (3, 4))
    m = _values(np.random.default_rng(0), (grid.size, grid.size))
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    matrix_to_csv(OperatorMatrix(grid, m), str(got))
    reference_matrix_csv(m, str(ref))
    assert got.read_bytes() == ref.read_bytes()


def test_field_csv_bytes(tmp_path):
    grid = Grid.box(3, (1.0, 2.0, 0.3), (3, 4, 5))
    vals = _values(np.random.default_rng(1), (grid.size,))
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    field_to_csv(vals, grid, str(got))
    reference_field_csv(vals, grid.nodes(), str(ref))
    assert got.read_bytes() == ref.read_bytes()


def test_xi_field_csv_bytes(tmp_path):
    xi = XiGrid.box(2, (1.0, 0.7), (3, 2), dual_half_width=(2.0, 1.1), dual_count=(2, 5))
    z_nodes, zeta_nodes = xi.node_pairs()
    vals = _values(np.random.default_rng(2), (len(z_nodes), len(zeta_nodes)))
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    xi_field_to_csv(vals, xi, str(got))
    reference_xi_field_csv(vals, z_nodes, zeta_nodes, str(ref))
    assert got.read_bytes() == ref.read_bytes()


# ---------------------------------------------------------------------------
# the '%.17g' kernel, cell by cell
# ---------------------------------------------------------------------------

def kernel_text(x):
    """The kernel's bytes of a flat block, one comma after each cell."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return exports._text(exports._records(x, np.full(x.size, ord(","), np.uint8)))


def reference_text(x):
    return "".join("%.17g," % v for v in np.asarray(x, dtype=float).reshape(-1).tolist()
                   ).encode()


def assert_cells_equal(x):
    got, want = kernel_text(x), reference_text(x)
    if got != want:
        pairs = zip(got.split(b","), want.split(b","), np.asarray(x, float).reshape(-1))
        bad = [(g, w, float(v)) for g, w, v in pairs if g != w]
        pytest.fail(f"{len(bad)} cells differ from '%.17g', first: {bad[:3]}")


def with_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


def signed(x):
    return np.concatenate([x, -np.asarray(x)])


def is_tie(v):
    """The 17-digit rounding of v is an exact tie."""
    e = int(("%.16e" % v).split("e")[1])
    scaled = Fraction(v) * Fraction(10) ** (16 - e)
    return scaled - scaled.numerator // scaled.denominator == Fraction(1, 2)


def exact_ties():
    """Doubles whose exact decimal value has 18 significant digits ending in
    5: a tie at the 17th digit, broken to even by '%.17g'.  Odd and even
    17th digits both occur, so neither rounding half down nor half up gives
    all of them."""
    ties = [2.0 ** -25, 3 * 2.0 ** -25, 1234567890123456.25, 1234567890123456.75]
    # m * 2**-e with m odd has the digits of m * 5**e, the last a 5
    for m in np.random.default_rng(12).integers(2 ** 30, 2 ** 53, 40) | 1:
        ties += [float(m) * 2.0 ** -e for e in range(1, 40)
                 if len(str(int(m) * 5 ** e)) == 18]
    return np.array(ties)


def test_kernel_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    assert_cells_equal(bits.view(np.float64))


def test_kernel_every_power_of_two():
    assert_cells_equal(signed(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_kernel_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_cells_equal(signed(with_neighbours(tens)))
    # and the digit strings just below and above them
    assert_cells_equal([float(f"{m}e{e}") for e in range(-300, 300, 7)
                        for m in ("9.9999999999999999", "9.99999999999999999",
                                  "1.0000000000000001", "1.00000000000000001")])


def test_kernel_exact_ties():
    ties = exact_ties()
    assert len(ties) > 40
    # the kernel leaves each of them to '%.17g' %
    assert not exports._decimal(ties)[2].any()
    assert_cells_equal(signed(ties))
    assert_cells_equal([2.0 ** -25, 2.0 ** -26])


def test_kernel_fixed_and_exponent_boundaries():
    edges = [1e-4, 9.9999999999999995e-5, 1e-5, 1e16, 1e17, 99999999999999999.0,
             99999999999999984.0, 1e16 - 2, 1e16 + 2, 0.5, 1.5, 100.0, 123456.0,
             1e100, 1e-100, 1.2345e123, 9.87e-234, 1e-280, 1e290, 1e-281, 1.1e290]
    assert_cells_equal(signed(with_neighbours(edges)))
    rng = np.random.default_rng(21)
    # every exponent from -4 to 16 in fixed form and |k| >= 100 in exponent form
    scales = 10.0 ** np.concatenate([np.arange(-6, 19), np.arange(-300, -99, 13),
                                     np.arange(100, 300, 13)])
    assert_cells_equal(signed(np.outer(scales, rng.uniform(1, 10, 50))))
    # integers up to 17 digits, with trailing zeros
    ints = rng.integers(1, 10 ** 17, 20_000) // 10 ** rng.integers(0, 12, 20_000)
    assert_cells_equal(signed((ints * 10 ** rng.integers(0, 5, 20_000)).astype(float)))


def test_kernel_subnormals_and_specials():
    rng = np.random.default_rng(22)
    subnormal = rng.integers(1, 2 ** 52, 2_000, dtype=np.uint64).view(np.float64)
    assert_cells_equal(signed(np.concatenate([subnormal, SPECIAL, [2.2250738585072014e-308,
                                                                   1.7976931348623157e308]])))


def test_kernel_formats_every_in_range_cell_itself():
    """The fallback takes only zeros, non-finite values, magnitudes outside
    (1e-280, 1e290) and exact ties: the exponent correction and the rounding
    are the kernel's own, also next to every power of ten."""
    tens = with_neighbours([float(f"1e{e}") for e in range(-279, 290)])
    bits = np.random.default_rng(23).integers(0, 2 ** 64, 100_000, dtype=np.uint64)
    for x in (tens, np.abs(bits.view(np.float64))):
        d, k, formatted = exports._decimal(x)
        in_range = (x > 1e-280) & (x < 1e290)
        assert not formatted[~in_range].any()
        assert all(is_tie(v) for v in x[in_range & ~formatted].tolist())
        want = [("%.16e" % v).split("e") for v in x[formatted].tolist()]
        assert np.array_equal(d[formatted], [int(m.replace(".", "")) for m, _ in want])
        assert np.array_equal(k[formatted], [int(e) for _, e in want])


@pytest.mark.parametrize("chunk_cells", [1, 7, exports.CHUNK_CELLS])
def test_matrix_csv_bytes_in_any_chunk_split(tmp_path, monkeypatch, chunk_cells):
    """One row per chunk, chunks of a few rows and the default."""
    grid = Grid.box(1, 1.0, 9)
    m = _values(np.random.default_rng(3), (grid.size, grid.size))
    m.real[2, :] = np.ldexp(1.0, np.arange(-1074, -1065))       # subnormals
    m.imag[5, :] = [np.nan, -np.inf, -0.0, 0.0, 2 ** -25, 5e-324, 1e-300, 1e300, 1.0]
    monkeypatch.setattr(exports, "CHUNK_CELLS", chunk_cells)
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    matrix_to_csv(OperatorMatrix(grid, m), str(got))
    reference_matrix_csv(m, str(ref))
    assert got.read_bytes() == ref.read_bytes()
    field_to_csv(m[5], grid, str(got))
    reference_field_csv(m[5], grid.nodes(), str(ref))
    assert got.read_bytes() == ref.read_bytes()


def test_xi_field_csv_bytes_in_one_line_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(exports, "CHUNK_CELLS", 1)
    xi = XiGrid.box(2, (1.0, 0.7), (3, 2), dual_half_width=(2.0, 1.1), dual_count=(2, 5))
    z_nodes, zeta_nodes = xi.node_pairs()
    vals = _values(np.random.default_rng(4), (len(z_nodes), len(zeta_nodes)))
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    xi_field_to_csv(vals, xi, str(got))
    reference_xi_field_csv(vals, z_nodes, zeta_nodes, str(ref))
    assert got.read_bytes() == ref.read_bytes()


def test_matrix_csv_decodes_to_the_matrix_bitwise(tmp_path):
    grid = Grid.box(1, 1.0, 40)
    m = _values(np.random.default_rng(5), (grid.size, grid.size))
    path = tmp_path / "m.csv"
    matrix_to_csv(OperatorMatrix(grid, m), str(path))
    cells = np.array(path.read_text().replace("\n", ",").split(",")[:-1], dtype=float)
    assert np.array_equal(cells.view(np.uint64), m.view(np.float64).reshape(-1).view(np.uint64))


def _csv_peak(tmp_path, m):
    grid = Grid.box(1, 1.0, m)
    rng = np.random.default_rng(6)
    op = OperatorMatrix(grid, rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    matrix_to_csv(op, str(tmp_path / "warm.csv"))
    return traced_peak(matrix_to_csv, op, str(tmp_path / f"m{m}.csv"))


def test_matrix_csv_peak_memory_is_bounded_by_the_chunk(tmp_path):
    """The records of one chunk, not of the matrix: 16 times the cells take
    no more memory, and far less than the whole matrix's records."""
    small, large = _csv_peak(tmp_path, 128), _csv_peak(tmp_path, 512)
    whole = 512 * 1024 * 48
    assert large < 1.5 * small
    assert large < whole / 4


def test_tables_are_built_on_first_use_not_at_import():
    code = ("import nilquant.exports as e, nilquant.cli; "
            "assert e._tables.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True)
