"""CSV exports write the same bytes as per-cell f-string formatting.

The references below are the per-cell writers the row templates replaced,
kept here so that both can be compared on the same data, including signed
zeros, infinities, NaN and subnormal values.
"""

import numpy as np

from nilquant.exports import field_to_csv, matrix_to_csv, xi_field_to_csv
from nilquant.grids import Grid, XiGrid
from nilquant.operators import OperatorMatrix

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
