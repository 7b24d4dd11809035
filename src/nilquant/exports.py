"""Flat-file export formats for matrices, fields and reports.

Matrices go out two ways: CSV with row-major "re,im" cell pairs, and raw
little-endian complex128 binary next to a JSON sidecar that records the grid,
the scheme and a format version.  Fields export as CSV rows of node
coordinates followed by the value's real and imaginary parts.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .grids import Grid, XiGrid
from .operators import OperatorMatrix

FORMAT_VERSION = 1


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


def _interleaved(values: np.ndarray) -> np.ndarray:
    """Real array with the real and imaginary parts of each entry side by side."""
    values = np.asarray(values, dtype=complex)
    out = np.empty(values.shape[:-1] + (2 * values.shape[-1],))
    out[..., 0::2] = values.real
    out[..., 1::2] = values.imag
    return out


def _row_template(cells: int) -> str:
    """printf template of one CSV row of `cells` numbers, as f"{x:.17g}" writes them."""
    return ",".join(["%.17g"] * cells)


def matrix_to_csv(op: OperatorMatrix, path: str):
    """Row-major CSV; each matrix entry contributes a "re,im" pair of cells."""
    cells = _interleaved(op.kernel)
    template = _row_template(cells.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for row in cells:
            fh.write(template % tuple(row.tolist()))


def field_to_csv(samples: np.ndarray, grid: Grid, path: str):
    """CSV rows: node coordinates, value real part, value imaginary part."""
    nodes = grid.nodes()
    vals = np.asarray(samples, dtype=complex).reshape(-1)
    if len(vals) != len(nodes):
        raise ValueError("sample count does not match the grid")
    rows = np.concatenate([nodes, _interleaved(vals[:, None])], axis=1)
    template = _row_template(rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(template % tuple(row.tolist()))


def xi_field_to_csv(values: np.ndarray, xi_grid: XiGrid, path: str):
    """CSV rows: z coordinates, zeta coordinates, re, im."""
    z_nodes, zeta_nodes = xi_grid.node_pairs()
    cells = _interleaved(values)
    z_strs = [_row_template(z_nodes.shape[1]) % tuple(z) for z in z_nodes.tolist()]
    zeta_template = _row_template(zeta_nodes.shape[1])
    # the tail of each line after its z coordinates, with the value left open
    tails = [f",{zeta_template % tuple(zeta)},%.17g,%.17g\n" for zeta in zeta_nodes.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        for z_str, row in zip(z_strs, cells):
            fh.write("".join(z_str + tail for tail in tails) % tuple(row.tolist()))


def write_json(obj: dict, path: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
