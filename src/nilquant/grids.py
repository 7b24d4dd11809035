"""Uniform box grids over the group, its dual, and the phase space.

Midpoint (cell-centred) nodes on [-L_i, L_i] per axis: x_k = -L_i + (k+1/2) h_i
with h_i = 2 L_i / N_i.  A grid over the dual carries the spectral measure
(2 pi)^{-n} d(xi), so its quadrature ``weight`` already includes that factor;
this is the single place the Fourier normalization convention lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridError(ValueError):
    pass


def _as_tuple(value, n, kind) -> tuple:
    if np.isscalar(value):
        value = [value] * n
    if any(isinstance(v, (bool, np.bool_)) for v in value):  # int(True) would be 1
        raise GridError(f"per-axis values must be numbers, not booleans, got {value!r}")
    try:
        out = tuple(kind(v) for v in value)
    except (OverflowError, ValueError):  # int(inf), int(nan), float("wide")
        raise GridError(f"per-axis values must be finite numbers, got {value!r}") from None
    if len(out) != n:
        raise GridError(f"expected {n} per-axis values, got {len(out)}")
    if kind is int and any(o != float(v) for o, v in zip(out, value)):
        raise GridError(f"node counts must be whole numbers, got {value!r}")
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid over a box in R^n.

    ``dual=True`` marks a grid over the dual g#; its integration weight is
    the cell volume times (2 pi)^{-n}.
    """

    half_width: tuple[float, ...]
    counts: tuple[int, ...]
    dual: bool = False

    def __post_init__(self):
        n = len(self.half_width)
        object.__setattr__(self, "half_width", _as_tuple(self.half_width, n, float))
        object.__setattr__(self, "counts", _as_tuple(self.counts, n, int))
        if (any(not (math.isfinite(L) and L > 0) for L in self.half_width)
                or any(N <= 0 for N in self.counts)):
            raise GridError("half widths must be finite and positive, counts positive")

    @classmethod
    def box(cls, n: int, half_width, count, dual: bool = False) -> "Grid":
        return cls(_as_tuple(half_width, n, float), _as_tuple(count, n, int), dual)

    @property
    def n(self) -> int:
        return len(self.half_width)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(2.0 * L / N for L, N in zip(self.half_width, self.counts))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def weight(self) -> float:
        """Quadrature weight per node, including the dual-side (2 pi)^{-n}."""
        w = self.cell_volume
        if self.dual:
            w /= (2.0 * math.pi) ** self.n
        return w

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        axes = tuple(-L + (np.arange(N) + 0.5) * h
                     for L, N, h in zip(self.half_width, self.counts, self.spacing))
        for a in axes:
            a.setflags(write=False)
        return axes

    def axes(self) -> list[np.ndarray]:
        """Per-axis node coordinates; the arrays are cached and read-only."""
        return list(self._axes)

    @cached_property
    def _nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        pts.setflags(write=False)
        return pts

    def nodes(self) -> np.ndarray:
        """(size, n) array of node coordinates, C order over axes."""
        return self._nodes

    def grouped_indices(self, axes=()) -> np.ndarray:
        """Indices into `nodes` as (groups, members): the members of a group
        differ only in their coordinates on ``axes``, in C order over those
        axes, and the groups run in C order over the other axes.  No axes
        gives groups of one node in `nodes` order."""
        axes = list(axes)
        rest = [k for k in range(self.n) if k not in axes]
        members = math.prod(self.counts[k] for k in axes)
        index = np.arange(self.size).reshape(self.counts)
        return index.transpose(rest + axes).reshape(-1, members)

    def grouped_nodes(self, axes=()) -> np.ndarray:
        """The nodes as (groups, members, n), grouped by `grouped_indices`."""
        return self.nodes()[self.grouped_indices(axes)]

    def as_dual(self) -> "Grid":
        return Grid(self.half_width, self.counts, dual=True)


@dataclass(frozen=True)
class XiGrid:
    """Product grid over the phase space Xi = G x g#."""

    g_grid: Grid
    dual_grid: Grid

    def __post_init__(self):
        if self.g_grid.n != self.dual_grid.n:
            raise GridError("group and dual grids must have matching dimension")
        if self.g_grid.dual or not self.dual_grid.dual:
            raise GridError("XiGrid needs a plain group grid and a dual-flagged dual grid")

    @classmethod
    def box(cls, n: int, half_width, count, dual_half_width=None, dual_count=None) -> "XiGrid":
        g = Grid.box(n, half_width, count)
        d = Grid.box(n, dual_half_width if dual_half_width is not None else half_width,
                     dual_count if dual_count is not None else count, dual=True)
        return cls(g, d)

    @property
    def n(self) -> int:
        return self.g_grid.n

    @property
    def weight(self) -> float:
        return self.g_grid.weight * self.dual_grid.weight

    @property
    def size(self) -> int:
        return self.g_grid.size * self.dual_grid.size

    def node_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(z nodes, zeta nodes); phase-space samples are indexed [i_z, i_zeta]."""
        return self.g_grid.nodes(), self.dual_grid.nodes()
