"""Discretized integral operators on L2(G) and their Schatten norms.

An operator T with kernel K acts by (Tu)(x) = integral K(x, y) u(y) dy; on a
grid this is (Tu)_i = vol * sum_j K_ij u_j.  Rescaling samples by sqrt(vol)
is an isometry onto plain l2, under which T becomes the matrix vol * K, so
traces, singular values and Schatten norms of the discretized operator are
those of vol * K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Field, gridded_field
from .grids import Grid


#: Largest m * m kernel a config may ask for without "allow_large_grids"
#: (`config.parse_config`, the one size check of every scheme).
KERNEL_SAMPLE_GUARD = 4_000_000


class OperatorError(ValueError):
    pass


def schatten_norm(sv: np.ndarray, p: float) -> float:
    """l^p norm of descending singular values ``sv``; p = inf takes the first.

    Several norms of one operator can share a single SVD this way.
    """
    if p < 1:
        raise OperatorError("Schatten exponent must satisfy p >= 1")
    if math.isinf(p):
        return float(sv[0]) if sv.size else 0.0
    return float(np.sum(sv ** p) ** (1.0 / p))


@dataclass
class OperatorMatrix:
    """Kernel samples K(x_i, y_j) on a group grid."""

    grid: Grid
    kernel: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=complex)
        m = self.grid.size
        if k.shape != (m, m):
            raise OperatorError(f"kernel must be {m}x{m} for this grid, got {k.shape}")
        self.kernel = k

    @classmethod
    def identity(cls, grid: Grid) -> "OperatorMatrix":
        return cls(grid, np.eye(grid.size, dtype=complex) / grid.weight,
                   meta={"identity": True})

    @classmethod
    def rank_one(cls, grid: Grid, left: Field, right: Field | None = None) -> "OperatorMatrix":
        """Kernel left(x) conj(right(y)); right defaults to left."""
        lv = left(grid.nodes())
        rv = lv if right is None else right(grid.nodes())
        return cls(grid, np.outer(lv, np.conjugate(rv)))

    def _check(self, other: "OperatorMatrix"):
        if other.grid != self.grid:
            raise OperatorError("operator grids differ")

    def matrix(self) -> np.ndarray:
        """vol * K, the operator in the sqrt(vol)-rescaled l2 picture."""
        return self.grid.weight * self.kernel

    def apply_samples(self, u: np.ndarray) -> np.ndarray:
        return self.matrix() @ np.asarray(u, dtype=complex)

    def apply(self, u: Field) -> Field:
        out = self.apply_samples(u(self.grid.nodes()))
        return gridded_field(self.grid, out)

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return OperatorMatrix(self.grid, self.grid.weight * (self.kernel @ other.kernel))

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.grid, self.kernel.conj().T)

    def trace(self) -> complex:
        return complex(self.grid.weight * np.trace(self.kernel))

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix(), compute_uv=False)

    def schatten(self, p: float) -> float:
        """l^p norm of the singular values; p = inf is the operator norm."""
        return schatten_norm(self.singular_values(), p)

    def hs_norm(self) -> float:
        """Hilbert-Schmidt norm via the Frobenius formula vol * sqrt(sum |K|^2)."""
        return float(self.grid.weight * np.sqrt(np.sum(np.abs(self.kernel) ** 2)))

    def hermiticity_residual(self) -> float:
        scale = float(np.max(np.abs(self.kernel))) or 1.0
        return float(np.max(np.abs(self.kernel - self.kernel.conj().T))) / scale

    def frobenius_distance(self, other: "OperatorMatrix") -> float:
        """Frobenius distance of the kernels relative to the larger norm."""
        self._check(other)
        d = float(np.linalg.norm(self.kernel - other.kernel))
        scale = max(float(np.linalg.norm(self.kernel)),
                    float(np.linalg.norm(other.kernel)), 1e-300)
        return d / scale

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the hermitized operator vol * K."""
        m = self.matrix()
        return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
