"""Quadrature and the Fourier transforms between the group and its dual.

The forward transform carries no constant,

    (F h)(xi) = integral exp(-i <X | xi>) h(X) dX,

and the inverse integrates against the dual measure (2 pi)^{-n} d(xi), which
dual-flagged grids already carry.  With that split F is unitary from L2(G)
onto the weighted L2 of the dual, every orthogonality constant downstream is
exactly 1, and the displayed formulas keep their printed shape.

Since exp/log are the identity on coordinates, the group-side transforms
(composition with exp) coincide with the algebra-side ones; `script_fourier`
and `script_fourier_inv` are the named aliases used at call sites.

Quadrature is the midpoint rule: deterministic node order, numpy pairwise
summation.

Dual-side phases.  Every grid is a tensor product, so the phase against a
dual grid factors axis by axis,

    exp(s i <x | zeta>) = prod_k exp(s i x_k zeta_k),    s = +1 or -1,

and the sums the Bargmann maps and the quantizers need are applied one axis
at a time through small (points or nodes) x D_k factor matrices instead of
a dense (points x |dual|) phase matrix: `dual_phase_points` sums over the
dual grid at arbitrary points, `dual_phase_grid` sums over a tensor grid of
points onto the dual grid, and its adjoint at arbitrary points,
`dual_phase_from_points`, sums over points onto the dual grid.  The two
point forms take a leading batch axis, one sum per row against its own
points, so the sampled quantizer and the Fourier-Wigner transform of moved
phase points run a block of z nodes or kernel rows per call.  The adjoint
Bargmann map builds its factors with `_axis_factor` itself, since every
member of a central group of z nodes shares them.

The differences of two nodes of a grid along its axes form its difference
lattice, `lag_grid`: 2 N_k - 1 lags per axis at the grid's spacing.  It is a
grid like any other, so `dual_phase_grid` sums over it, or onto it, with its
own cached factors; the covariant symbols take their first-layer sums there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import DOMAIN_DUAL, DOMAIN_GROUP, Field, XiSamples
from .grids import Grid, XiGrid


def integrate(f, grid) -> complex:
    """Midpoint quadrature of a Field over a Grid, or of XiSamples."""
    if isinstance(f, XiSamples):
        return f.integral()
    if isinstance(grid, XiGrid):
        z, zeta = grid.node_pairs()
        vals = f(z[:, None, :], zeta[None, :, :])
        return complex(grid.weight * np.sum(vals))
    f.compatible_grid(grid)
    return complex(grid.weight * np.sum(f(grid.nodes())))


def inner(u: Field, v: Field, grid: Grid) -> complex:
    """L2 inner product <u, v> = integral u conj(v), linear in u."""
    u.compatible_grid(grid)
    v.compatible_grid(grid)
    nodes = grid.nodes()
    return complex(grid.weight * np.sum(u(nodes) * np.conjugate(v(nodes))))


def l2_norm(u: Field, grid: Grid) -> float:
    return float(np.sqrt(max(inner(u, u, grid).real, 0.0)))


def fourier(h: Field, grid: Grid) -> Field:
    """Forward transform of a field on the group, by quadrature over `grid`.

    Returns an analytic field on the dual, evaluable at arbitrary xi.
    """
    h.compatible_grid(grid)
    nodes = grid.nodes()
    samples = h(nodes) * grid.weight

    def fn(xi):
        xi = np.asarray(xi, float)
        flat = xi.reshape(-1, xi.shape[-1])
        phases = np.exp(-1j * (flat @ nodes.T))
        return (phases @ samples).reshape(xi.shape[:-1])

    return Field(fn, grid.n, DOMAIN_DUAL, interpolated=h.interpolated)


def inverse_fourier(w: Field, dual_grid: Grid) -> Field:
    """Inverse transform of a field on the dual; the (2 pi)^{-n} factor comes
    from the dual grid's weight."""
    if not dual_grid.dual:
        dual_grid = dual_grid.as_dual()
    w.compatible_grid(dual_grid)
    nodes = dual_grid.nodes()
    samples = w(nodes) * dual_grid.weight

    def fn(x):
        x = np.asarray(x, float)
        flat = x.reshape(-1, x.shape[-1])
        phases = np.exp(1j * (flat @ nodes.T))
        return (phases @ samples).reshape(x.shape[:-1])

    return Field(fn, dual_grid.n, DOMAIN_GROUP, interpolated=w.interpolated)


def _axis_factor(x: np.ndarray, k: int, zeta_k: np.ndarray, sign: int) -> np.ndarray:
    """exp(sign i zeta_k x_k) of shape (..., D_k, P) for points x of shape
    (..., P, n), or one (D_k, P) factor when the batch's k-th coordinates
    agree bit for bit."""
    xk = x[..., k]
    if xk.ndim > 1 and (xk.view(np.uint64) == xk[:1].view(np.uint64)).all():
        xk = xk[0]
    return np.exp((sign * 1j) * (zeta_k[:, None] * xk[..., None, :]))


def dual_phase_points(h: np.ndarray, x: np.ndarray, dual_grid: Grid,
                      sign: int) -> np.ndarray:
    """sum_zeta h[zeta] exp(sign i <x | zeta>) at points x of shape (P, n).

    `h` holds one value per node of `dual_grid` in its C node order.  A
    batch is one leading axis on both: h of shape (B, |dual|) with x of shape
    (B, P, n) gives (B, P), row b summed at the points x[b], bitwise as B
    single calls.  One (stacked) matrix product contracts the last axis;
    every other axis is one in-place multiply and a sum against its
    (D_k, P) factor, so no P x |dual| matrix is formed.  Where the k-th
    coordinates of every row's points are equal bit for bit, one factor
    serves the batch: rows that are nodes of a tensor grid share their
    leading coordinates, and the first-layer coordinates of a BCH product
    are plain sums.  No points or no batch rows give an empty result.
    """
    x = np.asarray(x, float)
    lead, P = x.shape[:-2], x.shape[-2]
    if 0 in lead + (P,):
        return np.zeros(lead + (P,), dtype=complex)
    axes = dual_grid.axes()
    T = np.reshape(h, lead + (-1, len(axes[-1]))) @ _axis_factor(x, -1, axes[-1], sign)
    for k in range(dual_grid.n - 2, -1, -1):
        T = T.reshape(lead + (-1, len(axes[k]), P))
        T *= _axis_factor(x, k, axes[k], sign)[..., None, :, :]
        T = np.sum(T, axis=-2)
    return T.reshape(lead + (P,))


def dual_phase_from_points(g: np.ndarray, x: np.ndarray, dual_grid: Grid,
                           sign: int) -> np.ndarray:
    """sum_p g[p] exp(sign i <x[p] | zeta>) for every node zeta of `dual_grid`.

    The adjoint of `dual_phase_points`: points x of shape (P, n) with values
    g of shape (P,) give the |dual| sums in C node order, and a leading batch
    axis on both, g of shape (B, P) with x of shape (B, P, n), gives
    (B, |dual|), row b summed over its own points.  With F_k the (D_k, P)
    axis factors of `dual_phase_points`, the sums are one (stacked) matrix
    product F_0 @ (g * F_1 * ... * F_{n-1})^T whose right factor is the
    row-wise Khatri-Rao product over the points, of
    P x |dual| / D_0 entries per row; no P x |dual| matrix is formed.  No
    points give zeros, no batch rows an empty result.
    """
    x = np.asarray(x, float)
    lead, P = x.shape[:-2], x.shape[-2]
    if 0 in lead + (P,):
        return np.zeros(lead + (dual_grid.size,), dtype=complex)
    axes = dual_grid.axes()
    R = np.asarray(g)[..., None, :]
    for k in range(1, dual_grid.n):
        R = R[..., :, None, :] * _axis_factor(x, k, axes[k], sign)[..., None, :, :]
        R = R.reshape(R.shape[:-3] + (-1, P))
    return (_axis_factor(x, 0, axes[0], sign) @ np.swapaxes(R, -1, -2)).reshape(lead + (-1,))


@lru_cache(maxsize=32)
def _axis_phase_factors(y_grid: Grid, dual_grid: Grid, sign: int) -> tuple:
    """Read-only (N_k, D_k) factors exp(sign i y_k zeta_k), one per axis."""
    factors = []
    for y, zeta in zip(y_grid.axes(), dual_grid.axes()):
        f = np.exp((sign * 1j) * np.outer(y, zeta))
        f.setflags(write=False)
        factors.append(f)
    return tuple(factors)


def dual_phase_grid(g: np.ndarray, y_grid: Grid, dual_grid: Grid, sign: int) -> np.ndarray:
    """sum_y g[b, y] exp(sign i <y | zeta>) for every node zeta of `dual_grid`.

    `g` has shape (B, |y_grid|) in C node order; the result has shape
    (B, |dual_grid|).  One tensordot per axis against its cached (N_k, D_k)
    factor; each contracts the leading remaining y axis and appends its dual
    axis, so the dual axes come out in C order.
    """
    T = np.reshape(g, (len(g),) + y_grid.counts)
    for factor in _axis_phase_factors(y_grid, dual_grid, sign):
        T = np.tensordot(T, factor, axes=([1], [0]))
    return T.reshape(len(g), dual_grid.size)


def axes_grid(grid: Grid, axes) -> Grid:
    """The factor of the tensor grid `grid` on `axes`, in that order; no
    axes give the one-node grid of no dimensions."""
    return Grid(tuple(grid.half_width[k] for k in axes), tuple(grid.counts[k] for k in axes),
                grid.dual)


def lag_grid(grid: Grid, axes) -> Grid:
    """The difference lattice of `grid` on `axes`: the 2 N_k - 1 lags
    d_k = j h_k, |j| < N_k, of two nodes along axis k, as a midpoint grid of
    the same spacing, lags ascending.  `dual_phase_grid` sums over it (or
    onto it) with its own cached per-axis factors."""
    return Grid(tuple((2 * grid.counts[k] - 1) * grid.spacing[k] / 2 for k in axes),
                tuple(2 * grid.counts[k] - 1 for k in axes), grid.dual)


# The exponential chart is the identity on coordinates, so the group-side
# transforms coincide with the algebra-side ones.
script_fourier = fourier
script_fourier_inv = inverse_fourier
