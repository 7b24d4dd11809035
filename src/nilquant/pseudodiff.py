"""Pseudo-differential quantization on the phase space and its Berezin bridge.

The quantization of a symbol a on G x g# is

    [Op(a) u](x) = integral integral e^{i <log(x y^{-1}) | xi>} a(x, xi) u(y) dy d xi,

an integral operator with kernel K_a(x, y) = check2(x, log(x y^{-1})), the
partial inverse transform of the symbol in the dual variable.  With the
(2 pi)^{-n} dual measure, Op is unitary from L2(Xi) onto the Hilbert-Schmidt
class.  The symbol is recovered from the kernel by

    a(x, xi) = integral e^{-i <log y | xi>} K_a(x, y^{-1} x) dy.

Two symbol families cannot be pushed through a sampled kernel and get exact
paths instead: symbols constant in xi give multiplication operators, and the
pure Weyl phase eps_{z,zeta} quantizes to the shift W(z, zeta) itself.

A Berezin operator is pseudo-differential; its symbol is obtained here by
running the recovery integral against the coherent-state kernel (and, as an
independent route, by the literal double quadrature of the defining triple
integral).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra
from .berezin import BerezinConfig, berezin_kernel_points
from .coherent import PhasePoint, node_blocks, weyl
from .fields import Field, grid_interpolator
from .grids import Grid
from .operators import OperatorMatrix
from .symbols import PhaseSymbol, SymbolError, XOnlySymbol, XiSymbol
from .transforms import dual_phase_points


@dataclass
class WeylOperator:
    """Exact-shift special path for the pure phase symbol: Op(eps) = W(z, zeta).

    Not materializable as kernel samples (the kernel is a point mass); acts
    on analytic fields exactly and is unitary.
    """

    algebra: LieAlgebra
    point: PhasePoint

    def apply(self, u: Field) -> Field:
        return weyl(self.algebra, self.point, u)

    unitary = True


@dataclass
class RecoveredSymbol:
    """Symbol samples on given (x, xi) target sets; `approximate` marks values
    that passed through grid interpolation."""

    x_points: np.ndarray
    xi_points: np.ndarray
    values: np.ndarray
    approximate: bool = False


def op_quantize(alg: LieAlgebra, symbol: XiSymbol, grid: Grid,
                dual_grid: Grid | None = None):
    """Op(a) on a grid: kernel K(x, y) = check2(x, log(x y^{-1})).

    Uses the closed-form partial transform when the symbol has one, otherwise
    quadrature over `dual_grid`.  Special paths: XOnlySymbol -> multiplication
    operator; PhaseSymbol -> WeylOperator.
    """
    if isinstance(symbol, XOnlySymbol):
        vals = symbol.phi(grid.nodes())
        return OperatorMatrix(grid, np.diag(vals) / grid.weight,
                              meta={"multiplication": True})
    if isinstance(symbol, PhaseSymbol):
        return WeylOperator(alg, PhasePoint(symbol.z, symbol.zeta))
    x = grid.nodes()
    V = alg.bch(x[:, None, :], -x[None, :, :])     # log(x y^{-1})
    try:
        K = symbol.check2(x[:, None, :], V)
    except SymbolError:
        if dual_grid is None:
            raise
        samples = symbol(x[:, None, :], dual_grid.nodes()[None, :, :])
        return _kernel_from_samples(V, samples, grid, dual_grid)
    return OperatorMatrix(grid, np.asarray(K, dtype=complex))


def op_quantize_samples(alg: LieAlgebra, a_samples: np.ndarray, grid: Grid,
                        dual_grid: Grid) -> OperatorMatrix:
    """Op(a) from symbol samples a[x_i, zeta_j] on grid x dual_grid; each
    kernel row is the zeta-sum of row i against exp(i <log(x_i y^-1) | zeta>),
    applied axis by axis (`dual_phase_points`)."""
    x = grid.nodes()
    return _kernel_from_samples(alg.bch(x[:, None, :], -x[None, :, :]), a_samples, grid,
                                dual_grid)


def _kernel_from_samples(V: np.ndarray, a_samples: np.ndarray, grid: Grid,
                         dual_grid: Grid) -> OperatorMatrix:
    """`op_quantize_samples` given the products V = log(x y^{-1}): one
    batched `dual_phase_points` call per block of rows (`node_blocks`)."""
    if not dual_grid.dual:
        dual_grid = dual_grid.as_dual()
    m = grid.size
    K = np.empty((m, m), dtype=complex)
    for block in node_blocks(m, m * (dual_grid.size // dual_grid.counts[-1])):
        np.multiply(dual_grid.weight, dual_phase_points(a_samples[block], V[block], dual_grid, 1),
                    out=K[block])
    return OperatorMatrix(grid, K)


def symbol_from_kernel(alg: LieAlgebra, kernel, grid: Grid, x_points,
                       xi_points) -> RecoveredSymbol:
    """Recover a(x, xi) = integral e^{-i <log y | xi>} K(x, y^{-1} x) dy.

    `kernel` is either a callable (x_batch, y_batch) -> matrix of kernel
    values (analytic path), or an OperatorMatrix whose rows are interpolated
    in the second argument (x_points must then be grid nodes; the result is
    flagged approximate).
    """
    x_points = np.atleast_2d(np.asarray(x_points, float))
    xi_points = np.atleast_2d(np.asarray(xi_points, float))
    y = grid.nodes()
    phases = np.exp(-1j * (y @ xi_points.T))        # (m, J)
    out = np.empty((len(x_points), len(xi_points)), dtype=complex)
    approximate = False
    if isinstance(kernel, OperatorMatrix):
        approximate = True
        nodes = kernel.grid.nodes()
        for k, xp in enumerate(x_points):
            idx = int(np.argmin(np.sum((nodes - xp) ** 2, axis=1)))
            if not np.allclose(nodes[idx], xp, atol=1e-12):
                raise SymbolError("sampled-kernel recovery needs x on grid nodes")
            kv = grid_interpolator(kernel.grid, kernel.kernel[idx])(alg.bch(-y, xp))
            out[k] = grid.weight * (kv @ phases)
    else:
        for k, xp in enumerate(x_points):
            args = alg.bch(-y, xp)                  # y^{-1} x
            kv = kernel(xp[None, :], args)[0]
            out[k] = grid.weight * (kv @ phases)
    return RecoveredSymbol(x_points, xi_points, out, approximate)


def berezin_symbol(cfg: BerezinConfig, x_points, xi_points,
                   route: str = "kernel") -> RecoveredSymbol:
    """Pseudo-differential symbol of Ber(f) at the given targets.

    "kernel" runs the recovery integral against the assembled coherent-state
    kernel; "direct" is the literal double quadrature of the defining triple
    integral (dual-variable fibre reduced in closed form).  The two routes
    must agree to reassociation error.
    """
    alg, w = cfg.algebra, cfg.window
    if route == "kernel":
        def kernel(xp, args):
            return berezin_kernel_points(cfg, xp, args)
        return symbol_from_kernel(alg, kernel, cfg.g_grid, x_points, xi_points)
    if route == "direct":
        x_points = np.atleast_2d(np.asarray(x_points, float))
        xi_points = np.atleast_2d(np.asarray(xi_points, float))
        y = cfg.g_grid.nodes()
        z_nodes, z_w = cfg.z_quadrature()
        out = np.zeros((len(x_points), len(xi_points)), dtype=complex)
        phases = np.exp(-1j * (y @ xi_points.T))
        for k, xp in enumerate(x_points):
            yinv_x = alg.bch(-y, xp)
            acc = np.zeros(len(y), dtype=complex)
            for z in z_nodes:
                zx = alg.bch(z, xp)
                zyx = alg.bch(z, yinv_x)
                V = zx[None, :] - zyx               # log(zx) - log(z y^{-1} x)
                acc += (cfg.symbol.hat2(z, V) * w(zx) * np.conjugate(w(zyx)))
            out[k] = cfg.g_grid.weight * ((z_w * acc) @ phases)
        return RecoveredSymbol(x_points, xi_points, out)
    raise ValueError(f"unknown route {route!r}")


def symbol_of_regularizing(C, alg: LieAlgebra, grid: Grid, x_points,
                           xi_points) -> RecoveredSymbol:
    """Symbol of a regularizing operator from its full covariant symbol:
    kernel reconstruction followed by kernel-to-symbol recovery."""
    from .covariant import kernel_from_cov_points

    def kernel(xp, args):
        return kernel_from_cov_points(C, alg, xp, args)

    return symbol_from_kernel(alg, kernel, grid, x_points, xi_points)


def hs_unitarity_ratio(cfg: BerezinConfig, symbol: XiSymbol | None = None) -> float:
    """||Op(a)||_HS / ||a||_{L2(Xi)}; equals 1 up to quadrature error."""
    from .berezin import symbol_lp_norm

    sym = symbol if symbol is not None else cfg.symbol
    op = op_quantize(cfg.algebra, sym, cfg.g_grid, cfg.xi_grid.dual_grid)
    cfg2 = BerezinConfig(cfg.algebra, cfg.window, cfg.g_grid, cfg.xi_grid, sym)
    return op.hs_norm() / symbol_lp_norm(cfg2, 2.0)
