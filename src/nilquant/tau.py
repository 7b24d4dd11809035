"""Ordering-parameterized (tau) quantizations.

A continuous map tau: G -> G fixes where the symbol is evaluated:

    [Op_tau(a) u](x) = integral integral e^{i <log(y^{-1} x) | xi>}
                       a(tau(x y^{-1})^{-1} x, xi) u(y) dy d xi.

The adjoint swaps the parameter through the involution tilde(tau)(x) =
tau(x^{-1}) x:  Op_tau(a)* = Op_{tilde(tau)}(conj a).  Chasing the kernels
shows this holds exactly when tau(v) commutes with v — true for tau == e,
tau == id, every tau(x) = exp(s log x), and everything Abelian; the suites
stay inside that class (see the repository notes).  Self-adjointness for
real symbols therefore needs tau = tilde(tau); the symmetric choice

    tau(x) = integral_0^1 exp(s log x) ds = exp(log(x) / 2)

(the integral taken in the chart, where it is a plain vector average) is such
a fixed point.

The tau-Weyl system W_tau(z, zeta) u = e^{i<log(tau(z)^{-1} x)|zeta>} u(z^{-1}x)
shifts the modulation's base point; tau == e gives the plain system and
tau == id the opposite ordering L_z M_zeta.  Coherent states, Fourier-Wigner
transforms and Berezin operators follow the same pattern; tau == e delegates
to the plain implementations (identical code path, bitwise-equal output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import LieAlgebra
from .berezin import BerezinConfig, assemble_kernel, berezin_matrix
from .coherent import PhasePoint, Window, weyl, weyl_adjoint
from .fields import Field, XiSamples
from .grids import Grid, XiGrid
from .operators import OperatorMatrix
from .symbols import XiSymbol


@dataclass(frozen=True)
class TauMap:
    """A continuous parameter map G -> G; `name` tags the standard choices."""

    fn: Callable
    name: str = "custom"

    def __call__(self, points):
        return np.asarray(self.fn(np.asarray(points, float)))

    @property
    def is_trivial(self) -> bool:
        return self.name == "e"


def tau_e(n: int) -> TauMap:
    return TauMap(lambda p: np.zeros_like(p), name="e")


def tau_id() -> TauMap:
    return TauMap(lambda p: p, name="id")


def symmetric_tau(alg: LieAlgebra) -> TauMap:
    """tau(x) = exp(log(x)/2): the chart average of s -> exp(s log x).

    Fixed point of the adjoint involution on every nilpotent group.
    """
    return TauMap(lambda p: 0.5 * p, name="symmetric")


def scaled_tau(s: float) -> TauMap:
    """tau(x) = exp(s log x); commutes with x, so the adjoint identity holds."""
    return TauMap(lambda p: s * p, name=f"scaled:{s}")


def tau_tilde(alg: LieAlgebra, tau: TauMap) -> TauMap:
    """The adjoint involution tilde(tau)(x) = tau(x^{-1}) x."""
    if tau.name == "e":
        return tau_id()
    if tau.name == "id":
        return tau_e(alg.dim)

    def fn(p):
        return alg.bch(tau(-np.asarray(p, float)), p)

    return TauMap(fn, name=f"tilde({tau.name})")


def resolve_tau(alg: LieAlgebra, name: str) -> TauMap:
    if name == "e":
        return tau_e(alg.dim)
    if name == "id":
        return tau_id()
    if name == "symmetric":
        return symmetric_tau(alg)
    raise ValueError(f"unknown tau preset {name!r}")


# ---------------------------------------------------------------------------
# tau-Weyl system and coherent states
# ---------------------------------------------------------------------------

def weyl_tau(alg: LieAlgebra, tau: TauMap, p: PhasePoint, u: Field) -> Field:
    """W_tau(z, zeta) u; identical code path to the plain system for tau == e."""
    if tau.is_trivial:
        return weyl(alg, p, u)
    z, zeta = p.zv, p.zetav
    tz_inv = alg.inv(tau(z))
    zinv = alg.inv(z)

    def fn(x):
        phase_arg = alg.bch(tz_inv, x)
        return np.exp(1j * np.einsum("...i,i->...", phase_arg, zeta)) * u(alg.bch(zinv, x))

    return Field(fn, alg.dim, u.domain, u.interpolated)


def coherent_tau(alg: LieAlgebra, tau: TauMap, w: Window, p: PhasePoint) -> Field:
    """omega^tau_{z,zeta}(x) = e^{-i<log(tau(z)^{-1} z x)|zeta>} omega(zx)."""
    if tau.is_trivial:
        return weyl_adjoint(alg, p, w.field)
    z, zeta = p.zv, p.zetav
    tz_inv = alg.inv(tau(z))

    def fn(x):
        zx = alg.bch(z, x)
        phase_arg = alg.bch(tz_inv, zx)
        return np.exp(-1j * np.einsum("...i,i->...", phase_arg, zeta)) * w(zx)

    return Field(fn, alg.dim)


def wigner_tau(alg: LieAlgebra, tau: TauMap, u: Field, v: Field, g_grid: Grid,
               xi_grid: XiGrid) -> XiSamples:
    """<W_tau(z, zeta) u, v> on a XiGrid; the modulation base point now depends
    on z, so the phase matrix is built per z node.

    It stays a dense exp: the phase points log(tau(z)^{-1} y) are the y grid
    moved by a group product, not a tensor grid, so the axis-by-axis
    `transforms.dual_phase_grid` does not apply, and the sum runs over those
    points rather than over dual nodes as in `dual_phase_points`."""
    from .coherent import fourier_wigner

    if tau.is_trivial:
        return fourier_wigner(alg, u, v, g_grid, xi_grid)
    z_nodes, zeta_nodes = xi_grid.node_pairs()
    y = g_grid.nodes()
    vy = np.conjugate(v(y))
    vals = np.empty((len(z_nodes), len(zeta_nodes)), dtype=complex)
    for i, z in enumerate(z_nodes):
        uz = u(alg.bch(alg.inv(z), y)) * vy
        phase_arg = alg.bch(alg.inv(tau(z)), y)
        E = np.exp(1j * (phase_arg @ zeta_nodes.T))
        vals[i] = g_grid.weight * (uz @ E)
    return XiSamples(xi_grid, vals)


# ---------------------------------------------------------------------------
# tau quantizers
# ---------------------------------------------------------------------------

def op_quantize_tau(alg: LieAlgebra, symbol: XiSymbol, tau: TauMap,
                    grid: Grid) -> OperatorMatrix:
    """Op_tau(a): kernel K(x, y) = check2(tau(x y^{-1})^{-1} x, log(y^{-1} x)).

    Note the displayed phase uses log(y^{-1} x) where the untwisted
    quantizer uses log(x y^{-1}); on a non-Abelian group the tau == e kernel
    therefore differs from Op(a) by that argument inversion.
    """
    x = grid.nodes()
    V = alg.bch(-x[None, :, :], x[:, None, :])        # log(y^{-1} x), row x col y
    base = alg.bch(x[:, None, :], -x[None, :, :])     # x y^{-1}
    w = alg.bch(alg.inv(tau(base)), x[:, None, :])    # tau(xy^{-1})^{-1} x
    K = symbol.check2(w, V)
    return OperatorMatrix(grid, np.asarray(K, dtype=complex))


def berezin_tau(cfg: BerezinConfig, tau: TauMap, z_quadrature=None) -> OperatorMatrix:
    """Ber_tau(f): the coherent-kernel assembly with modulation base points
    moved to tau(z)^{-1} z x.  Delegates to the plain assembly for tau == e.

    Symbols constant in the dual variable give the same multiplication
    operator for every tau (the point mass in the fibre transform pins x = y,
    where the ordering phases cancel), and a phase-space point mass gives the
    tau-coherent projector.
    """
    from .symbols import DeltaSymbol, XOnlySymbol

    if tau.is_trivial or isinstance(cfg.symbol, XOnlySymbol):
        return berezin_matrix(cfg, z_quadrature)
    if isinstance(cfg.symbol, DeltaSymbol):
        state = coherent_tau(cfg.algebra, tau, cfg.window,
                             PhasePoint(cfg.symbol.z, cfg.symbol.zeta))
        op = OperatorMatrix.rank_one(cfg.g_grid, state)
        op.kernel *= cfg.symbol.mass
        op.meta["delta_symbol"] = True
        return op
    alg, window = cfg.algebra, cfg.window
    z_nodes, z_w = z_quadrature or cfg.z_quadrature()
    x = cfg.g_grid.nodes()

    def row(z):
        zx = alg.bch(z, x)
        return alg.bch(alg.inv(tau(z)), zx), window(zx)

    kernel = assemble_kernel(cfg.symbol, z_nodes, z_w, row)
    return OperatorMatrix(cfg.g_grid, kernel)


def covariance_residual_M(cfg: BerezinConfig, zeta) -> float:
    """Frobenius-relative residual of

        M_zeta* Ber_id(f) M_zeta = Ber_id(f(., . - zeta)).

    Conjugation by a modulation is exact at the kernel level (diagonal
    phases), so the residual reflects only the symbol-shift path.
    """
    zeta = np.asarray(zeta, float)
    tau = tau_id()
    base = berezin_tau(cfg, tau)
    x = cfg.g_grid.nodes()
    lam = x @ zeta
    lhs = np.exp(-1j * lam[:, None]) * base.kernel * np.exp(1j * lam[None, :])
    shifted = BerezinConfig(cfg.algebra, cfg.window, cfg.g_grid, cfg.xi_grid,
                            cfg.symbol.shift_xi(zeta))
    rhs = berezin_tau(shifted, tau).kernel
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs)) / scale
