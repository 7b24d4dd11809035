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
tau == id the opposite ordering L_z M_zeta.  It is a `coherent.WeylSystem`
whose phase points P(z, y) = log(tau(z)^{-1} y) are the only change
(`TauWeylSystem`): the shift, the coherent states, the Fourier-Wigner
transform and the Berezin quantizer are the plain routes run on this system,
and `tau_system` builds the plain system itself for tau == e, so that
reduction is bitwise by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import LieAlgebra
from .berezin import BerezinConfig, berezin_quantize
from .coherent import PhasePoint, Window, WeylSystem
from .fields import Field, XiSamples
from .grids import Grid, XiGrid
from .operators import OperatorMatrix
from .symbols import XiSymbol


@dataclass(frozen=True)
class TauMap:
    """A continuous parameter map G -> G; `name` tags the standard choices.

    ``scale`` is s when tau(x) = exp(s log x), linear in the chart, and None
    for any other map."""

    fn: Callable
    name: str = "custom"
    scale: float | None = None

    def __call__(self, points):
        return np.asarray(self.fn(np.asarray(points, float)))

    @property
    def is_trivial(self) -> bool:
        return self.name == "e"


def tau_e(n: int) -> TauMap:
    return TauMap(lambda p: np.zeros_like(p), name="e", scale=0.0)


def tau_id() -> TauMap:
    return TauMap(lambda p: p, name="id", scale=1.0)


def symmetric_tau(alg: LieAlgebra) -> TauMap:
    """tau(x) = exp(log(x)/2): the chart average of s -> exp(s log x).

    Fixed point of the adjoint involution on every nilpotent group.
    """
    return TauMap(lambda p: 0.5 * p, name="symmetric", scale=0.5)


def scaled_tau(s: float) -> TauMap:
    """tau(x) = exp(s log x); commutes with x, so the adjoint identity holds."""
    return TauMap(lambda p: s * p, name=f"scaled:{s}", scale=s)


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
# tau-Weyl system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauWeylSystem(WeylSystem):
    """W_tau: phase points P(z, y) = log(tau(z)^{-1} y), no dressing.

    For tau(x) = exp(s log x) and central c, tau(z + c) = tau(z) + s c, so
    P(z + c, y + c) = P(z, y) + (1 - s) c: the points shift with the centre.
    Any other map is not assumed to."""

    tau: TauMap
    moves_points = True

    @property
    def shifts_with_centre(self) -> bool:
        return self.tau.scale is not None

    def phase_points(self, z, y):
        return self.alg.bch(self.alg.inv(self.tau(z)), y)


def tau_system(alg: LieAlgebra, tau: TauMap) -> WeylSystem:
    """The tau-Weyl system; the plain system for tau == e."""
    return WeylSystem(alg) if tau.is_trivial else TauWeylSystem(alg, tau)


def weyl_tau(alg: LieAlgebra, tau: TauMap, p: PhasePoint, u: Field) -> Field:
    """W_tau(z, zeta) u."""
    return tau_system(alg, tau).shift(p, u)


def coherent_tau(alg: LieAlgebra, tau: TauMap, w: Window, p: PhasePoint) -> Field:
    """omega^tau_{z,zeta}(x) = e^{-i<log(tau(z)^{-1} z x)|zeta>} omega(zx)."""
    return tau_system(alg, tau).adjoint_shift(p, w.field)


def wigner_tau(alg: LieAlgebra, tau: TauMap, u: Field, v: Field, g_grid: Grid,
               xi_grid: XiGrid) -> XiSamples:
    """<W_tau(z, zeta) u, v> on a XiGrid (`WeylSystem.wigner`)."""
    return tau_system(alg, tau).wigner(u, v, g_grid, xi_grid)


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
    """Ber_tau(f): `berezin_quantize` on the tau-Weyl system."""
    return berezin_quantize(cfg, tau_system(cfg.algebra, tau), z_quadrature)


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
