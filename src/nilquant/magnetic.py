"""Magnetic translations, flux cocycles and magnetic Berezin quantization.

A magnetic field is a closed 2-form B = dA.  Points are joined by the chart
segments [x, y]_s = exp((1-s) log x + s log y); the circulation of the
potential along such a segment,

    Gamma^A[[x, y]] = integral_0^1 <log y - log x | A([x, y]_s)> ds,

is computed with a fixed 32-point Gauss-Legendre rule (exact for polynomial
potentials of degree < 64).  Left translations acquire the circulation phase

    [L^A_z u](x) = e^{i Gamma^A[[x, z^{-1}x]]} u(z^{-1} x)

and compose only up to the flux 2-cocycle: L^A_y L^A_z = Omega^B(y, z) L^A_{yz},
where Omega^B(y, z) multiplies by e^{i Gamma^B(x; y, z)}, the flux of B
through the triangle with corners x, y^{-1}x, z^{-1}y^{-1}x.  Segments are
straight in the chart, so that triangle is the flat 2-simplex on the corner
coordinates and Stokes' theorem against the boundary circulations is an exact
polynomial identity the suite checks at quadrature precision.

The magnetic Weyl system W^A(z,zeta) = M_zeta L^A_z is a `coherent.WeylSystem`
whose only change is the unit dressing G(y, z^{-1}y) = e^{i Gamma^A[[y, z^{-1}y]]}
(`MagneticWeylSystem`): the magnetic translations, coherent states,
Fourier-Wigner transform and Berezin quantizer are the plain routes run on
this system, and `magnetic_system` builds the plain system itself for A == 0,
so that reduction is bitwise by construction.  Changing gauge A -> A + d(psi)
conjugates the whole formalism by Mult(e^{i psi}), with the window rotating
along; the derivation is spelled out in `gauge_check`.
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

GL_ORDER = 32  # Gauss-Legendre points of every circulation and flux integral
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0  # the rule on [0, 1]


@dataclass(frozen=True)
class VectorPotential:
    """A 1-form on G in exponential coordinates: fn(points) -> covectors."""

    fn: Callable
    name: str = "custom"
    zero: bool = False

    def __call__(self, points):
        return np.asarray(self.fn(np.asarray(points, float)))

    @property
    def is_zero(self) -> bool:
        return self.zero

    def __add__(self, other: "VectorPotential") -> "VectorPotential":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return VectorPotential(lambda p: self(p) + other(p),
                               name=f"{self.name}+{other.name}")


def zero_potential(n: int) -> VectorPotential:
    return VectorPotential(lambda p: np.zeros_like(p), name="zero", zero=True)


def landau_potential(b: float) -> VectorPotential:
    """Symmetric-gauge potential on R^2: A(x) = (-b x2 / 2, b x1 / 2), dA = b dx1^dx2."""
    def fn(p):
        out = np.empty_like(p)
        out[..., 0] = -0.5 * b * p[..., 1]
        out[..., 1] = 0.5 * b * p[..., 0]
        return out
    return VectorPotential(fn, name=f"landau:{b}")


def linear3_potential(b: float) -> VectorPotential:
    """Constant 2-form b dx1^dx2 on a 3-dimensional group, symmetric gauge."""
    def fn(p):
        out = np.zeros_like(p)
        out[..., 0] = -0.5 * b * p[..., 1]
        out[..., 1] = 0.5 * b * p[..., 0]
        return out
    return VectorPotential(fn, name=f"linear3:{b}")


def potential_preset(name: str, n: int) -> VectorPotential:
    if not isinstance(name, str):
        raise ValueError(f"a potential preset is a name like 'landau:0.5', got {name!r}")
    kind, _, value = name.partition(":")
    if kind == "zero":
        return zero_potential(n)
    b = float(value) if value else 1.0
    if not np.isfinite(b):
        raise ValueError(f"potential strength must be finite, got {value!r}")
    if kind == "landau":
        if n != 2:
            raise ValueError("landau preset lives on a 2-dimensional group")
        return landau_potential(b)
    if kind == "linear3":
        if n != 3:
            raise ValueError("linear3 preset lives on a 3-dimensional group")
        return linear3_potential(b)
    raise ValueError(f"unknown potential preset {name!r}")


@dataclass(frozen=True)
class MagneticField:
    """A 2-form as an antisymmetric matrix map: fn(points) -> (..., n, n)."""

    fn: Callable
    name: str = "custom"

    def __call__(self, points):
        return np.asarray(self.fn(np.asarray(points, float)))

    @classmethod
    def constant(cls, matrix) -> "MagneticField":
        m = np.asarray(matrix, float)
        if not np.allclose(m, -m.T):
            raise ValueError("a 2-form matrix must be antisymmetric")
        return cls(lambda p: np.broadcast_to(m, p.shape[:-1] + m.shape), name="constant")

    @classmethod
    def from_potential(cls, A: VectorPotential, h: float = 1e-5) -> "MagneticField":
        """B = dA by central differences: B_ij = d_i A_j - d_j A_i."""
        def fn(p):
            p = np.asarray(p, float)
            n = p.shape[-1]
            jac = np.empty(p.shape[:-1] + (n, n))
            for i in range(n):
                dp = np.zeros(n)
                dp[i] = h
                jac[..., i, :] = (A(p + dp) - A(p - dp)) / (2.0 * h)
            return jac - np.swapaxes(jac, -1, -2)
        return cls(fn, name=f"d({A.name})")


# ---------------------------------------------------------------------------
# Segments, circulations, fluxes
# ---------------------------------------------------------------------------

def segment(x, y, s):
    """[x, y]_s = exp((1-s) log x + s log y): chart-straight interpolation.

    A scalar s gives one point; an array of parameters broadcasts to a stack
    of points along a new leading axis of s.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    s = np.asarray(s, float)[..., None]
    return x + s * (y - x)


def circulation(A: VectorPotential, x, y):
    """Gamma^A[[x, y]] by the fixed 32-point Gauss-Legendre rule (`GL_ORDER`),
    exact for polynomial A of degree < 64.

    Broadcasts over leading axes of x and y; antisymmetric under swapping.
    """
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    if A.is_zero:
        return np.zeros(x.shape[:-1])
    d = y - x
    pts = x[..., None, :] + _GL_NODES[:, None] * d[..., None, :]
    integrand = np.einsum("...i,...ki->...k", d, A(pts))
    return integrand @ _GL_WEIGHTS


def flux_triangle(B: MagneticField, p0, p1, p2) -> float:
    """Flux of B through the flat 2-simplex with the given corner coordinates.

    Oriented so that it matches the circulation of a primitive along the
    boundary loop p0 -> p1 -> p2 -> p0.
    """
    p0 = np.asarray(p0, float)
    u = np.asarray(p1, float) - p0
    v = np.asarray(p2, float) - p0
    t, w = _GL_NODES, _GL_WEIGHTS
    s_nodes = t[:, None]
    tp_nodes = t[None, :]
    pts = (p0[None, None, :] + s_nodes[..., None] * u[None, None, :]
           + (tp_nodes * (1.0 - s_nodes))[..., None] * v[None, None, :])
    vals = np.einsum("i,abij,j->ab", u, B(pts), v)
    jac = (1.0 - s_nodes) * np.ones_like(tp_nodes)
    return float(np.einsum("a,ab,b->", w, vals * jac, w))


def cocycle_flux(alg: LieAlgebra, B: MagneticField, x, y, z) -> float:
    """Gamma^B(x; y, z): flux through the triangle with corners
    x, y^{-1}x, z^{-1}y^{-1}x."""
    x = np.asarray(x, float)
    c1 = alg.bch(alg.inv(np.asarray(y, float)), x)
    c2 = alg.bch(alg.inv(np.asarray(z, float)), c1)
    return flux_triangle(B, x, c1, c2)


# ---------------------------------------------------------------------------
# Magnetic Weyl system and translations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagneticWeylSystem(WeylSystem):
    """W^A: plain phase points, dressing G(y, z^{-1}y) = e^{i Gamma^A[[y, z^{-1}y]]}."""

    A: VectorPotential
    dressed = True

    def dressing(self, y, back):
        return circulation(self.A, y, back)


def magnetic_system(alg: LieAlgebra, A: VectorPotential) -> WeylSystem:
    """The magnetic Weyl system; the plain system for A == 0."""
    return WeylSystem(alg) if A.is_zero else MagneticWeylSystem(alg, A)


def mag_translation(alg: LieAlgebra, A: VectorPotential, z, u: Field) -> Field:
    """[L^A_z u](x) = e^{i Gamma^A[[x, z^{-1}x]]} u(z^{-1}x), the shift W^A(z, 0)."""
    z = np.asarray(z, float)
    return magnetic_system(alg, A).shift(PhasePoint(z, np.zeros_like(z)), u)


def mag_weyl(alg: LieAlgebra, A: VectorPotential, p: PhasePoint, u: Field) -> Field:
    """W^A(z, zeta) = M_zeta L^A_z."""
    return magnetic_system(alg, A).shift(p, u)


def mag_coherent(alg: LieAlgebra, A: VectorPotential, w: Window, p: PhasePoint) -> Field:
    """omega^A_{z,zeta}(x) = e^{-i<log(zx)|zeta>} e^{-i Gamma^A[[zx, x]]} omega(zx)."""
    return magnetic_system(alg, A).adjoint_shift(p, w.field)


def mag_wigner(alg: LieAlgebra, A: VectorPotential, u: Field, v: Field,
               g_grid: Grid, xi_grid: XiGrid) -> XiSamples:
    """<W^A(z, zeta) u, v> on a XiGrid (`WeylSystem.wigner`)."""
    return magnetic_system(alg, A).wigner(u, v, g_grid, xi_grid)


def mag_berezin(cfg: BerezinConfig, A: VectorPotential, z_quadrature=None) -> OperatorMatrix:
    """Ber^A(f): `berezin_quantize` on the magnetic Weyl system."""
    return berezin_quantize(cfg, magnetic_system(cfg.algebra, A), z_quadrature)


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------

def cocycle_residual(alg: LieAlgebra, A: VectorPotential, u: Field, y, z,
                     points, B: MagneticField | None = None) -> float:
    """Pointwise residual of L^A_y L^A_z = e^{i Gamma^B(.; y, z)} L^A_{yz}."""
    B = B or MagneticField.from_potential(A)
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    points = np.asarray(points, float)
    lhs = mag_translation(alg, A, y, mag_translation(alg, A, z, u))(points)
    base = mag_translation(alg, A, alg.mul(y, z), u)(points)
    flux = np.array([cocycle_flux(alg, B, x, y, z) for x in points])
    rhs = np.exp(1j * flux) * base
    scale = float(np.max(np.abs(base))) or 1.0
    return float(np.max(np.abs(lhs - rhs))) / scale


def stokes_residual(alg: LieAlgebra, A: VectorPotential, x, y, z,
                    B: MagneticField | None = None) -> float:
    """Flux through the cocycle triangle vs the boundary circulation of A."""
    B = B or MagneticField.from_potential(A)
    x = np.asarray(x, float)
    c1 = alg.bch(alg.inv(np.asarray(y, float)), x)
    c2 = alg.bch(alg.inv(np.asarray(z, float)), c1)
    flux = flux_triangle(B, x, c1, c2)
    loop = (float(circulation(A, x, c1)) + float(circulation(A, c1, c2))
            + float(circulation(A, c2, x)))
    return abs(flux - loop)


def grad_potential(psi: Field, h: float = 1e-6, analytic_grad=None) -> VectorPotential:
    """d(psi) as a vector potential, by central differences unless supplied."""
    if analytic_grad is not None:
        return VectorPotential(analytic_grad, name="d(psi)")

    def fn(p):
        p = np.asarray(p, float)
        n = p.shape[-1]
        out = np.empty(p.shape, dtype=float)
        for i in range(n):
            dp = np.zeros(n)
            dp[i] = h
            out[..., i] = np.real(psi(p + dp) - psi(p - dp)) / (2.0 * h)
        return out

    return VectorPotential(fn, name="d(psi)")


def gauge_check(cfg: BerezinConfig, A: VectorPotential, psi: Field, z,
                points, analytic_grad=None) -> dict:
    """Both gauge-covariance identities for A -> A + d(psi).

    Translations: the circulation of d(psi) along a segment telescopes to the
    endpoint difference, so

        L^{A+dpsi}_z = Mult(e^{-i psi}) L^A_z Mult(e^{i psi})        (exact).

    Berezin: each magnetic coherent state rotates as omega^{A+dpsi}_Z =
    e^{-i psi} (coherent state of the window e^{i psi} omega), hence

        Ber^{A+dpsi}_omega(f) = Mult(e^{-i psi}) Ber^A_{omega~}(f) Mult(e^{i psi}),

    with omega~ = e^{i psi} omega (still unit norm).  Returns both residuals;
    `gauge_translation_residual` and `gauge_berezin_residual` compute them
    one at a time.
    """
    return {"translation_residual": gauge_translation_residual(
                cfg, A, psi, z, points, analytic_grad),
            "berezin_residual": gauge_berezin_residual(cfg, A, psi, analytic_grad)}


def gauge_translation_residual(cfg: BerezinConfig, A: VectorPotential, psi: Field, z,
                               points, analytic_grad=None) -> float:
    """Max-relative residual of the translation identity in `gauge_check`,
    applied to the window at `points`."""
    alg = cfg.algebra
    A2 = A + grad_potential(psi, analytic_grad=analytic_grad)
    u = cfg.window.field
    points = np.asarray(points, float)
    lhs = mag_translation(alg, A2, z, u)(points)
    inner_field = Field(lambda p: np.exp(1j * psi(p)) * u(p), alg.dim)
    mid = mag_translation(alg, A, z, inner_field)
    rhs = np.exp(-1j * psi(points)) * mid(points)
    scale = float(np.max(np.abs(rhs))) or 1.0
    return float(np.max(np.abs(lhs - rhs))) / scale


def gauge_berezin_residual(cfg: BerezinConfig, A: VectorPotential, psi: Field,
                           analytic_grad=None) -> float:
    """Frobenius-relative residual of the Berezin identity in `gauge_check`."""
    alg = cfg.algebra
    A2 = A + grad_potential(psi, analytic_grad=analytic_grad)
    K_lhs = mag_berezin(cfg, A2).kernel
    rotated = Window.normalized(Field(lambda p: np.exp(1j * psi(p)) * cfg.window(p),
                                      alg.dim), cfg.window.grid)
    cfg_rot = BerezinConfig(alg, rotated, cfg.g_grid, cfg.xi_grid, cfg.symbol)
    K_mid = mag_berezin(cfg_rot, A).kernel
    pv = psi(cfg.g_grid.nodes())
    K_rhs = np.exp(-1j * pv[:, None]) * K_mid * np.exp(1j * pv[None, :])
    scale = max(np.linalg.norm(K_lhs), np.linalg.norm(K_rhs), 1e-300)
    return float(np.linalg.norm(K_lhs - K_rhs)) / scale
