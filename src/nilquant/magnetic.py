"""Magnetic translations, flux cocycles and magnetic Berezin quantization.

A magnetic field is a closed 2-form B = dA.  Points are joined by the chart
segments [x, y]_s = exp((1-s) log x + s log y); the circulation of the
potential along such a segment,

    Gamma^A[[x, y]] = integral_0^1 <log y - log x | A([x, y]_s)> ds,

is computed with Gauss-Legendre quadrature (exact for polynomial potentials
of degree < 2M).  Left translations acquire the circulation phase

    [L^A_z u](x) = e^{i Gamma^A[[x, z^{-1}x]]} u(z^{-1} x)

and compose only up to the flux 2-cocycle: L^A_y L^A_z = Omega^B(y, z) L^A_{yz},
where Omega^B(y, z) multiplies by e^{i Gamma^B(x; y, z)}, the flux of B
through the triangle with corners x, y^{-1}x, z^{-1}y^{-1}x.  Segments are
straight in the chart, so that triangle is the flat 2-simplex on the corner
coordinates and Stokes' theorem against the boundary circulations is an exact
polynomial identity the suite checks at quadrature precision.

The magnetic Weyl system W^A(z,zeta) = M_zeta L^A_z generates magnetic
coherent states and a magnetic Berezin quantization whose kernel carries the
two circulation phases; everything reduces to the plain formalism along the
same code path when A == 0.  Changing gauge A -> A + d(psi) conjugates the
whole formalism by Mult(e^{i psi}), with the window rotating along; the
derivation is spelled out in `gauge_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .algebra import LieAlgebra
from .berezin import BerezinConfig, assemble_kernel, berezin_matrix
from .coherent import PhasePoint, Window
from .fields import Field, XiSamples
from .grids import Grid, XiGrid
from .operators import OperatorMatrix
from .transforms import dual_phase_grid

DEFAULT_GL_ORDER = 32


@lru_cache(maxsize=None)
def _gauss_legendre_01(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


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
    kind, _, value = name.partition(":")
    if kind == "zero":
        return zero_potential(n)
    b = float(value) if value else 1.0
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


def circulation(A: VectorPotential, x, y, order: int = DEFAULT_GL_ORDER):
    """Gamma^A[[x, y]]; exact for polynomial A of degree < 2 * order.

    Broadcasts over leading axes of x and y; antisymmetric under swapping.
    """
    if A.is_zero:
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        return np.zeros(x.shape[:-1])
    t, w = _gauss_legendre_01(order)
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    d = y - x
    pts = x[..., None, :] + t[:, None] * d[..., None, :]
    integrand = np.einsum("...i,...ki->...k", d, A(pts))
    return integrand @ w


def flux_triangle(B: MagneticField, p0, p1, p2, order: int = DEFAULT_GL_ORDER) -> float:
    """Flux of B through the flat 2-simplex with the given corner coordinates.

    Oriented so that it matches the circulation of a primitive along the
    boundary loop p0 -> p1 -> p2 -> p0.
    """
    p0 = np.asarray(p0, float)
    u = np.asarray(p1, float) - p0
    v = np.asarray(p2, float) - p0
    t, w = _gauss_legendre_01(order)
    s_nodes = t[:, None]
    tp_nodes = t[None, :]
    pts = (p0[None, None, :] + s_nodes[..., None] * u[None, None, :]
           + (tp_nodes * (1.0 - s_nodes))[..., None] * v[None, None, :])
    vals = np.einsum("i,abij,j->ab", u, B(pts), v)
    jac = (1.0 - s_nodes) * np.ones_like(tp_nodes)
    return float(np.einsum("a,ab,b->", w, vals * jac, w))


def cocycle_flux(alg: LieAlgebra, B: MagneticField, x, y, z,
                 order: int = DEFAULT_GL_ORDER) -> float:
    """Gamma^B(x; y, z): flux through the triangle with corners
    x, y^{-1}x, z^{-1}y^{-1}x."""
    x = np.asarray(x, float)
    c1 = alg.bch(alg.inv(np.asarray(y, float)), x)
    c2 = alg.bch(alg.inv(np.asarray(z, float)), c1)
    return flux_triangle(B, x, c1, c2, order)


# ---------------------------------------------------------------------------
# Magnetic translations and the Weyl system
# ---------------------------------------------------------------------------

def mag_translation(alg: LieAlgebra, A: VectorPotential, z, u: Field,
                    order: int = DEFAULT_GL_ORDER) -> Field:
    """[L^A_z u](x) = e^{i Gamma^A[[x, z^{-1}x]]} u(z^{-1}x); plain translation
    along the same path when A == 0."""
    from .ccr import trans_L

    if A.is_zero:
        return trans_L(alg, z, u)
    zinv = alg.inv(np.asarray(z, float))

    def fn(x):
        shifted = alg.bch(zinv, x)
        return np.exp(1j * circulation(A, x, shifted, order)) * u(shifted)

    return Field(fn, alg.dim, u.domain, u.interpolated)


def mag_weyl(alg: LieAlgebra, A: VectorPotential, p: PhasePoint, u: Field,
             order: int = DEFAULT_GL_ORDER) -> Field:
    """W^A(z, zeta) = M_zeta L^A_z."""
    from .coherent import weyl

    if A.is_zero:
        return weyl(alg, p, u)
    zeta = p.zetav
    base = mag_translation(alg, A, p.zv, u, order)
    return Field(lambda x: np.exp(1j * np.einsum("...i,i->...", x, zeta)) * base(x),
                 alg.dim, u.domain, u.interpolated)


def mag_coherent(alg: LieAlgebra, A: VectorPotential, w: Window, p: PhasePoint,
                 order: int = DEFAULT_GL_ORDER) -> Field:
    """omega^A_{z,zeta}(x) = e^{-i<log(zx)|zeta>} e^{-i Gamma^A[[zx, x]]} omega(zx)."""
    from .coherent import weyl_adjoint

    if A.is_zero:
        return weyl_adjoint(alg, p, w.field)
    z, zeta = p.zv, p.zetav

    def fn(x):
        zx = alg.bch(z, x)
        phase = (-np.einsum("...i,i->...", zx, zeta)
                 - circulation(A, zx, x, order))
        return np.exp(1j * phase) * w(zx)

    return Field(fn, alg.dim)


def mag_wigner(alg: LieAlgebra, A: VectorPotential, u: Field, v: Field,
               g_grid: Grid, xi_grid: XiGrid, order: int = DEFAULT_GL_ORDER) -> XiSamples:
    """<W^A(z, zeta) u, v> on a XiGrid: the plain factored route with the
    circulation phase folded into the integrand."""
    from .coherent import fourier_wigner

    if A.is_zero:
        return fourier_wigner(alg, u, v, g_grid, xi_grid)
    z_nodes, _ = xi_grid.node_pairs()
    y = g_grid.nodes()
    shifted = alg.bch(alg.inv(z_nodes)[:, None, :], y[None, :, :])
    circ = np.empty(shifted.shape[:-1])
    for i in range(len(z_nodes)):
        circ[i] = circulation(A, y, shifted[i], order)
    g_zy = u(shifted) * np.conjugate(v(y))[None, :] * np.exp(1j * circ)
    return XiSamples(xi_grid, g_grid.weight * dual_phase_grid(g_zy, g_grid,
                                                             xi_grid.dual_grid, 1))


def mag_berezin(cfg: BerezinConfig, A: VectorPotential,
                order: int = DEFAULT_GL_ORDER, z_quadrature=None) -> OperatorMatrix:
    """Ber^A(f): coherent-kernel assembly with circulation-dressed windows.

    The kernel integrand is f-hat2(z, log(zx)-log(zy)) g(z,x) conj(g(z,y))
    with g(z, x) = omega(zx) e^{-i Gamma^A[[zx, x]]}; for f >= 0 it stays a
    positive combination of rank-one projectors.  A == 0 delegates; a symbol
    constant in the dual variable gives the plain multiplier (the circulation
    phases cancel in |.|^2), and a point mass the magnetic coherent projector.
    """
    from .symbols import DeltaSymbol, XOnlySymbol

    if A.is_zero or isinstance(cfg.symbol, XOnlySymbol):
        return berezin_matrix(cfg, z_quadrature)
    if isinstance(cfg.symbol, DeltaSymbol):
        state = mag_coherent(cfg.algebra, A, cfg.window,
                             PhasePoint(cfg.symbol.z, cfg.symbol.zeta), order)
        op = OperatorMatrix.rank_one(cfg.g_grid, state)
        op.kernel *= cfg.symbol.mass
        op.meta["delta_symbol"] = True
        return op
    alg, window = cfg.algebra, cfg.window
    z_nodes, z_w = z_quadrature or cfg.z_quadrature()
    x = cfg.g_grid.nodes()

    def row(z):
        zx = alg.bch(z, x)
        g = window(zx) * np.exp(-1j * circulation(A, zx, x, order))
        return zx, g

    kernel = assemble_kernel(cfg.symbol, z_nodes, z_w, row)
    return OperatorMatrix(cfg.g_grid, kernel)


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------

def cocycle_residual(alg: LieAlgebra, A: VectorPotential, u: Field, y, z,
                     points, B: MagneticField | None = None,
                     order: int = DEFAULT_GL_ORDER) -> float:
    """Pointwise residual of L^A_y L^A_z = e^{i Gamma^B(.; y, z)} L^A_{yz}."""
    B = B or MagneticField.from_potential(A)
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    points = np.asarray(points, float)
    lhs = mag_translation(alg, A, y, mag_translation(alg, A, z, u, order), order)(points)
    base = mag_translation(alg, A, alg.mul(y, z), u, order)(points)
    flux = np.array([cocycle_flux(alg, B, x, y, z, order) for x in points])
    rhs = np.exp(1j * flux) * base
    scale = float(np.max(np.abs(base))) or 1.0
    return float(np.max(np.abs(lhs - rhs))) / scale


def stokes_residual(alg: LieAlgebra, A: VectorPotential, x, y, z,
                    B: MagneticField | None = None,
                    order: int = DEFAULT_GL_ORDER) -> float:
    """Flux through the cocycle triangle vs the boundary circulation of A."""
    B = B or MagneticField.from_potential(A)
    x = np.asarray(x, float)
    c1 = alg.bch(alg.inv(np.asarray(y, float)), x)
    c2 = alg.bch(alg.inv(np.asarray(z, float)), c1)
    flux = flux_triangle(B, x, c1, c2, order)
    loop = (float(circulation(A, x, c1, order)) + float(circulation(A, c1, c2, order))
            + float(circulation(A, c2, x, order)))
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
                points, analytic_grad=None, order: int = DEFAULT_GL_ORDER) -> dict:
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
                cfg, A, psi, z, points, analytic_grad, order),
            "berezin_residual": gauge_berezin_residual(cfg, A, psi, analytic_grad, order)}


def gauge_translation_residual(cfg: BerezinConfig, A: VectorPotential, psi: Field, z,
                               points, analytic_grad=None,
                               order: int = DEFAULT_GL_ORDER) -> float:
    """Max-relative residual of the translation identity in `gauge_check`,
    applied to the window at `points`."""
    alg = cfg.algebra
    A2 = A + grad_potential(psi, analytic_grad=analytic_grad)
    u = cfg.window.field
    points = np.asarray(points, float)
    lhs = mag_translation(alg, A2, z, u, order)(points)
    inner_field = Field(lambda p: np.exp(1j * psi(p)) * u(p), alg.dim)
    mid = mag_translation(alg, A, z, inner_field, order)
    rhs = np.exp(-1j * psi(points)) * mid(points)
    scale = float(np.max(np.abs(rhs))) or 1.0
    return float(np.max(np.abs(lhs - rhs))) / scale


def gauge_berezin_residual(cfg: BerezinConfig, A: VectorPotential, psi: Field,
                           analytic_grad=None, order: int = DEFAULT_GL_ORDER) -> float:
    """Frobenius-relative residual of the Berezin identity in `gauge_check`."""
    alg = cfg.algebra
    A2 = A + grad_potential(psi, analytic_grad=analytic_grad)
    K_lhs = mag_berezin(cfg, A2, order).kernel
    rotated = Window.normalized(Field(lambda p: np.exp(1j * psi(p)) * cfg.window(p),
                                      alg.dim), cfg.window.grid)
    cfg_rot = BerezinConfig(alg, rotated, cfg.g_grid, cfg.xi_grid, cfg.symbol)
    K_mid = mag_berezin(cfg_rot, A, order).kernel
    pv = psi(cfg.g_grid.nodes())
    K_rhs = np.exp(-1j * pv[:, None]) * K_mid * np.exp(1j * pv[None, :])
    scale = max(np.linalg.norm(K_lhs), np.linalg.norm(K_rhs), 1e-300)
    return float(np.linalg.norm(K_lhs - K_rhs)) / scale
