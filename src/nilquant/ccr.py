"""Basic representations on L2(G) and their commutation structure.

Modulations M_zeta, left/right translations L_z and R_z, and their
infinitesimal generators:

    [M_zeta u](x) = exp(i <log x | zeta>) u(x)
    [L_z u](x)    = u(z^{-1} x)
    [R_z u](x)    = u(x z)
    [D^L_Z u](x)  = d/dt|_0 u(exp(tZ) x),   [D^R_Z u](x) = d/dt|_0 u(x exp(tZ))

Generators act on analytic fields by central finite differences only — no
differentiation matrices, so there are no box-boundary artifacts.

Sign note: with the bracket convention [e_i,e_j] = sum c_ijk e_k that also
defines the BCH product, the left generators satisfy
[D^L_Y, D^L_Z] = D^L_{[Z,Y]} (the map Z -> D^L_Z is an anti-homomorphism,
being induced by a left action), while the right ones satisfy
[D^R_Y, D^R_Z] = D^R_{[Y,Z]}.  `verify_ccr` checks the orientations that
hold; see the repository notes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra
from .fields import Field
from .grids import Grid
from .report import CheckResult, Timer

DEFAULT_FD_STEP = 1e-4


@dataclass(frozen=True)
class CcrContext:
    algebra: LieAlgebra
    grid: Grid

    def __post_init__(self):
        if self.algebra.dim != self.grid.n:
            raise ValueError("algebra and grid dimension differ")


def lambda_field(alg: LieAlgebra, zeta) -> Field:
    """lambda_zeta(x) = <log x | zeta>."""
    zeta = np.asarray(zeta, float)
    alg.check_dim(zeta)
    return Field(lambda p: np.einsum("...i,i->...", p, zeta), alg.dim)


def eps_field(alg: LieAlgebra, zeta) -> Field:
    """eps_zeta(x) = exp(i <log x | zeta>), the unit-modulus multiplier."""
    zeta = np.asarray(zeta, float)
    alg.check_dim(zeta)
    return Field(lambda p: np.exp(1j * np.einsum("...i,i->...", p, zeta)), alg.dim)


def mult_M(alg: LieAlgebra, zeta, u: Field) -> Field:
    """Modulation M_zeta u = eps_zeta * u; unitary, M_eta M_zeta = M_{eta+zeta}."""
    return eps_field(alg, zeta) * u


def trans_L(alg: LieAlgebra, z, u: Field) -> Field:
    """Left translation (L_z u)(x) = u(z^{-1} x)."""
    zinv = alg.inv(np.asarray(z, float))
    return Field(lambda p: u(alg.bch(zinv, p)), alg.dim, u.domain, u.interpolated)


def trans_R(alg: LieAlgebra, z, u: Field) -> Field:
    """Right translation (R_z u)(x) = u(x z)."""
    z = np.asarray(z, float)
    alg.check_dim(z)
    return Field(lambda p: u(alg.bch(p, z)), alg.dim, u.domain, u.interpolated)


def _generator(alg: LieAlgebra, Z, u: Field, h: float, richardson: bool, move) -> Field:
    """d/dt|_0 u(move(tZ, x)) by a central difference of step h (O(h^2)), or
    with ``richardson`` the h and h/2 stencils combined to O(h^4)."""
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    Z = np.asarray(Z, float)
    alg.check_dim(Z)

    def central(step):
        def fn(p):
            return (u(move(step * Z, p)) - u(move(-step * Z, p))) / (2.0 * step)
        return fn

    if not richardson:
        return Field(central(h), alg.dim, u.domain, u.interpolated)
    coarse, fine = central(h), central(h / 2.0)
    return Field(lambda p: (4.0 * fine(p) - coarse(p)) / 3.0, alg.dim, u.domain,
                 u.interpolated)


def deriv_L(alg: LieAlgebra, Z, u: Field, h: float = DEFAULT_FD_STEP,
            richardson: bool = False) -> Field:
    """Left generator D^L_Z by a central difference of step h (O(h^2)).

    With ``richardson`` the h and h/2 stencils are combined to O(h^4).
    """
    return _generator(alg, Z, u, h, richardson, alg.bch)


def deriv_R(alg: LieAlgebra, Z, u: Field, h: float = DEFAULT_FD_STEP,
            richardson: bool = False) -> Field:
    """Right generator D^R_Z by a central difference of step h."""
    return _generator(alg, Z, u, h, richardson, lambda X, p: alg.bch(p, X))


# ---------------------------------------------------------------------------
# Relation suite
# ---------------------------------------------------------------------------

def _max_at(points, f1, f2, scale=1.0):
    return float(np.max(np.abs(f1(points) - f2(points)))) / scale


def verify_ccr(ctx: CcrContext, samples: int = 4, seed: int = 7,
               h: float = DEFAULT_FD_STEP, tol_scale: float = 1.0) -> list[CheckResult]:
    """Residuals of the multiplication and commutation relations.

    Checks, on seeded Gaussian fields and sample points:
      mult_L        L_y L_z = L_{yz}
      mult_M        M_eta M_zeta = M_{eta+zeta}
      mult_mixed    L_z M_zeta = exp(i<log(z^{-1}.) - log(.) | zeta>) M_zeta L_z
      bracket_left  [D^L_Y, D^L_Z] = D^L_{[Z,Y]}
      bracket_right [D^R_Y, D^R_Z] = D^R_{[Y,Z]}
      d_lambda      [D^L_Z, Lambda_zeta] = Mult(D^L_Z lambda_zeta)
    """
    from .fields import random_gaussian

    alg, grid = ctx.algebra, ctx.grid
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(24, alg.dim))
    results = []

    def check(name, residual, tol, timer, **detail):
        results.append(CheckResult(name, residual, tol * tol_scale, timer.seconds,
                                   detail=detail))

    with Timer() as t:
        r = 0.0
        for _ in range(samples):
            u = random_gaussian(rng, alg.dim)
            y = rng.uniform(-1, 1, alg.dim)
            z = rng.uniform(-1, 1, alg.dim)
            lhs = trans_L(alg, y, trans_L(alg, z, u))
            rhs = trans_L(alg, alg.mul(y, z), u)
            r = max(r, _max_at(pts, lhs, rhs))
    check("mult_L", r, 1e-10, t)

    with Timer() as t:
        r = 0.0
        for _ in range(samples):
            u = random_gaussian(rng, alg.dim)
            eta = rng.uniform(-1, 1, alg.dim)
            zeta = rng.uniform(-1, 1, alg.dim)
            lhs = mult_M(alg, eta, mult_M(alg, zeta, u))
            rhs = mult_M(alg, eta + zeta, u)
            r = max(r, _max_at(pts, lhs, rhs))
    check("mult_M", r, 1e-10, t)

    with Timer() as t:
        r = 0.0
        for _ in range(samples):
            u = random_gaussian(rng, alg.dim)
            z = rng.uniform(-1, 1, alg.dim)
            zeta = rng.uniform(-1, 1, alg.dim)
            lhs = trans_L(alg, z, mult_M(alg, zeta, u))
            zinv = alg.inv(z)

            def phase(p, zinv=zinv, zeta=zeta):
                return np.exp(1j * np.einsum("...i,i->...", alg.bch(zinv, p) - p, zeta))

            base = mult_M(alg, zeta, trans_L(alg, z, u))
            rhs = Field(lambda p, b=base, ph=phase: ph(p) * b(p), alg.dim)
            r = max(r, _max_at(pts, lhs, rhs))
    check("mult_mixed", r, 1e-10, t)

    with Timer() as t:
        r = 0.0
        for _ in range(samples):
            u = random_gaussian(rng, alg.dim)
            Y = rng.uniform(-1, 1, alg.dim)
            Z = rng.uniform(-1, 1, alg.dim)
            comm = Field(lambda p, u=u, Y=Y, Z=Z:
                         deriv_L(alg, Y, deriv_L(alg, Z, u, h), h)(p)
                         - deriv_L(alg, Z, deriv_L(alg, Y, u, h), h)(p), alg.dim)
            rhs = deriv_L(alg, alg.bracket(Z, Y), u, h)
            r = max(r, _max_at(pts, comm, rhs))
    check("bracket_left", r, 1e-5, t, orientation="[D^L_Y,D^L_Z] = D^L_[Z,Y]")

    with Timer() as t:
        r = 0.0
        for _ in range(samples):
            u = random_gaussian(rng, alg.dim)
            Y = rng.uniform(-1, 1, alg.dim)
            Z = rng.uniform(-1, 1, alg.dim)
            comm = Field(lambda p, u=u, Y=Y, Z=Z:
                         deriv_R(alg, Y, deriv_R(alg, Z, u, h), h)(p)
                         - deriv_R(alg, Z, deriv_R(alg, Y, u, h), h)(p), alg.dim)
            rhs = deriv_R(alg, alg.bracket(Y, Z), u, h)
            r = max(r, _max_at(pts, comm, rhs))
    check("bracket_right", r, 1e-5, t, orientation="[D^R_Y,D^R_Z] = D^R_[Y,Z]")

    with Timer() as t:
        r = 0.0
        closed_form = alg.step <= 2
        for _ in range(samples):
            u = random_gaussian(rng, alg.dim)
            Z = rng.uniform(-1, 1, alg.dim)
            zeta = rng.uniform(-1, 1, alg.dim)
            lam = lambda_field(alg, zeta)
            comm = Field(lambda p, u=u, Z=Z, lam=lam:
                         deriv_L(alg, Z, lam * u, h)(p) - lam(p) * deriv_L(alg, Z, u, h)(p),
                         alg.dim)

            def mult_dlam(p, u=u, Z=Z, zeta=zeta):
                flat = p.reshape(-1, alg.dim)
                vals = np.array([alg.dlambda_left(Z, zeta, x, h=None if closed_form else h)
                                 for x in flat])
                return vals.reshape(p.shape[:-1]) * u(p)

            r = max(r, _max_at(pts, comm, Field(mult_dlam, alg.dim)))
    check("d_lambda", r, 1e-6 if closed_form else 1e-5, t, closed_form=closed_form)

    return results
