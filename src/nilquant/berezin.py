"""Berezin (Toeplitz / anti-Wick) quantization.

The operator attached to a symbol f and a normalized window omega is the
phase-space average of coherent-state projectors,

    Ber(f) = integral f(Z) |omega_Z><omega_Z| dZ,

taken weakly: <Ber(f) u, v> = integral f(Z) FW[u,omega](Z) conj(FW[v,omega](Z)) dZ.

Its integral kernel is assembled by reducing the fibre integral over the dual
variable in closed form: with hat2 the partial transform of f,

    K(x, y) = integral_G hat2(z, log(zx) - log(zy)) omega(zx) conj(omega(zy)) dz,

so only the z-quadrature is numerical.  For Gaussian-class symbols the
transform exponent at V = log(zx) - log(zy) is a row term plus a column term
minus a real cross term, so each z-node costs one real matrix exp and a
complex outer scaling by unit phase vectors (see `assemble_kernel`).

For fixed z and nonnegative f the (x, y) matrix of the integrand is positive
semidefinite, hence the assembled kernel is PSD up to roundoff whenever
f >= 0 — positivity is inherited structurally, not by tolerance.

The tau-ordered and magnetic quantizations use the same assembly with their
Weyl system's phase points in place of log(zx) and its dressing on the
window (`berezin_quantize`; `coherent.WeylSystem`).  Point masses map
straight to projectors, and symbols constant in the dual variable map to
multiplication operators; neither is pushed through a sampled delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra
from .coherent import Window, PhasePoint, WeylSystem, bargmann, coherent_state, \
    fourier_wigner, fourier_wigner_at
from .fields import Field, sample_xi
from .grids import Grid, XiGrid
from .operators import OperatorMatrix
from .symbols import DeltaSymbol, PhaseSymbol, SymbolError, XOnlySymbol, XiSymbol


@dataclass
class BerezinConfig:
    """Everything a quantization run needs: group, window, grids, symbol."""

    algebra: LieAlgebra
    window: Window
    g_grid: Grid
    xi_grid: XiGrid
    symbol: XiSymbol

    def __post_init__(self):
        n = self.algebra.dim
        if self.g_grid.n != n or self.xi_grid.n != n:
            raise ValueError("grid dimensions do not match the algebra")

    def z_quadrature(self):
        g = self.xi_grid.g_grid
        return g.nodes(), g.weight


# ---------------------------------------------------------------------------
# Weak form
# ---------------------------------------------------------------------------

def berezin_weak(cfg: BerezinConfig, u: Field, v: Field) -> complex:
    """<Ber(f) u, v> by phase-space quadrature of f FW[u,w] conj(FW[v,w])."""
    if isinstance(cfg.symbol, DeltaSymbol):
        p = PhasePoint(cfg.symbol.z, cfg.symbol.zeta)
        a = fourier_wigner_at(cfg.algebra, u, cfg.window.field, cfg.g_grid, p)
        b = fourier_wigner_at(cfg.algebra, v, cfg.window.field, cfg.g_grid, p)
        return cfg.symbol.mass * a * np.conjugate(b)
    wu = fourier_wigner(cfg.algebra, u, cfg.window.field, cfg.g_grid, cfg.xi_grid)
    wv = fourier_wigner(cfg.algebra, v, cfg.window.field, cfg.g_grid, cfg.xi_grid)
    fvals = sample_xi(cfg.symbol, cfg.xi_grid).values
    return complex(cfg.xi_grid.weight
                   * np.sum(fvals * wu.values * np.conjugate(wv.values)))


# ---------------------------------------------------------------------------
# Kernel assembly
# ---------------------------------------------------------------------------

def assemble_kernel(symbol: XiSymbol, z_nodes: np.ndarray, z_weight: float,
                    row_data, col_data=None) -> np.ndarray:
    """K[i,j] = z_weight * sum_z hat2(z, P_z[i] - Q_z[j]) G_z[i] conj(H_z[j]).

    ``row_data(z) -> (P, G)`` supplies, for one quadrature node z, the
    transformed points P (m, n) and the scalar factors G (m,) attached to the
    row argument; ``col_data`` likewise for columns (defaults to the rows).
    This one loop serves the plain, ordering-twisted and magnetic variants.

    The symbol supplies its transform exponent in row + col - cross form
    (``hat2_pair_exponent``); the window factors are folded into the row and
    column vectors through their logs.  The cross term is real, so each entry
    splits as

        exp(Re row_i + Re col_j - cross_ij) * e^{i Im row_i} * e^{i Im col_j}:

    per node one real m x m exp, two length-m unit phase vectors (the
    prefactor rides on the row one) and one complex outer scaling into the
    accumulator.  The real matrix is exactly the real part of the full
    complex exponent, so it overflows and underflows where that would; a zero
    window value (log 0 = -inf) gives a zero entry.
    """
    K = rexp = term = None
    for z in z_nodes:
        P, G = row_data(z)
        Q, H = (P, G) if col_data is None else col_data(z)
        pref, row, col, cross = symbol.hat2_pair_exponent(z, P, Q)
        with np.errstate(divide="ignore"):
            row = row + np.log(np.asarray(G, dtype=complex))
            col = col + np.conjugate(np.log(np.asarray(H, dtype=complex)))
        if K is None:
            rexp = np.empty(cross.shape)
            term = np.empty(cross.shape, dtype=complex)
            K = np.zeros(cross.shape, dtype=complex)
        np.subtract(row.real[:, None], cross, out=rexp)
        rexp += col.real[None, :]
        np.exp(rexp, out=rexp)
        np.multiply(rexp, (pref * np.exp(1j * row.imag))[:, None], out=term)
        term *= np.exp(1j * col.imag)[None, :]
        K += term
    K *= z_weight
    return K


def _kernel_row(system: WeylSystem, window: Window, targets: np.ndarray):
    """row(z) -> (P(z, zx), omega(zx) conj(G(zx, x))) at the targets x: the
    phase points and dressed window values of the coherent states omega_z."""
    alg = system.alg

    def row(z):
        zx = alg.bch(z, targets)
        g = window(zx)
        if system.dressed:
            g = g * np.exp(-1j * system.dressing(zx, targets))
        return system.phase_points(z, zx), g
    return row


def berezin_kernel_points(cfg: BerezinConfig, x_points, y_points=None,
                          z_quadrature=None) -> np.ndarray:
    """Kernel of Ber(f) at arbitrary analytic points (no interpolation)."""
    plain = WeylSystem(cfg.algebra)
    x_points = np.asarray(x_points, float)
    z_nodes, z_w = z_quadrature or cfg.z_quadrature()
    row = _kernel_row(plain, cfg.window, x_points)
    col = None
    if y_points is not None and y_points is not x_points:
        col = _kernel_row(plain, cfg.window, np.asarray(y_points, float))
    return assemble_kernel(cfg.symbol, z_nodes, z_w, row, col)


def multiplier_field(alg: LieAlgebra, window: Window, phi: Field,
                     z_grid: Grid) -> Field:
    """The multiplier of Ber(phi (x) 1): m(x) = integral phi(z) |omega(zx)|^2 dz."""
    z_nodes = z_grid.nodes()
    phi_vals = phi(z_nodes)

    def fn(x):
        flat = x.reshape(-1, x.shape[-1])
        acc = np.zeros(len(flat), dtype=complex)
        for z, pv in zip(z_nodes, phi_vals):
            acc += pv * np.abs(window(alg.bch(z, flat))) ** 2
        return (z_grid.weight * acc).reshape(x.shape[:-1])

    return Field(fn, alg.dim)


def berezin_quantize(cfg: BerezinConfig, system: WeylSystem,
                     z_quadrature=None) -> OperatorMatrix:
    """Ber(f) of a Weyl system, as kernel samples on cfg.g_grid.

    The kernel integrand is hat2(z, P(z,zx) - P(z,zy)) g(z,x) conj(g(z,y))
    with g(z, x) = omega(zx) conj(G(zx, x)); for f >= 0 it stays a positive
    combination of rank-one projectors.  Special paths, the same for every
    system: a point mass returns the rank-one projector onto the system's
    coherent state at its point; a symbol constant in the dual variable
    returns the multiplication operator by its Berezin multiplier (the point
    mass in the fibre transform pins x = y, where the phases and dressings
    cancel); the pure Weyl phase is rejected.
    """
    symbol = cfg.symbol
    if isinstance(symbol, DeltaSymbol):
        p = PhasePoint(symbol.z, symbol.zeta)
        op = OperatorMatrix.rank_one(cfg.g_grid, system.adjoint_shift(p, cfg.window.field))
        op.kernel = op.kernel * symbol.mass
        op.meta["delta_symbol"] = True
        return op
    if isinstance(symbol, XOnlySymbol):
        m = multiplier_field(cfg.algebra, cfg.window, symbol.phi, cfg.xi_grid.g_grid)
        vals = m(cfg.g_grid.nodes())
        return OperatorMatrix(cfg.g_grid, np.diag(vals) / cfg.g_grid.weight,
                              meta={"multiplication": True})
    if isinstance(symbol, PhaseSymbol):
        raise SymbolError("the pure Weyl phase is not Berezin-quantizable on a grid; "
                          "use the pseudo-differential quantizer")
    z_nodes, z_w = z_quadrature or cfg.z_quadrature()
    row = _kernel_row(system, cfg.window, cfg.g_grid.nodes())
    return OperatorMatrix(cfg.g_grid, assemble_kernel(symbol, z_nodes, z_w, row))


def berezin_matrix(cfg: BerezinConfig, z_quadrature=None) -> OperatorMatrix:
    """Ber(f) of the plain Weyl system (`berezin_quantize`)."""
    return berezin_quantize(cfg, WeylSystem(cfg.algebra), z_quadrature)


def conv_example_kernel(cfg: BerezinConfig, psi: Field, z_quadrature=None) -> OperatorMatrix:
    """Ber(1 (x) psi) through the numeric route: the dual profile is pushed
    through quadrature on the dual grid instead of a closed-form transform.

        h(x, y) = integral psit[log(zx) - log(zy)] omega(zx) conj(omega(zy)) dz

    with psit the (2 pi)^{-n}-weighted transform of psi; per z node the
    (x, y) matrix of psit values factors into one matrix product.
    """
    alg, window = cfg.algebra, cfg.window
    z_nodes, z_w = z_quadrature or cfg.z_quadrature()
    x = cfg.g_grid.nodes()
    dual = cfg.xi_grid.dual_grid
    zeta = dual.nodes()
    psi_w = psi(zeta) * dual.weight
    K = np.zeros((len(x), len(x)), dtype=complex)
    for z in z_nodes:
        zx = alg.bch(z, x)
        E = np.exp(-1j * (zx @ zeta.T))
        core = (E * psi_w[None, :]) @ E.conj().T
        g = window(zx)
        K += core * (g[:, None] * np.conjugate(g)[None, :])
    return OperatorMatrix(cfg.g_grid, z_w * K)


# ---------------------------------------------------------------------------
# Covariance, Toeplitz form, Schatten bounds
# ---------------------------------------------------------------------------

def covariance_residual_L(cfg: BerezinConfig, z) -> float:
    """Frobenius-relative residual of  L_z* Ber(f) L_z = Ber(f(. z^{-1}, .)).

    The left side is the kernel at left-translated arguments, K(zx, zy); the
    right side is an independent assembly with the translated symbol.
    """
    z = np.asarray(z, float)
    x = cfg.g_grid.nodes()
    zx = cfg.algebra.bch(z, x)
    lhs = berezin_kernel_points(cfg, zx)
    translated = cfg.symbol.translate_x(cfg.algebra, z)
    rhs_cfg = BerezinConfig(cfg.algebra, cfg.window, cfg.g_grid, cfg.xi_grid, translated)
    rhs = berezin_kernel_points(rhs_cfg, x)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs)) / scale


def toeplitz_kernel(cfg: BerezinConfig, p: PhasePoint, q: PhasePoint) -> complex:
    """t(f)(p, q) = integral f(Z) <omega_p, omega_Z> <omega_Z, omega_q> dZ."""
    alg, w = cfg.algebra, cfg.window
    bp = bargmann(alg, w, coherent_state(alg, w, p), cfg.xi_grid, cfg.g_grid)
    bq = bargmann(alg, w, coherent_state(alg, w, q), cfg.xi_grid, cfg.g_grid)
    fvals = sample_xi(cfg.symbol, cfg.xi_grid).values
    return complex(cfg.xi_grid.weight
                   * np.sum(fvals * bp.values * np.conjugate(bq.values)))


def symbol_lp_norm(cfg: BerezinConfig, s: float) -> float:
    """L^s(Xi) norm of the symbol: closed form when available, else quadrature."""
    try:
        return cfg.symbol.lp_norm(s)
    except SymbolError:
        return sample_xi(cfg.symbol, cfg.xi_grid).lp_norm(s)


def schatten_bound_check(cfg: BerezinConfig, s: float, slack: float = 5e-2,
                         matrix: OperatorMatrix | None = None) -> dict:
    """Compare ||Ber(f)||_{B^s} against 4^{1/s} ||f||_{L^s}.

    The interpolation bound carries the constant 4^{1/s}; the literature
    sharpens it to 1, which is reported alongside but not enforced.
    """
    if not (1.0 <= s or math.isinf(s)):
        raise ValueError("Schatten exponent must satisfy s >= 1")
    op = matrix if matrix is not None else berezin_matrix(cfg)
    lhs = op.schatten(s)
    rhs = symbol_lp_norm(cfg, s)
    bound = 1.0 if math.isinf(s) else 4.0 ** (1.0 / s)
    ratio = lhs / rhs if rhs > 0 else math.inf
    return {
        "s": s,
        "schatten_norm": lhs,
        "symbol_norm": rhs,
        "ratio": ratio,
        "bound": bound,
        "sharp_bound": 1.0,
        "violated": bool(ratio > bound * (1.0 + slack)),
        "sharp_violated": bool(ratio > 1.0 + slack),
    }


def symbol_integral(cfg: BerezinConfig) -> complex:
    """integral of f over Xi (trace formula right-hand side)."""
    try:
        return complex(cfg.symbol.integral())
    except (AttributeError, SymbolError):
        return sample_xi(cfg.symbol, cfg.xi_grid).integral()
