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
minus a real cross term of rank n, so each z-node costs one (n+2)-deep
matrix product for the whole real exponent, one real matrix exp and a
complex outer scaling by unit phase vectors (see `assemble_kernel`).

For fixed z and real f the (x, y) matrix of the integrand is Hermitian, and
positive semidefinite when f >= 0, hence the assembled kernel is PSD up to
roundoff whenever f >= 0 — positivity is inherited structurally, not by
tolerance.  When rows equal columns and the symbol is real
(`XiSymbol.real`), only the upper triangle is assembled and mirrored, so
the kernel is exactly Hermitian.

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

def _row_blocks(m: int) -> list[int]:
    """Row boundaries of the upper-triangle blocks [r0, r1) x [r0, m) of an
    m x m Hermitian kernel: one block below 128 rows, else m // 64 of them
    (at most 8), each holding an equal share of the upper triangle."""
    b = min(8, m // 64)
    if b <= 1:
        return [0, m]
    return [round(m * (1.0 - math.sqrt(1.0 - k / b))) for k in range(b + 1)]


def assemble_kernel(symbol: XiSymbol, z_nodes: np.ndarray, z_weight: float,
                    row_data, col_data=None) -> np.ndarray:
    """K[i,j] = z_weight * sum_z hat2(z, P_z[i] - Q_z[j]) G_z[i] conj(H_z[j]).

    ``row_data(z) -> (P, G)`` supplies, for one quadrature node z, the
    transformed points P (m, n) and the scalar factors G (m,) attached to the
    row argument; ``col_data`` likewise for columns (defaults to the rows).
    This one loop serves the plain, ordering-twisted and magnetic variants.

    The symbol supplies its transform exponent in row + col - cross form
    with the cross term as two rank-n factors, cross = Xs @ Qf.T
    (``hat2_pair_exponent``); the window factors are folded into the row and
    column vectors through their logs.  The cross term is real, so each entry
    splits as

        exp(Re row_i + Re col_j - cross_ij) * e^{i Im row_i} * e^{i Im col_j},

    and the real exponent of a block of entries is one matrix product
    U @ V.T with U = [-Xs, Re row, 1] and V = [Qf, 1, Re col]: per node and
    block one n+2-deep matmul, one real exp, and one complex outer scaling
    by unit phase vectors (the prefactor rides on the row one) into the
    block's accumulator.  The real matrix is exactly the real part of the
    full complex exponent up to rounding, so it overflows and underflows
    where that would; a zero window value (log 0 = -inf) gives a zero entry.

    When the columns are the rows (``col_data`` is None) and the symbol is
    real (``XiSymbol.real``), every node's term is Hermitian, so only the
    upper-triangle row blocks [r0, r1) x [r0, m) are accumulated, each in its
    own contiguous buffer (`_row_blocks`); the lower triangle is mirrored
    once at the end and the diagonal made real, so K == K^H exactly.
    Otherwise the whole (m, k) matrix is the one block.  Either way each
    entry sums its z terms in node order.
    """
    half = col_data is None and symbol.real
    spans = accs = None
    for z in z_nodes:
        P, G = row_data(z)
        Q, H = (P, G) if col_data is None else col_data(z)
        pref, row, col, Xs, Qf = symbol.hat2_pair_exponent(z, P, Q)
        with np.errstate(divide="ignore"):
            row = row + np.log(np.asarray(G, dtype=complex))
            col = col + np.conjugate(np.log(np.asarray(H, dtype=complex)))
        (m, n), k = Xs.shape, len(Qf)
        U = np.empty((m, n + 2))
        np.negative(Xs, out=U[:, :n])
        U[:, n] = row.real
        U[:, n + 1] = 1.0
        V = np.empty((k, n + 2))
        V[:, :n] = Qf
        V[:, n] = 1.0
        V[:, n + 1] = col.real
        rphase = pref * np.exp(1j * row.imag)
        cphase = np.exp(1j * col.imag)
        if accs is None:
            bounds = _row_blocks(m) if half else [0, m]
            spans = [(r0, r1, r0 if half else 0) for r0, r1 in zip(bounds, bounds[1:])]
            shapes = [(r1 - r0, k - c0) for r0, r1, c0 in spans]
            rexps = [np.empty(s) for s in shapes]
            terms = [np.empty(s, dtype=complex) for s in shapes]
            accs = [np.zeros(s, dtype=complex) for s in shapes]
        for (r0, r1, c0), rexp, term, acc in zip(spans, rexps, terms, accs):
            np.matmul(U[r0:r1], V[c0:].T, out=rexp)
            np.exp(rexp, out=rexp)
            np.multiply(rexp, rphase[r0:r1, None], out=term)
            term *= cphase[None, c0:]
            acc += term
    if half:
        K = np.empty((m, m), dtype=complex)
        for (r0, r1, c0), acc in zip(spans, accs):
            K[r0:r1, c0:] = acc
        lower = np.tril_indices(m, -1)
        K[lower] = np.conjugate(K.T[lower])
        K.flat[::m + 1] = K.diagonal().real
    else:
        K = accs[0]
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
