"""Covariant (lower) symbols, the box composition and the Berezin transform.

The covariant symbol of a bounded operator T is its coherent-state matrix
element cov(T)(X, X') = <T omega_X, omega_X'>; the diagonal Cov(T)(X) =
Tr[T |omega_X><omega_X|].  Composition of operators becomes the integral
composition of kernels on phase space,

    (F box G)(X, Y) = integral F(X, Z) G(Z, Y) dZ,
    cov(S T) = cov(T) box cov(S),

and the diagonal of cov(Ber(f)) is the Berezin transform

    BT(f)(X) = integral f(Z) |<omega_X, omega_Z>|^2 dZ,

a positivity-preserving smoothing that conserves the total integral.  Only
the modulus of the overlap enters it, so a phase that depends on the point
X = (a, alpha) and the node z but not on the quadrature variable y of the
overlap drops out.  On the first-layer axes, where no bracket lands, the
coordinates of a z^{-1} y are plain sums, and the dual point's phase there
leaves only exp(-i sum_k alpha_k y_k): D |y| exps for D dual points, where a
phase per (a, alpha, z, y) took A D |z| |y| (`_berezin_transform_points`).
Kernels of regularizing operators are reconstructed from the full covariant
symbol by a double phase-space quadrature.

Full symbols are stored on (deliberately coarse) Xi x Xi grids; a hard entry
guard protects against accidental quadratic blow-ups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra
from .berezin import BerezinConfig
from .coherent import (PhasePoint, Window, _warn_past_nyquist, coherent_state,
                       coherent_state_bank)
from .fields import sample_xi
from .grids import Grid, XiGrid
from .operators import OperatorMatrix, schatten_norm
from .transforms import dual_phase_grid

FULL_SYMBOL_GUARD = 10_000_000


class CovariantError(ValueError):
    pass


@dataclass
class CovSymbol:
    """Full covariant symbol on a XiGrid: values[i, j] = cov(T)(X_i, X_j).

    Phase-space nodes are flattened in C order over (z index, zeta index).
    """

    window: Window
    xi_grid: XiGrid
    values: np.ndarray

    def __post_init__(self):
        m = self.xi_grid.size
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (m, m):
            raise CovariantError(f"expected shape {(m, m)}, got {v.shape}")
        self.values = v

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values)

    def hermiticity_residual(self) -> float:
        scale = float(np.max(np.abs(self.values))) or 1.0
        return float(np.max(np.abs(self.values - self.values.conj().T))) / scale


def cov_full(T: OperatorMatrix, alg: LieAlgebra, w: Window, xi_grid: XiGrid) -> CovSymbol:
    """cov(T) on every pair of Xi nodes: cov[i, j] = <T omega_i, omega_j>."""
    if xi_grid.size ** 2 > FULL_SYMBOL_GUARD:
        raise CovariantError(
            f"full covariant symbol would hold {xi_grid.size ** 2:.2e} entries "
            f"(guard {FULL_SYMBOL_GUARD:.0e}); use a coarser grid")
    S = coherent_state_bank(alg, w, xi_grid, T.grid)      # (n_xi, m)
    vol = T.grid.weight
    inner = vol * np.conjugate(S) @ (vol * T.kernel) @ S.T  # inner[j, i] = <T w_i, w_j>
    return CovSymbol(w, xi_grid, inner.T)


def cov_at(T: OperatorMatrix, alg: LieAlgebra, w: Window,
           p: PhasePoint, q: PhasePoint) -> complex:
    """cov(T)(p, q) = <T omega_p, omega_q> by grid quadrature."""
    nodes = T.grid.nodes()
    up = coherent_state(alg, w, p)(nodes)
    uq = coherent_state(alg, w, q)(nodes)
    return complex(T.grid.weight * np.vdot(uq, T.apply_samples(up)))


def cov_diagonal(T: OperatorMatrix, alg: LieAlgebra, w: Window,
                 xi_grid: XiGrid) -> np.ndarray:
    """Cov(T) on the Xi nodes (flattened C order)."""
    S = coherent_state_bank(alg, w, xi_grid, T.grid)
    vol = T.grid.weight
    # (T omega_Z)(x_m) laid out like S, so the contraction walks both by rows
    ST = S @ (vol * T.kernel).T                            # (n_xi, m)
    return vol * np.einsum("im,im->i", np.conjugate(S), ST)


def square_compose(F: CovSymbol, G: CovSymbol) -> CovSymbol:
    """(F box G)(X, Y) = integral F(X, Z) G(Z, Y) dZ by Xi quadrature."""
    if F.xi_grid != G.xi_grid:
        raise CovariantError("Xi grids differ")
    return CovSymbol(F.window, F.xi_grid, F.xi_grid.weight * (F.values @ G.values))


def square_adjoint(F: CovSymbol) -> CovSymbol:
    """F^box(X, Y) = conj(F(Y, X))."""
    return CovSymbol(F.window, F.xi_grid, F.values.conj().T)


#: Entries of the stacked phase block and of its Fourier-Wigner transform
#: that `_berezin_transform_points` holds at once (16 bytes each).
BT_CHUNK_ENTRIES = 1 << 17


def _berezin_transform_points(cfg: BerezinConfig, a_nodes: np.ndarray,
                              alpha_nodes: np.ndarray) -> np.ndarray:
    """BT(f)(a, alpha) at every pair of group points a (A, n) and dual points
    alpha (D, n), shape (A, D).

    The overlap <omega_p, omega_Z> of p = (a, alpha) with Z = (z, zeta) is
    the Bargmann transform of omega_p, the y-quadrature over cfg.g_grid of

        e^{i <y|zeta>} e^{-i <a z^{-1} y | alpha>} omega(a z^{-1} y) conj(omega(y)).

    Only its modulus enters BT.  On a first-layer axis k
    (`LieAlgebra.first_layer_axes`) the coordinate (a z^{-1} y)_k =
    a_k - z_k + y_k is a plain sum, and the factor e^{-i alpha_k (a_k - z_k)}
    does not depend on y: a unimodular constant of each (z, zeta) y-sum, it
    cancels in |.|^2.  What is left of the phase is

        Y[alpha, y] = e^{-i sum_{k first-layer} alpha_k y_k}

    times e^{-i <a z^{-1} y | beta>}, beta the coordinates of alpha on the
    other axes.  The symbol is sampled once, z^{-1} y, conj(omega(y)) and Y
    (D N_y complex exps) are formed once; a z^{-1} y and the window on it
    once per group point a.  The dual points are taken in groups of equal
    beta: per a and group one (N_z, N_y) exp of the remaining phase, none for
    beta = 0 (every alpha on an Abelian group), times the window product;
    each chunk of the group's points is that array times its rows of Y and
    one `dual_phase_grid` call, in chunks of at most `BT_CHUNK_ENTRIES` block
    and transform entries.  So a call takes D N_y + A G N_z N_y exps for G
    groups with beta != 0, where a phase per (a, alpha, z, y) took
    A D N_z N_y.  No group points or no dual points give an empty result.
    Warns (`NyquistWarning`) when the dual box of cfg.xi_grid is past the
    Nyquist band of cfg.g_grid.
    """
    alg, w, xi, y_grid = cfg.algebra, cfg.window, cfg.xi_grid, cfg.g_grid
    # stacklevel: reported at the caller of the public berezin_transform*
    _warn_past_nyquist(y_grid, xi.dual_grid, stacklevel=4)
    a_nodes = np.asarray(a_nodes, float)
    alpha_nodes = np.asarray(alpha_nodes, float)
    out = np.empty((len(a_nodes), len(alpha_nodes)), dtype=complex)
    if out.size == 0:
        return out
    f = sample_xi(cfg.symbol, xi).values.reshape(-1)    # (N_z N_zeta,)
    f_re, f_im = np.ascontiguousarray(f.real), np.ascontiguousarray(f.imag)
    y = y_grid.nodes()
    back = alg.bch(alg.inv(xi.g_grid.nodes())[:, None, :], y[None, :, :])  # z^{-1} y
    conj_wy = np.conjugate(w(y))
    n_z, n_y = back.shape[:2]
    chunk = max(1, BT_CHUNK_ENTRIES // (n_z * (n_y + xi.dual_grid.size)))
    first = list(alg.first_layer_axes)
    rest = [k for k in range(alg.dim) if k not in first]
    Y = np.exp(-1j * (alpha_nodes[:, first] @ y[:, first].T))     # (D, N_y)
    betas, which = np.unique(alpha_nodes[:, rest], axis=0, return_inverse=True)
    groups = [(beta, np.flatnonzero(which.ravel() == g)) for g, beta in enumerate(betas)]
    for i, a in enumerate(a_nodes):
        azy = alg.bch(a, back)
        g = w(azy) * conj_wy
        for beta, members in groups:
            phase = g
            if beta.any():
                phase = np.exp(-1j * (azy[..., rest] @ beta))
                phase *= g
            for s in range(0, len(members), chunk):
                sel = members[s:s + chunk]
                block = phase * Y[sel, None, :]                      # (c, N_z, N_y)
                power = np.abs(dual_phase_grid(block.reshape(-1, n_y), y_grid,
                                               xi.dual_grid, 1))
                power *= power
                power = power.reshape(len(sel), -1)
                out.real[i, sel] = power @ f_re
                out.imag[i, sel] = power @ f_im
    return (xi.weight * y_grid.weight ** 2) * out


def berezin_transform(cfg: BerezinConfig, p: PhasePoint) -> complex:
    """BT(f)(p) = integral f(Z) |<omega_p, omega_Z>|^2 dZ, by Xi quadrature
    over cfg.xi_grid with the overlaps' y-quadrature over cfg.g_grid
    (`berezin_transform_nodes` with one point)."""
    return complex(_berezin_transform_points(cfg, p.zv[None], p.zetav[None])[0, 0])


def berezin_transform_nodes(cfg: BerezinConfig, coarse: XiGrid) -> np.ndarray:
    """BT(f) sampled on the nodes of a coarse XiGrid (flattened C order),
    in one batch: the symbol, z^{-1} y and the window at y are formed once
    for all nodes, the window at a z^{-1} y once per coarse group node."""
    return _berezin_transform_points(cfg, *coarse.node_pairs()).reshape(-1)


def norm_bound_check(T: OperatorMatrix, alg: LieAlgebra, w: Window,
                     xi_grid: XiGrid, p: float) -> dict:
    """Check ||Cov(T)||_{L^p(Xi)} <= ||T||_{B^p} (diagonal lower bound)."""
    return norm_bound_checks(T, alg, w, xi_grid, [p])[0]


def norm_bound_checks(T: OperatorMatrix, alg: LieAlgebra, w: Window,
                      xi_grid: XiGrid, ps) -> list[dict]:
    """`norm_bound_check` for each exponent of the sequence ``ps``, from one
    Cov(T) diagonal and one SVD of T."""
    if any(p < 1 for p in ps):
        raise CovariantError("exponent must satisfy p >= 1")
    diag = np.abs(cov_diagonal(T, alg, w, xi_grid))
    sv = T.singular_values()
    reports = []
    for p in ps:
        if math.isinf(p):
            lhs = float(np.max(diag))
        else:
            lhs = float((xi_grid.weight * np.sum(diag ** p)) ** (1.0 / p))
        rhs = schatten_norm(sv, p)
        reports.append({"p": p, "cov_norm": lhs, "schatten_norm": rhs,
                        "ratio": lhs / rhs if rhs > 0 else math.inf})
    return reports


def c0_decay_check(T: OperatorMatrix, alg: LieAlgebra, w: Window, xi_grid: XiGrid,
                   shells=5, slack: float = 5e-2,
                   tail_fraction: float = 0.1) -> dict:
    """Probe decay of |Cov(T)| over concentric sup-norm shells of the Xi box.

    `shells` is a shell count (equispaced relative radii) or an explicit
    increasing sequence of radius edges in (0, 1].  A box test can only see
    trends, not true vanishing at infinity: the verdict is "decays" when
    shell maxima are non-increasing within `slack` (relative to the central
    value) and the outermost shell is below `tail_fraction` times the central
    value.  Thresholds are heuristics.
    """
    diag = np.abs(cov_diagonal(T, alg, w, xi_grid))
    z_nodes, zeta_nodes = xi_grid.node_pairs()
    Lz = np.asarray(xi_grid.g_grid.half_width)
    Ld = np.asarray(xi_grid.dual_grid.half_width)
    rz = np.max(np.abs(z_nodes) / Lz, axis=1)
    rd = np.max(np.abs(zeta_nodes) / Ld, axis=1)
    radius = np.maximum(rz[:, None], rd[None, :]).ravel()
    if np.isscalar(shells):
        edges = np.linspace(0.0, 1.0, int(shells) + 1)
    else:
        edges = np.concatenate([[0.0], np.asarray(shells, float)])
    maxima = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (radius > lo if lo > 0 else radius >= 0) & (radius <= hi)
        maxima.append(float(diag[mask].max()) if mask.any() else 0.0)
    center = maxima[0] if maxima[0] > 0 else 1.0
    monotone = all(maxima[i + 1] <= maxima[i] + slack * center
                   for i in range(len(maxima) - 1))
    tail_ok = maxima[-1] <= tail_fraction * center
    return {"shell_maxima": maxima, "monotone": monotone,
            "tail_ok": tail_ok, "decays": bool(monotone and tail_ok)}


def kernel_from_cov(C: CovSymbol, alg: LieAlgebra, grid: Grid) -> OperatorMatrix:
    """Reconstruct the kernel of a regularizing operator:

        K(x, y) = integral integral cov(T)(Z, Z') omega_{Z'}(x) conj(omega_Z(y)) dZ dZ'.
    """
    S = coherent_state_bank(alg, C.window, C.xi_grid, grid).T  # (m, n_xi)
    K = S @ C.values.T @ S.conj().T
    return OperatorMatrix(grid, C.xi_grid.weight ** 2 * K)


def kernel_from_cov_points(C: CovSymbol, alg: LieAlgebra, x_points, y_points) -> np.ndarray:
    """Same reconstruction, evaluated at arbitrary analytic point pairs."""
    Sx = coherent_state_bank(alg, C.window, C.xi_grid, x_points).T
    Sy = coherent_state_bank(alg, C.window, C.xi_grid, y_points).T
    return C.xi_grid.weight ** 2 * (Sx @ C.values.T @ Sy.conj().T)
