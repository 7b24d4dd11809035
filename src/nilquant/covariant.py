"""Covariant (lower) symbols, the box composition and the Berezin transform.

The covariant symbol of a bounded operator T is its coherent-state matrix
element cov(T)(X, X') = <T omega_X, omega_X'>; the diagonal Cov(T)(X) =
Tr[T |omega_X><omega_X|].  Composition of operators becomes the integral
composition of kernels on phase space,

    (F box G)(X, Y) = integral F(X, Z) G(Z, Y) dZ,
    cov(S T) = cov(T) box cov(S),

and the diagonal of cov(Ber(f)) is the Berezin transform

    BT(f)(X) = integral f(Z) |<omega_X, omega_Z>|^2 dZ,

a positivity-preserving smoothing that conserves the total integral.
Kernels of regularizing operators are reconstructed from the full covariant
symbol by a double phase-space quadrature.

Lag sums.  Cov(T) and BT both sum over the dual nodes zeta against a phase
e^{i <x - y | zeta>} between two group points x, y.  On the first-layer axes
F (`LieAlgebra.first_layer_axes`), where no bracket lands, that phase
depends only on the lag d = x_F - y_F, and for nodes of one grid the lags
form its difference lattice, 2 N_k - 1 nodes per axis at the grid's spacing
(`transforms.lag_grid`).  So each per-frequency sum is reassociated into an
exact sum over lags: `cov_diagonal` takes the diagonal sums of one m x m
product per (z, zeta_R) row, and the Berezin transform the autocorrelation
of one window product per group point by FFTs of length 2 N_k, each then
summed against the dual nodes once.  The other axes R keep their direct
sums; with no first-layer axes the lag lattice is one node and the route is
the per-frequency sum itself.  Both hold their lag arrays in chunks of at
most `BT_CHUNK_ENTRIES` entries.

Full symbols are stored on (deliberately coarse) Xi x Xi grids; a hard entry
guard protects against accidental quadratic blow-ups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra
from .berezin import BerezinConfig
from .coherent import (PhasePoint, WeylSystem, Window, _warn_past_nyquist, coherent_state,
                       coherent_state_bank)
from .fields import sample_xi
from .grids import Grid, XiGrid
from .operators import OperatorMatrix, schatten_norm
from .transforms import (_axis_factor, axes_grid, dual_phase_grid, dual_phase_points,
                         lag_grid)

FULL_SYMBOL_GUARD = 10_000_000

#: Entries of the lag arrays that `_berezin_transform_points` and
#: `cov_diagonal` hold at once (16 bytes each); a step takes at least one
#: group point or one row.
BT_CHUNK_ENTRIES = 1 << 17


def _layer_axes(alg: LieAlgebra) -> tuple[list[int], list[int]]:
    """The first-layer axes F (`LieAlgebra.first_layer_axes`) and the others R."""
    first = list(alg.first_layer_axes)
    return first, [k for k in range(alg.dim) if k not in first]


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
    """Cov(T) on the Xi nodes (flattened C order), by lag sums on the
    first-layer lattice.

    Cov(T)(z, zeta) = h^2 sum_{x, y} conj(omega_Z(x)) K(x, y) omega_Z(y), and
    the coherent states carry e^{-i <zx | zeta>}.  On the first-layer axes F
    (zx)_F - (zy)_F = x_F - y_F = d, a lag of `transforms.lag_grid`; so with
    c(x) = omega(zx) e^{-i <(zx)_R | zeta_R>} on the other axes R,

        Cov(T)(z, zeta) = h^2 sum_d e^{i <d | zeta_F>} M(z, zeta_R, d),
        M(z, zeta_R, d) = sum_{x_F - y_F = d} conj(c(x)) K(x, y) c(y),

    summed over the R coordinates of x and y as well.  Each (z, zeta_R) row
    takes K c summed over y_R and the lag sums of conj(c) K c, about m^2
    products, and one `dual_phase_grid` call takes every row from the lags
    to zeta_F, where a contraction with the coherent-state bank took
    |zeta_F| times the products.  With no first-layer axes the lag lattice
    is one node and this is the per-frequency sum itself.  The z nodes run
    in blocks and the rows in chunks of at most `BT_CHUNK_ENTRIES` entries;
    no sum depends on the chunk, so any budget gives the same numbers.
    """
    grid = T.grid
    first, rest = _layer_axes(alg)
    dual = xi_grid.dual_grid
    lags, dual_rest = lag_grid(grid, first), axes_grid(dual, rest)
    x, zeta = grid.nodes(), dual.axes()
    z = xi_grid.g_grid.nodes()
    m, n, n_r = grid.size, alg.dim, dual_rest.size
    # (K c)(x, y_F) sums over y_R, one matrix product per y_F node (with no
    # R axis, one product per entry); the last first-layer axis (*) then takes
    # its lag sum in the matrix product with conj(c): K c goes y*-reversed
    # into a block zero-padded to 2 N*, which read in strides of 2 N* - 1
    # puts x* - y* + N* - 1 in one column.  The other axes of x (') are then
    # summed (R) or lag-summed against y'_F (`_lag_sums`).
    star = first[-1:]
    other = [k for k in range(n) if k not in star]
    y_first = first[:-1]
    n_star = math.prod(grid.counts[k] for k in star)
    m1, f1 = m // n_star, math.prod(grid.counts[k] for k in y_first)
    K = T.kernel.reshape(grid.counts * 2)
    if first and rest:
        K = K.transpose([n + k for k in first] + other + star + [n + k for k in rest])
        K = np.ascontiguousarray(K).reshape(f1 * n_star, m, -1)         # (y_F, x, y_R)
        y_order = [0] + [1 + k for k in first + rest]
    elif first:
        K = K.transpose(other + [n + k for k in y_first] + star + [n + k for k in star])
        K = np.ascontiguousarray(K.reshape(m1, f1, n_star, n_star)[..., ::-1])
    rows = max(1, BT_CHUNK_ENTRIES // (2 * m * f1 * n_star))
    if first:
        block = np.zeros((min(rows, len(z) * n_r), m1, f1, n_star, 2 * n_star), dtype=complex)
        skew = block.reshape(block.shape[:3] + (-1,))[..., :n_star * (2 * n_star - 1)]
        skew = skew.reshape(block.shape[:4] + (2 * n_star - 1,))      # (x', y'_F, x*, lag*)
    summed = tuple(1 + other.index(k) for k in rest)
    M = np.empty((len(z) * n_r, lags.size), dtype=complex)
    system = WeylSystem(alg)
    nodes = max(1, BT_CHUNK_ENTRIES // (n_r * m))
    for s in range(0, len(z), nodes):
        points, c = system.coherent_rows(w, z[s:s + nodes, None, :], x)   # zx, omega(zx)
        c = c[:, None, :]
        for k in rest:
            phase = _axis_factor(points, k, zeta[k], -1)                  # (nodes, D_k, m)
            c = (c[:, :, None, :] * phase[..., None, :, :]).reshape(len(c), -1, m)
        c = c.reshape(-1, m)
        if not first:  # one lag, d = 0: the per-frequency sum, K by one matrix product
            KC = c @ T.kernel.T
            M[s * n_r:s * n_r + len(c), 0] = np.einsum("rx,rx->r", np.conjugate(c), KC)
            continue
        c = c.reshape((-1,) + grid.counts)
        c_x = np.conjugate(c.transpose([0] + [1 + k for k in other + star]))
        c_x = c_x.reshape(-1, m1, n_star)                                # conj(c), (x', x*)
        if not rest:                                                     # c, (y'_F, y*) reversed
            c_rev = np.ascontiguousarray(c_x.conj()[..., ::-1])
        for r in range(0, len(c), rows):
            p = min(rows, len(c) - r)
            if rest:  # one product per row and y_F node: no sum depends on the chunk
                c_y = c[r:r + p].transpose(y_order).reshape(p, f1 * n_star, -1, 1)
                KC = (K @ c_y).reshape(p, f1, n_star, m1, n_star).transpose(0, 3, 1, 4, 2)
                block[:p, ..., :n_star] = KC[..., ::-1]
            else:
                np.multiply(K, c_rev[r:r + p, None, :, None, :], out=block[:p, ..., :n_star])
            B = c_x[r:r + p, :, None, None, :] @ skew[:p]                # (p, x', y'_F, 1, lag*)
            B = B.reshape((p,) + tuple(grid.counts[k] for k in other + y_first) + (-1,))
            B = np.moveaxis(_lag_sums(B.sum(axis=summed), len(y_first)), 1, -1)
            M[s * n_r + r:s * n_r + r + p] = B.reshape(p, -1)
    cov = dual_phase_grid(M, lags, axes_grid(dual, first), 1)
    cov = cov.reshape((len(z),) + tuple(dual.counts[k] for k in rest + first))
    order = np.argsort(rest + first)
    return grid.weight ** 2 * cov.transpose([0] + [1 + i for i in order]).reshape(-1)


def _lag_sums(B: np.ndarray, pairs: int) -> np.ndarray:
    """Sums of B (rows, x axes, y axes) over x_k - y_k = d_k for each of the
    `pairs` axis pairs, the lag axes (2 N_k - 1 lags ascending) last.

    Along one pair, y reversed and each row padded to 2 N, the flat row
    read in strides of 2 N - 1 puts x - y + N - 1 in one column."""
    for i in range(pairs):
        B = np.moveaxis(B, (1, 1 + pairs - i), (-2, -1))
        N = B.shape[-1]
        padded = np.zeros(B.shape[:-1] + (2 * N,), dtype=B.dtype)
        padded[..., :N] = B[..., ::-1]
        skew = padded.reshape(B.shape[:-2] + (-1,))[..., :N * (2 * N - 1)]
        B = skew.reshape(B.shape[:-2] + (N, 2 * N - 1)).sum(axis=-2)
    return B


def square_compose(F: CovSymbol, G: CovSymbol) -> CovSymbol:
    """(F box G)(X, Y) = integral F(X, Z) G(Z, Y) dZ by Xi quadrature."""
    if F.xi_grid != G.xi_grid:
        raise CovariantError("Xi grids differ")
    return CovSymbol(F.window, F.xi_grid, F.xi_grid.weight * (F.values @ G.values))


def square_adjoint(F: CovSymbol) -> CovSymbol:
    """F^box(X, Y) = conj(F(Y, X))."""
    return CovSymbol(F.window, F.xi_grid, F.values.conj().T)


def _fft_lag_index(counts) -> tuple:
    """Where FFTs of length 2 N_k put the lags -(N_k - 1) .. N_k - 1 of
    node pairs along axes of N_k nodes, as an open-mesh index."""
    return np.ix_(*(np.arange(1 - N, N) % (2 * N) for N in counts))


def _reflect(a: np.ndarray, axes) -> np.ndarray:
    """a at the negated FFT indices, (-j) mod L, on `axes`."""
    return np.roll(np.flip(a, axes), 1, axes)


def _symbol_on_lags(cfg: BerezinConfig, first, rest, counts) -> np.ndarray:
    """phi(z, zeta_R, d) = sum_{zeta_F} f(z, zeta) e^{i <d|zeta_F>} where the
    half spectrum of `rfftn` over FFTs of length 2 N_k meets it: conj(phi) at
    d and phi at -d, stacked, shape (2, N_z, zeta_R, F spectrum...), the
    last F axis halved and lag 0 on it left to the first."""
    xi = cfg.xi_grid
    dual = xi.dual_grid
    n_z, n_r = xi.g_grid.size, axes_grid(dual, rest).size
    f = sample_xi(cfg.symbol, xi).values.reshape((n_z,) + dual.counts)
    f = f.transpose([0] + [1 + k for k in rest + first]).reshape(n_z * n_r, -1)
    phi = dual_phase_grid(f, axes_grid(dual, first), lag_grid(cfg.g_grid, first), 1)
    phi_fft = np.zeros((n_z, n_r) + tuple(2 * N for N in counts), dtype=complex)
    phi_fft[(slice(None), slice(None)) + _fft_lag_index(counts)] = phi.reshape(
        (n_z, n_r) + tuple(2 * N - 1 for N in counts))
    half = (Ellipsis, slice(0, counts[-1] + 1))
    minus = _reflect(phi_fft, tuple(range(2, 2 + len(counts))))[half]
    minus[..., 0] = 0.0
    return np.stack([np.conjugate(phi_fft[half]), minus])


def _berezin_transform_points(cfg: BerezinConfig, a_nodes: np.ndarray,
                              alpha_nodes: np.ndarray) -> np.ndarray:
    """BT(f)(a, alpha) at every pair of group points a (A, n) and dual points
    alpha (D, n), shape (A, D), by lag sums on the first-layer lattice.

    The overlap <omega_p, omega_Z> of p = (a, alpha) with Z = (z, zeta) is
    the y-quadrature over cfg.g_grid of

        e^{i <y|zeta>} e^{-i <a z^{-1} y | alpha>} omega(a z^{-1} y) conj(omega(y)),

    and only its modulus enters BT.  On the first-layer axes F the
    coordinates of a z^{-1} y are plain sums a_k - z_k + y_k, so the phase
    e^{-i alpha_k (a_k - z_k)}, constant in y, cancels in |.|^2.  With beta
    the coordinates of alpha on the other axes R, let U be the window product
    omega(a z^{-1} y) conj(omega(y)) e^{-i <(a z^{-1} y)_R | beta>} and

        V(z, zeta_R, y_F) = sum_{y_R} e^{i <y_R|zeta_R>} U,

    a direct sum over the R axes.  The overlap is the sum of
    V e^{i <y_F | zeta_F - alpha_F>} over y_F, so its square modulus is

        sum_d e^{i <d | zeta_F - alpha_F>} R_V(d),   R_V(d) = sum_{y_F} V(y_F + d) conj(V(y_F)),

    over the lags d of `transforms.lag_grid` (2 N_k - 1 per F axis at the
    grid's spacing): the same finite sums, reassociated (Parseval).  With
    phi(z, zeta_R, d) = sum_{zeta_F} f(z, zeta) e^{i <d|zeta_F>}, formed once,

        BT(a, alpha) = w_Xi h^2 sum_d e^{-i <d|alpha_F>} Psi(d),
        Psi(d) = sum_{z, zeta_R} phi(z, zeta_R, d) R_V(z, zeta_R, d),

    and every alpha of one beta shares Psi.  R_V is the inverse FFT of the
    power |FFT V|^2 at length 2 N_k per F axis; the power is real, so
    R_V(-d) = conj(R_V(d)) and the inverse is one `rfftn`, whose half
    spectrum meets phi at d and at -d.  So a group point and a beta take one
    U, one R-axis sum and two FFTs, and one `dual_phase_points` call over
    the lags gives all the group's alphas.  With no first-layer axes the lag
    lattice is one node and this is the per-frequency sum itself.  The group
    points run in chunks whose four spectrum-sized arrays hold at most
    `BT_CHUNK_ENTRIES` entries.  No group points or no dual points give an
    empty result.  Warns (`NyquistWarning`) when the dual box of cfg.xi_grid
    is past the Nyquist band of cfg.g_grid.
    """
    alg, w, xi, y_grid = cfg.algebra, cfg.window, cfg.xi_grid, cfg.g_grid
    # stacklevel: reported at the caller of the public berezin_transform*
    _warn_past_nyquist(y_grid, xi.dual_grid, stacklevel=4)
    a_nodes = np.asarray(a_nodes, float)
    alpha_nodes = np.asarray(alpha_nodes, float)
    out = np.empty((len(a_nodes), len(alpha_nodes)), dtype=complex)
    if out.size == 0:
        return out
    first, rest = _layer_axes(alg)
    dual = xi.dual_grid
    lags = lag_grid(y_grid, first)
    y_rest, dual_rest = axes_grid(y_grid, rest), axes_grid(dual, rest)
    # with no first-layer axis, one axis of one node stands in: its only lag is 0
    counts = tuple(y_grid.counts[k] for k in first) or (1,)
    fft_len = tuple(2 * N for N in counts)
    fft_axes = tuple(range(3, 3 + len(counts)))
    n_z, n_r = xi.g_grid.size, dual_rest.size
    both = _symbol_on_lags(cfg, first, rest, counts)
    y = y_grid.nodes()
    back = alg.bch(alg.inv(xi.g_grid.nodes())[:, None, :], y[None, :, :])  # z^{-1} y
    conj_wy = np.conjugate(w(y))
    # y axes F then R, the R axes summed away against zeta_R
    y_order = [0, 1] + [2 + k for k in first + rest]
    betas, which = np.unique(alpha_nodes[:, rest], axis=0, return_inverse=True)
    sums = np.empty((2, len(betas), len(a_nodes)) + both.shape[3:], dtype=complex)
    # a step holds about four spectrum-sized arrays
    chunk = max(1, BT_CHUNK_ENTRIES // (4 * n_z * max(len(y), n_r * math.prod(fft_len))))
    for s in range(0, len(a_nodes), chunk):
        azy = alg.bch(a_nodes[s:s + chunk, None, None, :], back)        # (c, N_z, N_y, n)
        g = w(azy)
        g *= conj_wy
        c = len(g)
        for b, beta in enumerate(betas):
            u = g
            if beta.any():
                u = np.exp(-1j * (azy[..., rest] @ beta))
                u *= g
            u = u.reshape((c, n_z) + y_grid.counts).transpose(y_order)
            v = dual_phase_grid(u.reshape(-1, y_rest.size), y_rest, dual_rest, 1)
            v = np.moveaxis(v.reshape((c, n_z) + counts + (n_r,)), -1, 2)   # (c, N_z, zeta_R, F)
            spectrum = np.fft.fftn(v, s=fft_len, axes=fft_axes)
            power = spectrum.real ** 2
            power += spectrum.imag ** 2
            del spectrum
            half_spectrum = np.fft.rfftn(power, axes=fft_axes)  # L conj(R_V) for d_F last >= 0
            sums[:, b, s:s + c] = np.einsum("azr...,szr...->sa...", half_spectrum, both)
    # back to one FFT layout, then to the lags of `lags`: + side conjugated,
    # the - side's sums reflected to -d
    psi = np.zeros((len(betas), len(a_nodes)) + fft_len, dtype=complex)
    psi[..., :counts[-1] + 1] = sums[1]
    psi = _reflect(psi, tuple(range(2, psi.ndim)))
    psi[..., :counts[-1] + 1] += np.conjugate(sums[0])
    psi = psi[(slice(None), slice(None)) + _fft_lag_index(counts)] / math.prod(fft_len)
    psi = psi.reshape(len(betas), len(a_nodes), -1)
    which = which.ravel()
    for b in range(len(betas)):
        members = np.flatnonzero(which == b)
        if first:
            at = np.broadcast_to(alpha_nodes[members][:, first], (len(a_nodes), len(members),
                                                                   len(first)))
            out[:, members] = dual_phase_points(psi[b], at, lags, -1)
        else:
            out[:, members] = psi[b]
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
