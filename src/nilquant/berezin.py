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
minus a real cross term of rank n, and the symbol's dependence on z is a
prefactor alone, hat2(z, V) = pref(z) T(V).

Central shift law.  For c in the centre, exp(z + c) = exp(z) exp(c), so
log((z + c) x) = log(zx) + c: every phase point of the plain and magnetic
systems, and of the tau systems with tau linear in the chart, moves by one
common vector, and V = log(zx) - log(zy) does not depend on the central
coordinates of z.  The z nodes are therefore taken in groups that differ
only in those coordinates (`BerezinConfig.z_groups`,
`LieAlgebra.central_axes`), and a group of M members adds E * S: the real
|T(V)| once, at one member, against the member sum S = (R G^T)
diag(pref) (conj(H) C), one complex matrix product of depth M over the
window (and dressing) values G, H and the unit phases R, C of T (see
`assemble_kernel`).  That is the same quadrature rule, summed exactly in
another order.  A system whose points do not shift with the centre (a
custom tau) and a flat z quadrature passed in by a caller take groups of
one node.  On H1 a 5^3 z grid is 25 groups of 5; on an Abelian group every
axis is central and the whole grid is one group.

Groups are taken at two levels.  The row data (BCH product, window, phase
points, dressing) and the pair exponent are prepared for a batch of groups
at once; the stacked matmuls, real exp and E * S product run on chunks of
about `CHUNK_ENTRIES` kernel entries plus member values, and a group with
more members than the budget allows is split into equal groups.  Each group
adds its own term, in group order.

For fixed z and real f the (x, y) matrix of the integrand is Hermitian, and
positive semidefinite when f >= 0; so is each group's term, the Schur
product of two PSD matrices, hence the assembled kernel is PSD up to
roundoff whenever f >= 0 — positivity is inherited structurally, not by
tolerance.  When rows equal columns and the symbol is real
(`XiSymbol.real`), only the upper triangle is assembled and mirrored, so
the kernel is exactly Hermitian.

The tau-ordered and magnetic quantizations use the same assembly with their
Weyl system's phase points in place of log(zx) and its dressing on the
window, both from the system's `coherent.WeylSystem.coherent_rows`
(`berezin_quantize`).  Point masses map
straight to projectors, and symbols constant in the dual variable map to
multiplication operators; neither is pushed through a sampled delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import LieAlgebra
from .coherent import Window, PhasePoint, WeylSystem, bargmann, coherent_state, \
    fourier_wigner, node_blocks, weyl
from .fields import Field, sample_xi
from .grids import Grid, XiGrid
from .operators import OperatorMatrix
from .symbols import DeltaSymbol, PhaseSymbol, SymbolError, XOnlySymbol, XiSymbol
from .transforms import inner


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

    def z_group_axes(self, system: WeylSystem) -> tuple[int, ...]:
        """The axes the members of a z group differ in: the algebra's central
        axes (`LieAlgebra.central_axes`) when the system's phase points shift
        with the centre, else none, so the groups are single nodes."""
        return self.algebra.central_axes if system.shifts_with_centre else ()

    def z_groups(self, system: WeylSystem):
        """The z-quadrature as (nodes (groups, members, n), weight) for
        `assemble_kernel`, grouped over `z_group_axes`."""
        g = self.xi_grid.g_grid
        return g.grouped_nodes(self.z_group_axes(system)), g.weight


# ---------------------------------------------------------------------------
# Weak form
# ---------------------------------------------------------------------------

def berezin_weak(cfg: BerezinConfig, u: Field, v: Field) -> complex:
    """<Ber(f) u, v> by phase-space quadrature of f FW[u,w] conj(FW[v,w])."""
    if isinstance(cfg.symbol, DeltaSymbol):
        p = PhasePoint(cfg.symbol.z, cfg.symbol.zeta)
        a = inner(weyl(cfg.algebra, p, u), cfg.window.field, cfg.g_grid)
        b = inner(weyl(cfg.algebra, p, v), cfg.window.field, cfg.g_grid)
        return cfg.symbol.mass * a * np.conjugate(b)
    wu = fourier_wigner(cfg.algebra, u, cfg.window.field, cfg.g_grid, cfg.xi_grid)
    wv = fourier_wigner(cfg.algebra, v, cfg.window.field, cfg.g_grid, cfg.xi_grid)
    fvals = sample_xi(cfg.symbol, cfg.xi_grid).values
    return complex(cfg.xi_grid.weight
                   * np.sum(fvals * wu.values * np.conjugate(wv.values)))


# ---------------------------------------------------------------------------
# Kernel assembly
# ---------------------------------------------------------------------------

#: Kernel entries plus member values per chunk of groups in
#: `assemble_kernel`: c (m k + M (m + k)) for c groups of M members against
#: m rows and k columns.  The exponent and term buffers take 24 bytes per
#: entry; a member value (its phase point, window value and operand entry)
#: takes more, which matters for a 1 x k row.  A group has at most
#: CHUNK_ENTRIES // (m + k) members, and when a chunk is one group, the row
#: data of CHUNK_ENTRIES // (8 M (m + k)) groups is prepared at once: a
#: member value costs about 8 entries.
CHUNK_ENTRIES = 1 << 16


def _row_blocks(m: int) -> list[int]:
    """Row boundaries of the upper-triangle blocks [r0, r1) x [r0, m) of an
    m x m Hermitian kernel: one block below 128 rows, else m // 64 of them
    (at most 8), each holding an equal share of the upper triangle."""
    b = min(8, m // 64)
    if b <= 1:
        return [0, m]
    return [round(m * (1.0 - math.sqrt(1.0 - k / b))) for k in range(b + 1)]


def _row_ranges(m: int, k: int) -> list[int]:
    """Row boundaries of the full m x k block: one range up to
    `CHUNK_ENTRIES` entries, else equal ranges of about that many entries,
    which write into one accumulator, so a group's exponent and term buffers
    stay within the budget however large the kernel."""
    parts = max(1, min(m, -(-m * k // CHUNK_ENTRIES)))
    return [m * i // parts for i in range(parts + 1)]


def _members(count: int, m: int, k: int) -> int:
    """Members per group for groups of ``count`` nodes: the largest divisor
    of count that is at most max(1, CHUNK_ENTRIES // (m + k)), so a group's
    member values stay within the budget and every group has as many."""
    parts = -(-count // max(1, CHUNK_ENTRIES // (m + k)))
    while count % parts:
        parts += 1
    return count // parts


def _group_exponent(symbol: XiSymbol, z, base, row_data, col_data):
    """The symbol's (prefactor, row, col, Xs, Qf) for c groups z of shape
    (c, M, n) (`XiSymbol.hat2_pair_exponent`): the pair split at each
    group's base member (indices ``base``), the prefactor (c, M) at every
    member, with the row and column values G (c, M, m) and H (c, M, k) of
    every member.  A function of its own so that the phase points are freed
    before the groups' terms are accumulated."""
    P, G = row_data(z[..., None, :])
    Q, H = (P, G) if col_data is None else col_data(z[..., None, :])
    groups = np.arange(len(z))
    return (*symbol.hat2_pair_exponent(z, P[groups, base], Q[groups, base]), G, H)


def _load_batch(exponent, U, V, A, B):
    """Writes a batch's exponent into U = [-Xs, Re row, 1], V = [Qf, 1,
    Re col] and the member operands A = (R G^T) diag(pref) and B = conj(H) C
    with the unit phases R = e^{i Im row} and C = e^{i Im col}, each cut to
    the batch's groups."""
    pref, row, col, Xs, Qf, G, H = exponent
    n = Xs.shape[-1]
    np.negative(Xs, out=U[..., :n])
    U[..., n] = row.real
    V[..., :n] = Qf
    V[..., n + 1] = col.real
    np.multiply(np.exp(1j * row.imag)[..., None], np.swapaxes(G, -1, -2), out=A)
    A *= np.broadcast_to(pref, G.shape[:-1])[..., None, :]
    np.conjugate(H, out=B)
    B *= np.exp(1j * col.imag)[..., None, :]


def _add_terms(blocks, accs, groups: slice):
    """Adds the terms of the batch's ``groups`` to the block accumulators:
    per block one stacked matmul and real exp for E, one stacked complex
    matmul for the member sums S = A B, and E * S in place, then group by
    group, so that every entry sums its group terms in group order."""
    c = groups.stop - groups.start
    for (u, vt, a, b, rexp, term), acc in zip(blocks, accs):
        rexp, term = rexp[:c], term[:c]
        np.matmul(u[groups], vt[groups], out=rexp)
        np.exp(rexp, out=rexp)
        np.matmul(a[groups], b[groups], out=term)
        term *= rexp
        for t in term:
            acc += t


def assemble_kernel(symbol: XiSymbol, z_nodes: np.ndarray, z_weight: float,
                    row_data, col_data=None) -> np.ndarray:
    """K[i,j] = z_weight * sum_z hat2(z, P_z[i] - Q_z[j]) G_z[i] conj(H_z[j]).

    ``row_data(z) -> (P, G)`` supplies the transformed points P and the
    scalar factors G attached to the row argument; ``col_data`` likewise for
    columns (defaults to the rows).  It is called with one node z of shape
    (n,), returning P (m, n) and G (m,), and with c groups of M members as z
    of shape (c, M, 1, n), returning P (c, M, m, n) and G (c, M, m), so it
    must broadcast over leading axes.  This one loop serves the plain,
    ordering-twisted and magnetic variants.

    ``z_nodes`` is (groups, members, n) or a flat (nodes, n), which is
    groups of one node.  The members of a group must differ by a central
    move c under which the rows and columns shift together, P_{z+c} =
    P_z + d(c) and Q_{z+c} = Q_z + d(c) (`BerezinConfig.z_groups`): then
    V = P_i - Q_j is the same at every member.  The symbol's x-dependence
    is its prefactor alone (``hat2_pair_exponent``), hat2(z, V) = pref(z) *
    T(V), so a group adds

        E * S,   E_ij = |T(V_ij)|,   S = (R G^T) diag(pref) (conj(H) C),

    with the transform's unit phases R_i C_j on the member operands: one
    real exponent at the group's base member and one complex matrix product
    over the members.  The base is the member nearest 0 in the coordinates
    in which the members differ, where the row and column terms of the
    split, and so their rounding, are smallest.  The member sum is exact, not a quadrature
    change; it rounds differently from the node-by-node sum, by about 1e-16
    relative.

    The symbol supplies its transform exponent in row + col - cross form
    with the cross term as two rank-n factors, cross = Xs @ Qf.T.  The cross
    term is real, so E_ij = exp(Re row_i + Re col_j - cross_ij), and the
    real exponent of a block of entries is one matrix product U @ V.T with
    U = [-Xs, Re row, 1] and V = [Qf, 1, Re col]: per chunk and block one
    stacked n+2-deep matmul and one real exp.  Re of the exponent is
    -|sigma w|^2 / 2 <= 0, so E never overflows; the window values enter S
    as factors, so a zero window value gives a zero term.

    When the columns are the rows (``col_data`` is None) and the symbol is
    real (``XiSymbol.real``), R and C are conjugate, pref is real and E is
    the Schur exponential of a Gram matrix times positive diagonals, so each
    group's term is Hermitian, and positive semidefinite for f >= 0 as the
    Schur product of the PSD matrices E and S.  Then only the upper-triangle
    row blocks [r0, r1) x [r0, m) are accumulated, each in its own
    contiguous buffer (`_row_blocks`); at the end each block writes its
    conjugate transpose into the lower triangle and the diagonal is made
    real, so K == K^H exactly.  Otherwise the whole (m, k) matrix is
    accumulated in one array, as one block or, above CHUNK_ENTRIES entries,
    as row ranges (`_row_ranges`).

    Memory.  The first node alone fixes m and k.  A group of M members is
    split into equal groups of `_members` members each, at most
    CHUNK_ENTRIES // (m + k).  Term chunks of ``chunk = max(1, CHUNK_ENTRIES
    // (m k + M (m + k)))`` groups share one stacked matmul pair and real
    exp per block.  Row-data batches of ``chunk`` groups, or of ``max(1,
    CHUNK_ENTRIES // (8 M (m + k)))`` when a chunk is a single group, cost
    one ``row_data`` (and ``col_data``) call and one ``hat2_pair_exponent``
    call.  The U, V, A and B buffers hold a batch, and one exponent and one
    term buffer hold a chunk of the largest block; all are allocated once.
    """
    half = col_data is None and symbol.real
    z_nodes = np.asarray(z_nodes, float)
    if z_nodes.ndim == 2:
        z_nodes = z_nodes[:, None, :]
    m = len(row_data(z_nodes[0, 0])[0])
    k = m if col_data is None else len(col_data(z_nodes[0, 0])[0])
    n = z_nodes.shape[-1]
    members = _members(z_nodes.shape[1], m, k)
    z_nodes = z_nodes.reshape(-1, members, n)
    groups = len(z_nodes)
    # each group's base member: nearest 0 in the coordinates that differ
    # within a group
    moved = np.any(z_nodes != z_nodes[:, :1], axis=(0, 1))
    base = np.argmin(np.max(np.abs(np.where(moved, z_nodes, 0.0)), axis=-1), axis=1)
    chunk = max(1, CHUNK_ENTRIES // (m * k + members * (m + k)))
    batch = chunk if chunk > 1 else max(1, CHUNK_ENTRIES // (8 * members * (m + k)))
    size = min(batch, groups)
    U = np.empty((size, m, n + 2))
    U[..., n + 1] = 1.0
    V = np.empty((size, k, n + 2))
    V[..., n] = 1.0
    A = np.empty((size, m, members), dtype=complex)
    B = np.empty((size, members, k), dtype=complex)
    bounds = _row_blocks(m) if half else _row_ranges(m, k)
    spans = [(r0, r1, r0 if half else 0) for r0, r1 in zip(bounds, bounds[1:])]
    shapes = [(r1 - r0, k - c0) for r0, r1, c0 in spans]
    # one exponent and one term buffer of chunk groups, shared by the blocks
    sub = min(chunk, groups)
    most = sub * max(h * w for h, w in shapes)
    buffers = np.empty(most), np.empty(most, dtype=complex)
    blocks = [(U[:, r0:r1], V[:, c0:].transpose(0, 2, 1), A[:, r0:r1], B[:, :, c0:])
              + tuple(a[:sub * h * w].reshape(sub, h, w) for a in buffers)
              for (r0, r1, c0), (h, w) in zip(spans, shapes)]
    if half:
        accs = [np.zeros(s, dtype=complex) for s in shapes]
    else:
        K = np.zeros((m, k), dtype=complex)
        accs = [K[r0:r1] for r0, r1, _ in spans]
    for start in range(0, groups, batch):
        b = min(batch, groups - start)
        _load_batch(_group_exponent(symbol, z_nodes[start:start + b], base[start:start + b],
                                    row_data, col_data), U[:b], V[:b], A[:b], B[:b])
        for s in range(0, b, chunk):
            _add_terms(blocks, accs, slice(s, min(s + chunk, b)))
    del U, V, A, B, buffers, blocks  # frees them before the mirrored kernel is built
    if half:
        K = np.empty((m, m), dtype=complex)
        for (r0, r1, _), acc in zip(spans, accs):
            h = r1 - r0
            K[r0:r1, r0:] = acc
            # the block's mirror: the columns below it, then the strictly
            # lower part of its diagonal square
            np.conjugate(acc[:, h:].T, out=K[r1:, r0:r1])
            np.conjugate(acc[:, :h].T, out=K[r0:r1, r0:r1], where=np.tri(h, k=-1, dtype=bool))
        K.flat[::m + 1] = K.diagonal().real
    K *= z_weight
    return K


def berezin_kernel_points(cfg: BerezinConfig, x_points, y_points=None,
                          z_quadrature=None) -> np.ndarray:
    """Kernel of Ber(f) at arbitrary analytic points (no interpolation)."""
    plain = WeylSystem(cfg.algebra)
    x_points = np.asarray(x_points, float)
    z_nodes, z_w = z_quadrature or cfg.z_groups(plain)
    row = partial(plain.coherent_rows, cfg.window, x=x_points)
    col = None
    if y_points is not None and y_points is not x_points:
        col = partial(plain.coherent_rows, cfg.window, x=np.asarray(y_points, float))
    return assemble_kernel(cfg.symbol, z_nodes, z_w, row, col)


def multiplier_field(alg: LieAlgebra, window: Window, phi: Field,
                     z_grid: Grid) -> Field:
    """The multiplier of Ber(phi (x) 1): m(x) = integral phi(z) |omega(zx)|^2 dz.

    One BCH product and one window call per block of z nodes
    (`coherent.node_blocks`, about `BLOCK_ENTRIES` (z, x) pairs); each
    node's row is added into the sum in node order."""
    z_nodes = z_grid.nodes()
    phi_vals = phi(z_nodes)

    def fn(x):
        flat = x.reshape(-1, x.shape[-1])
        acc = np.zeros(len(flat), dtype=complex)
        for block in node_blocks(len(z_nodes), len(flat)):
            rows = np.abs(window(alg.bch(z_nodes[block, None, :], flat[None, :, :]))) ** 2
            for pv, row in zip(phi_vals[block], rows):
                acc += pv * row
        return (z_grid.weight * acc).reshape(x.shape[:-1])

    return Field(fn, alg.dim)


def berezin_quantize(cfg: BerezinConfig, system: WeylSystem,
                     z_quadrature=None) -> OperatorMatrix:
    """Ber(f) of a Weyl system, as kernel samples on cfg.g_grid.

    The kernel integrand is hat2(z, P(z,zx) - P(z,zy)) g(z,x) conj(g(z,y))
    with g(z, x) = omega(zx) conj(G(zx, x)), the system's `coherent_rows`
    bound to the window and the grid nodes; for f >= 0 it stays a positive
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
    z_nodes, z_w = z_quadrature or cfg.z_groups(system)
    row = partial(system.coherent_rows, cfg.window, x=cfg.g_grid.nodes())
    return OperatorMatrix(cfg.g_grid, assemble_kernel(symbol, z_nodes, z_w, row))


def berezin_matrix(cfg: BerezinConfig, z_quadrature=None) -> OperatorMatrix:
    """Ber(f) of the plain Weyl system (`berezin_quantize`)."""
    return berezin_quantize(cfg, WeylSystem(cfg.algebra), z_quadrature)


def conv_example_kernel(cfg: BerezinConfig, psi: Field, z_quadrature=None) -> OperatorMatrix:
    """Ber(1 (x) psi) through the numeric route: the dual profile is pushed
    through quadrature on the dual grid instead of a closed-form transform.

        h(x, y) = integral psit[log(zx) - log(zy)] omega(zx) conj(omega(zy)) dz

    with psit the (2 pi)^{-n}-weighted transform of psi; per z node the
    (x, y) matrix of psit values factors into one matrix product over the
    dense (x, zeta) phase matrix.  The z nodes run in blocks
    (`coherent.node_blocks`, sized by the phase and product entries of a
    node): one BCH product, one stacked exp and one stacked matrix product
    per block, each node's term added in node order.
    """
    alg, window = cfg.algebra, cfg.window
    z_nodes, z_w = z_quadrature or cfg.z_quadrature()
    x = cfg.g_grid.nodes()
    dual = cfg.xi_grid.dual_grid
    zeta = dual.nodes()
    psi_w = psi(zeta) * dual.weight
    K = np.zeros((len(x), len(x)), dtype=complex)
    for block in node_blocks(len(z_nodes), len(x) * (len(x) + len(zeta))):
        zx = alg.bch(z_nodes[block, None, :], x[None, :, :])
        E = np.exp(-1j * (zx @ zeta.T))
        cores = (E * psi_w) @ np.swapaxes(E.conj(), -1, -2)
        for core, g in zip(cores, window(zx)):
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
