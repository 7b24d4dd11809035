"""Reference routes for the tests, and the helpers the test modules share.

Each map the library computes fast has one dense route here, written as its
defining sum one node at a time with a dense phase matrix: the Fourier-Wigner
transform (`wigner`), the adjoint Bargmann map (`bargmann_adjoint`), the Op
kernel (`op_kernel`), the dual-side phase sum (`phase_matrix`), the shift and
the coherent state (`shift`, `adjoint_shift`), the Berezin kernel rows
(`coherent_rows`), the Berezin transform (`per_point_bt`), the Cov(T)
diagonal (`bank_cov_diagonal`), the BCH product (`term_walk_bch`) and the
Gaussian (`complex_gaussian`).  A test that compares
at a tolerance compares against these.  `test_oracles` checks the
Fourier-Wigner, Op-kernel and phase-sum routes against closed forms.

The routes a test pins *bitwise* keep the exact arithmetic of the route the
fast one replaced, since the claim is about that order of operations: `bch`
(started from the broadcast sum X + Y), `gaussian_values`,
`dual_phase_rows`, `whole_grid_wigner`, `op_kernel_rows`, `coherent_rows`
(its dressing one node at a time), `per_node_bank`, `per_node_multiplier`,
`per_node_conv_example`, `fused_complex_exp` and `per_node_split`.

The points and the dressing of a Weyl system are written out here
(`phase_points`, `dressing`) rather than taken from the system's hooks, so a
fault in a hook shows against them.
"""

import tracemalloc

import numpy as np

from nilquant.algebra import (MAX_BCH_DEPTH, LieAlgebra, _components, _run_bch, abelian,
                              bch_terms, engel, heisenberg)
from nilquant.berezin import BerezinConfig, _row_blocks
from nilquant.coherent import bargmann, coherent_state, coherent_state_bank, make_window
from nilquant.fields import GaussianFactor, gaussian, sample_xi
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import circulation
from nilquant.symbols import GaussianSymbol
from nilquant.transforms import dual_phase_grid


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def bits(a):
    """Shape, dtype and bytes: equal exactly when two arrays are bitwise equal."""
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def rel_max(got, ref):
    """max |got - ref| relative to max |ref|; max |got| when ref is zero."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    scale = float(np.max(np.abs(ref)))
    gap = float(np.max(np.abs(got - ref)))
    return gap / scale if scale > 0 else float(np.max(np.abs(got)))


def traced_peak(fn, *args):
    """tracemalloc's peak while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def upper_basis(k, blocks=None):
    """The positions (i, j), i < j, of the E_ij basis of strictly
    upper-triangular k x k matrices, and the basis change P of
    `strictly_upper(k, blocks)`: its new basis is f_a = sum_b P[b, a] e_b."""
    idx = [(i, j) for i in range(k) for j in range(i + 1, k)]
    P = np.eye(len(idx))
    if blocks is not None:
        pos = {p: a for a, p in enumerate(idx)}
        for level, block in enumerate(blocks, start=1):
            members = [pos[(i, i + level)] for i in range(k - level)]
            P[np.ix_(members, members)] = block
    return idx, P


def strictly_upper(k, blocks=None):
    """Strictly upper-triangular k x k matrices (step k - 1) in the basis
    E_ij, i < j; `blocks[l]` changes the basis of the level j - i = l + 1."""
    idx, P = upper_basis(k, blocks)
    pos = {p: a for a, p in enumerate(idx)}
    dim = len(idx)
    c = np.zeros((dim, dim, dim))
    for a, (i, j) in enumerate(idx):
        for b, (p, q) in enumerate(idx):
            if j == p:
                c[a, b, pos[(i, q)]] += 1.0
            if q == i:
                c[a, b, pos[(p, j)]] -= 1.0
    if blocks is not None:
        c = np.einsum("ia,jb,ijk,mk->abm", P, P, c, np.linalg.inv(P))
    return LieAlgebra(dim, c, k - 1, name=f"ut{k}")


def random_level_blocks(k, rng):
    """A random basis of each level of the k x k strictly upper-triangular
    matrices: an orthogonal matrix with its columns scaled by 0.5 to 2."""
    blocks = []
    for level in range(1, k):
        size = k - level
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        blocks.append(q * rng.uniform(0.5, 2.0, size))
    return blocks


def random_algebra(k, seed):
    """A strictly upper-triangular k x k algebra in a random basis of each
    level; its central and first-layer axes are whichever the basis gives."""
    return strictly_upper(k, random_level_blocks(k, np.random.default_rng(seed)))


# the grids of the blocked Bargmann maps: (algebra, y grid, z grid, dual
# grid), every axis with its own count and z counts that leave partial
# blocks.  abelian:2 puts every z node into one central group of 12;
# strictly upper-triangular 4 x 4 matrices have their one central axis at
# index 2 of 6, not the last, so their groups do not run in node order
GRID_CASES = {
    "abelian:1": (lambda: abelian(1), Grid((6.0,), (24,)), Grid((5.0,), (13,)),
                  Grid((1.8,), (7,), dual=True)),
    "heisenberg:1": (heisenberg, Grid((3.0, 2.5, 3.5), (7, 6, 8)),
                     Grid((2.0, 1.5, 2.5), (3, 2, 4)),
                     Grid((2.4, 2.1, 1.9), (4, 5, 3), dual=True)),
    "engel": (engel, Grid((3.0, 2.5, 2.0, 3.0), (4, 5, 3, 6)),
              Grid((1.5, 1.0, 1.2, 0.8), (2, 3, 1, 2)),
              Grid((1.4, 1.9, 1.6, 2.2), (3, 2, 4, 5), dual=True)),
    "abelian:2": (lambda: abelian(2), Grid((3.0, 3.5), (8, 7)), Grid((2.0, 1.5), (4, 3)),
                  Grid((2.2, 1.9), (4, 5), dual=True)),
    "ut4": (lambda: strictly_upper(4), Grid((2.0, 2.2, 1.8, 2.4, 2.0, 1.6), (2, 2, 3, 2, 2, 3)),
            Grid((1.0, 0.8, 1.5, 0.9, 1.1, 0.7), (2, 1, 3, 2, 1, 2)),
            Grid((1.4, 1.2, 1.5, 1.3, 1.1, 1.6), (3, 2, 2, 2, 3, 2), dual=True)),
}


def grid_case(name, variant=0):
    """(algebra, y grid, XiGrid, u, v) of `GRID_CASES`.  `variant` moves u's
    centre: no two tests compute equal results, so a block left unwritten
    cannot pass by holding the freed values of an earlier test."""
    make_alg, y_grid, z_grid, dual_grid = GRID_CASES[name]
    alg = make_alg()
    n = alg.dim
    u = gaussian(n, 0.9, np.linspace(0.3, -0.2, n) + 0.05 * variant,
                    np.linspace(-0.4, 0.5, n))
    v = gaussian(n, 1.1, np.linspace(-0.1, 0.2, n), np.linspace(0.3, -0.3, n))
    return alg, y_grid, XiGrid(z_grid, dual_grid), u, v


# ---------------------------------------------------------------------------
# BCH
# ---------------------------------------------------------------------------

def bracket(alg, X, Y):
    """[X, Y] as one dense einsum over the structure constants."""
    X, Y = np.broadcast_arrays(np.asarray(X, float), np.asarray(Y, float))
    return np.einsum("...i,...j,ijk->...k", X, Y, alg.c)


def term_walk_bch(alg, X, Y):
    """Every Dynkin word of `bch_terms` through the step, right-nested
    einsum brackets: the BCH product without the compiled program."""
    X, Y = np.broadcast_arrays(np.asarray(X, float), np.asarray(Y, float))
    letters = (X, Y)
    out = np.zeros(np.broadcast_shapes(X.shape, Y.shape))
    for coeff, word in bch_terms(MAX_BCH_DEPTH):
        if len(word) > alg.step:
            continue
        v = letters[word[-1]]
        for letter in word[-2::-1]:
            v = bracket(alg, letters[letter], v)
        out = out + coeff * v
    return out


def bch(alg, X, Y):
    """The compiled BCH program started from the broadcast sum X + Y (bitwise)."""
    X, Y = np.asarray(X, float), np.asarray(Y, float)
    out = X + Y
    if alg._bch_program:
        letters = (_components(X), _components(Y))
        _run_bch(alg._bch_program, letters, letters[1], _components(out),
                 np.empty(out.shape[:-1]))
    return out


# ---------------------------------------------------------------------------
# the Gaussian
# ---------------------------------------------------------------------------

def _quad(center, sigma, p):
    d = (p - center) / sigma
    return -0.5 * np.einsum("...i,...i->...", d, d)


def complex_gaussian(amplitude, center, sigma, phase, p):
    """amplitude exp(-|(p - center) / sigma|^2 / 2 + i <p | phase>), one
    complex exp."""
    quad = _quad(center, sigma, p)
    return amplitude * np.exp(quad + 1j * np.einsum("...i,i->...", p, phase))


def gaussian_values(amplitude, center, sigma, phase, p):
    """The Gaussian as `fields.gaussian` evaluated it (bitwise): one real exp
    when phase-free, else `complex_gaussian`."""
    if np.any(phase):
        return complex_gaussian(amplitude, center, sigma, phase, np.asarray(p, float))
    return np.multiply(amplitude, np.exp(_quad(center, sigma, np.asarray(p, float))),
                       dtype=complex)


def gaussian_field(u):
    """A Gaussian field's values (its `fn` a `GaussianFactor`) by `gaussian_values`."""
    g = u.fn
    return lambda p: gaussian_values(g.amplitude, g.center, g.sigma, g.phase, p)


def unit_window(w):
    """`make_window`'s default window, the unit Gaussian renormalized on its
    grid, by `gaussian_values`."""
    g = GaussianFactor.make(w.field.n, None, 1.0, None, None)
    scale = 1.0 / w.raw_norm
    return lambda p: gaussian_values(g.amplitude, g.center, g.sigma, g.phase, p) * scale


# ---------------------------------------------------------------------------
# dual-side phase sums
# ---------------------------------------------------------------------------

def phase_matrix(x, dual_grid, sign):
    """exp(sign i <x | zeta>) for every point x against every dual node."""
    return np.exp(sign * 1j * (np.asarray(x, float) @ dual_grid.nodes().T))


def dual_phase_rows(h, x, dual_grid, sign):
    """sum_zeta h(zeta) exp(sign i <x | zeta>) for one row h, by outer-product
    axis factors multiplied out of place (bitwise)."""
    x = np.asarray(x, float)
    axes = dual_grid.axes()
    T = np.reshape(h, (-1, len(axes[-1]))) @ np.exp((sign * 1j) * np.outer(axes[-1], x[:, -1]))
    for k in range(dual_grid.n - 2, -1, -1):
        factor = np.exp((sign * 1j) * np.outer(axes[k], x[:, k]))
        T = np.sum(T.reshape(-1, len(axes[k]), len(x)) * factor, axis=1)
    return T.reshape(len(x))


# ---------------------------------------------------------------------------
# Weyl systems: shift, coherent states, Fourier-Wigner transform
# ---------------------------------------------------------------------------

def phase_points(system, z, y):
    """P(z, y): log(tau(z)^{-1} y) for a system with moved points, else y."""
    if system.moves_points:
        return bch(system.alg, -system.tau(z), y)
    return y


def dressing(system, y, back):
    """theta(y, back) of G = e^{i theta}: the circulation of the system's
    potential along [[y, back]]."""
    return circulation(system.A, y, back)


def shift(system, p, u, x):
    """W(z, zeta) u at x, one dressing call on every point."""
    z, zeta = p.zv, p.zetav
    back = system.alg.bch(system.alg.inv(z), x)
    out = np.exp(1j * np.einsum("...i,i->...", phase_points(system, z, x), zeta)) * u(back)
    if system.dressed:
        out = out * np.exp(1j * dressing(system, x, back))
    return out


def adjoint_shift(system, p, u, y):
    """W(z, zeta)* u at y as (phase * u(zy)) * dressing, one dressing call."""
    z, zeta = p.zv, p.zetav
    zy = system.alg.bch(z, y)
    out = np.exp(-1j * np.einsum("...i,i->...", phase_points(system, z, zy), zeta)) * u(zy)
    if system.dressed:
        out = out * np.exp(-1j * dressing(system, zy, y))
    return out


def coherent_rows(system, u, z, x):
    """(P(z, zx), u(zx) conj G(zx, x)) with the dressing taken one z node at
    a time; z broadcasts against x as in `LieAlgebra.bch`.  Its signature is
    `WeylSystem.coherent_rows`', so it can stand in for that method."""
    zx = system.alg.bch(z, x)
    g = u(zx)
    points = phase_points(system, z, zx)
    if not system.dressed:
        return points, g
    theta = np.stack([dressing(system, p, x) for p in zx.reshape((-1,) + zx.shape[-2:])])
    return points, g * np.exp(-1j * theta.reshape(g.shape))


def row_data(system, window, x):
    """The Berezin kernel's row data at the points x: z -> `coherent_rows`."""
    return lambda z: coherent_rows(system, window, z, x)


def wigner(system, u, v, g_grid, z_nodes, zeta_nodes):
    """<W(z, zeta) u, v> for every z node against every zeta node: per z
    node, the y-quadrature of u(z^{-1} y) conj v(y) G against a dense phase
    matrix at the points P(z, y)."""
    alg, y = system.alg, g_grid.nodes()
    vy = np.conjugate(v(y))
    vals = np.empty((len(z_nodes), len(zeta_nodes)), dtype=complex)
    for i, z in enumerate(np.asarray(z_nodes, float)):
        back = alg.bch(-z, y)
        g = u(back) * vy
        if system.dressed:
            g = g * np.exp(1j * dressing(system, y, back))
        E = np.exp(1j * (phase_points(system, z, y) @ np.asarray(zeta_nodes, float).T))
        vals[i] = g_grid.weight * (g @ E)
    return vals


def whole_grid_wigner(system, u, v, g_grid, xi_grid):
    """<W(z, zeta) u, v> on a XiGrid for a system whose phase points are the
    y nodes: every (z, y) pair at once, dressed row by row, then the phase
    sum on the whole grid (bitwise)."""
    assert not system.moves_points
    z_nodes = xi_grid.g_grid.nodes()
    y = g_grid.nodes()
    back = bch(system.alg, -z_nodes[:, None, :], y[None, :, :])
    g_zy = u(back) * np.conjugate(v(y))[None, :]
    if system.dressed:
        for row, b in zip(g_zy, back):
            row *= np.exp(1j * dressing(system, y, b))
    return g_grid.weight * dual_phase_grid(g_zy, g_grid, xi_grid.dual_grid, 1)


# ---------------------------------------------------------------------------
# Bargmann synthesis, the Op kernel, coherent-state banks
# ---------------------------------------------------------------------------

def bargmann_adjoint(alg, window, h, targets):
    """(B_omega)* h at the targets: per z node, omega(zx) times the dense
    phase sum of h's row, added in node order."""
    dual_grid = h.xi_grid.dual_grid
    acc = np.zeros(len(targets), dtype=complex)
    for i, z in enumerate(h.xi_grid.g_grid.nodes()):
        zx = alg.bch(z, targets)
        acc += window(zx) * (phase_matrix(zx, dual_grid, -1) @ h.values[i])
    return h.xi_grid.weight * acc


def op_kernel(alg, a_samples, grid, dual_grid):
    """Op(a)(x, y) = sum_zeta a(x, zeta) e^{i <log(x y^{-1}) | zeta>}, one
    dense phase matrix per kernel row."""
    x = grid.nodes()
    V = alg.bch(x[:, None, :], -x[None, :, :])
    return np.stack([dual_grid.weight * (phase_matrix(V[i], dual_grid, 1) @ a_samples[i])
                     for i in range(len(x))])


def op_kernel_rows(alg, a_samples, grid, dual_grid):
    """The Op kernel one row at a time by `dual_phase_rows` (bitwise)."""
    x = grid.nodes()
    V = bch(alg, x[:, None, :], -x[None, :, :])
    K = np.empty((len(x), len(x)), dtype=complex)
    for i in range(len(x)):
        K[i] = dual_grid.weight * dual_phase_rows(a_samples[i], V[i], dual_grid, 1)
    return K


def per_node_bank(alg, w, xi_grid, targets):
    """The coherent-state bank one z node at a time (bitwise)."""
    z_nodes, zeta_nodes = xi_grid.node_pairs()
    out = np.empty((len(z_nodes) * len(zeta_nodes), len(targets)), dtype=complex)
    for i, z in enumerate(z_nodes):
        zx = alg.bch(z, targets)
        base = w(zx)
        phases = np.exp(-1j * (zx @ zeta_nodes.T))
        out[i * len(zeta_nodes):(i + 1) * len(zeta_nodes), :] = (base[:, None] * phases).T
    return out


# ---------------------------------------------------------------------------
# Berezin operators: multipliers, the convolution example, the transform
# ---------------------------------------------------------------------------

def per_node_multiplier(alg, window, phi, z_grid):
    """The multiplier of `berezin.multiplier_field` with one BCH product and
    one window call per node (bitwise)."""
    z_nodes = z_grid.nodes()
    phi_vals = phi(z_nodes)

    def fn(x):
        flat = x.reshape(-1, x.shape[-1])
        acc = np.zeros(len(flat), dtype=complex)
        for z, pv in zip(z_nodes, phi_vals):
            acc += pv * np.abs(window(alg.bch(z, flat))) ** 2
        return (z_grid.weight * acc).reshape(x.shape[:-1])

    return fn


def per_node_conv_example(cfg, psi):
    """The kernel of `berezin.conv_example_kernel` with one BCH product, one
    dense (x, zeta) phase exp and one matrix product per node (bitwise)."""
    alg, window = cfg.algebra, cfg.window
    z_nodes, z_w = cfg.z_quadrature()
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
    return z_w * K


#: the batched Berezin transform against `per_point_bt`, relative max-abs
BT_TOL = 1e-12


def bt_case(group):
    """A Berezin config with a complex phased symbol and an off-centre
    window on the "line" or on "h1", and a coarse Xi grid of points."""
    if group == "line":
        alg, n = abelian(1), 1
        grid, xi = Grid.box(1, 10.0, 64), XiGrid.box(1, 10.0, 64, 9.0, 48)
        coarse = XiGrid.box(1, 6.0, 5, 3.0, 7)
    else:
        alg, n = heisenberg(), 3
        grid, xi = Grid.box(3, 3.0, 5), XiGrid.box(3, 3.0, 4, 2.0, 3)
        coarse = XiGrid.box(3, 2.0, 2, 1.5, 2)
    w = make_window(alg, grid, 0.9, 0.1 * np.arange(1, n + 1))
    sym = GaussianSymbol.make(n, amplitude=1.2 - 0.4j, x_center=0.2, x_sigma=1.1,
                              x_phase=0.3, xi_center=-0.1, xi_sigma=0.9, xi_phase=0.2)
    return BerezinConfig(alg, w, grid, xi, sym), coarse


def per_point_bt(cfg, p):
    """The Berezin transform at p: the full Bargmann transform of the
    coherent state at p, then the Xi quadrature against the symbol."""
    overlaps = bargmann(cfg.algebra, cfg.window, coherent_state(cfg.algebra, cfg.window, p),
                        cfg.xi_grid, cfg.g_grid)
    fvals = sample_xi(cfg.symbol, cfg.xi_grid).values
    return complex(cfg.xi_grid.weight * np.sum(fvals * np.abs(overlaps.values) ** 2))


def per_alpha_exp_bt(cfg, a_nodes, alpha_nodes):
    """The Berezin transform with exp(-i <a z^{-1} y | alpha>) for every
    (a, alpha, z, y), one dual point at a time."""
    alg, w, xi, y_grid = cfg.algebra, cfg.window, cfg.xi_grid, cfg.g_grid
    f = sample_xi(cfg.symbol, xi).values.reshape(-1)
    y = y_grid.nodes()
    back = alg.bch(alg.inv(xi.g_grid.nodes())[:, None, :], y[None, :, :])
    conj_wy = np.conjugate(w(y))
    out = np.empty((len(a_nodes), len(alpha_nodes)), dtype=complex)
    for i, a in enumerate(a_nodes):
        azy = alg.bch(a, back)
        g = w(azy) * conj_wy
        for j, alpha in enumerate(alpha_nodes):
            block = np.exp(-1j * (azy @ alpha)) * g
            power = np.abs(dual_phase_grid(block, y_grid, xi.dual_grid, 1)) ** 2
            out[i, j] = power.reshape(-1) @ f
    return (xi.weight * y_grid.weight ** 2) * out


def bank_cov_diagonal(T, alg, w, xi):
    """Cov(T) on the Xi nodes one dual node at a time: the coherent-state bank
    against T, vol^2 sum_{x, y} conj(omega_Z(x)) K(x, y) omega_Z(y) for every
    row omega_Z of the bank."""
    S = coherent_state_bank(alg, w, xi, T.grid.nodes())
    vol = T.grid.weight
    return vol * np.einsum("im,im->i", np.conjugate(S), S @ (vol * T.kernel).T)


# ---------------------------------------------------------------------------
# kernel assembly
# ---------------------------------------------------------------------------

#: a kernel summed over groups of z nodes against `per_node_split`, relative
#: max-abs: a group's member sum rounds differently from the node-by-node
#: sum, which held bitwise before the central z axes were summed in groups
GROUP_TOL = 1e-13


def _flat_nodes(z_nodes):
    """The nodes of a flat (nodes, n) or grouped (groups, members, n) array,
    in order."""
    z_nodes = np.asarray(z_nodes, float)
    return z_nodes.reshape(-1, z_nodes.shape[-1])


def fused_complex_exp(symbol, z_nodes, z_weight, row_data, col_data=None):
    """`berezin.assemble_kernel` as exp(row_i + col_j - cross_ij) over one
    complex m x k buffer per node, every entry computed."""
    K = buf = None
    for z in _flat_nodes(z_nodes):
        P, G = row_data(z)
        Q, H = (P, G) if col_data is None else col_data(z)
        pref, row, col, Xs, Qf = symbol.hat2_pair_exponent(z, P, Q)
        cross = Xs @ Qf.T
        with np.errstate(divide="ignore"):
            row = row + np.log(np.asarray(G, dtype=complex))
            col = col + np.conjugate(np.log(np.asarray(H, dtype=complex)))
        if buf is None:
            buf = np.empty(cross.shape, dtype=complex)
            K = np.zeros(cross.shape, dtype=complex)
        np.multiply(cross, -1.0, out=buf)
        buf += row[:, None]
        buf += col[None, :]
        np.exp(buf, out=buf)
        buf *= pref
        K += buf
    K *= z_weight
    return K


def per_node_split(symbol, z_nodes, z_weight, row_data, col_data=None):
    """`berezin.assemble_kernel` one node at a time: the real-exponential
    split, and the Hermitian half for a real symbol on shared points."""
    half = col_data is None and symbol.real
    spans = accs = None
    for z in _flat_nodes(z_nodes):
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
