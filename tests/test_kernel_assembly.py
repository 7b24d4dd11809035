"""Kernel assembly against the loops it replaced, on H1 and the line, for the
plain, tau-ordered and magnetic quantizers and the covariance points,
including off-centre, underflowing and vanishing windows: the real-
exponential split of complex symbols (one full block) and the Hermitian half
of real ones (upper-triangle blocks, mirrored) against the fused complex-exp
loop, and the groups of z nodes along the central axes, their chunks and the
batches of their row data against the per-node loop."""

import tracemalloc

import numpy as np
import pytest

from nilquant import berezin, coherent
from nilquant.algebra import abelian, heisenberg
from nilquant.berezin import (CHUNK_ENTRIES, BerezinConfig, _row_blocks, assemble_kernel,
                              berezin_kernel_points, berezin_matrix)
from nilquant.coherent import Window, WeylSystem, make_window
from nilquant.fields import Field, gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import (MagneticWeylSystem, VectorPotential, linear3_potential,
                               mag_berezin, zero_potential)
from nilquant.symbols import (DeltaSymbol, GaussianSymbol, PhaseSymbol, SymbolError,
                              TranslatedSymbol, XOnlySymbol, XiOnlySymbol, XiSymbol)
from nilquant.tau import berezin_tau, symmetric_tau, tau_e

TOL = 1e-12


def flat_nodes(z_nodes):
    """The nodes of a flat (nodes, n) or grouped (groups, members, n) array,
    in order."""
    z_nodes = np.asarray(z_nodes, float)
    return z_nodes.reshape(-1, z_nodes.shape[-1])


def fused_complex_exp(symbol, z_nodes, z_weight, row_data, col_data=None):
    """The per-node loop assemble_kernel ran before the real-exponential
    split and the Hermitian half: exp(row_i + col_j - cross_ij) over one
    complex m x k buffer, every entry computed.  Grouped nodes (groups,
    members, n) are taken one node at a time."""
    K = buf = None
    for z in flat_nodes(z_nodes):
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
    """The loop assemble_kernel ran before z nodes were chunked: the same
    real-exponential split and Hermitian half, one node at a time (grouped
    nodes too)."""
    half = col_data is None and symbol.real
    spans = accs = None
    for z in flat_nodes(z_nodes):
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


# -- set-ups ----------------------------------------------------------------

def h1_grids():
    return heisenberg(), Grid.box(3, 3.0, 5), XiGrid.box(3, 3.0, 4)


def line_grids():
    return abelian(1), Grid.box(1, 8.0, 48), XiGrid.box(1, 8.0, 32)


GROUPS = {"heisenberg:1": h1_grids, "abelian:1": line_grids}

# the linear3 field on H1; on the line every potential is a gradient, but its
# circulation phases still dress the windows
POTENTIALS = {3: linear3_potential(0.6),
              1: VectorPotential(lambda p: 0.5 * p + 0.2 * p ** 2, name="quadratic")}


def off_centre_symbol(n):
    return GaussianSymbol.make(n, amplitude=0.8 - 0.3j, x_center=np.full(n, 1.1),
                               x_sigma=0.9, x_phase=np.full(n, 0.3),
                               xi_center=np.linspace(0.7, -0.4, n), xi_sigma=1.1,
                               xi_phase=np.linspace(-0.4, 0.5, n))


def real_off_centre_symbol(n, **complex_part):
    """The off-centre symbol without its phases and with a real, positive
    amplitude, so f >= 0; ``complex_part`` puts one of them back."""
    return GaussianSymbol.make(n, **{"amplitude": 0.8, "x_center": np.full(n, 1.1),
                                     "x_sigma": 0.9, "xi_center": np.linspace(0.7, -0.4, n),
                                     "xi_sigma": 1.1, **complex_part})


def off_centre(alg, grid):
    return make_window(alg, grid, sigma=0.8, center=np.linspace(0.9, -0.6, alg.dim))


# per dimension: nonzero at every grid node, but products of far-apart values
# underflow
NARROW_SIGMA = {3: 0.13, 1: 0.22}


def narrow(alg, grid):
    return make_window(alg, grid, sigma=NARROW_SIGMA[alg.dim])


def cut_off(alg, grid):
    """A Gaussian cut to zero for first coordinate above 0.8."""
    g = gaussian(alg.dim, 1.0)
    return Window.normalized(Field(lambda p: np.where(p[..., 0] > 0.8, 0.0, g(p)),
                                   alg.dim), grid)


WINDOWS = {"off_centre": off_centre, "narrow": narrow, "cut_off": cut_off}


def config(group, window, symbol=off_centre_symbol):
    alg, grid, xi = GROUPS[group]()
    return BerezinConfig(alg, WINDOWS[window](alg, grid), grid, xi, symbol(alg.dim))


def quantize(cfg, scheme):
    if scheme == "plain":
        return berezin_matrix(cfg).kernel
    if scheme == "points":
        # distinct row and column points exercise the separate column data
        x = cfg.g_grid.nodes()
        return berezin_kernel_points(cfg, x, x[::-1] + 0.3)
    if scheme == "covariance":
        # the left-translated points of the covariance residual, as rows and
        # columns at once
        z = np.linspace(0.3, -0.4, cfg.algebra.dim)
        return berezin_kernel_points(cfg, cfg.algebra.bch(z, cfg.g_grid.nodes()))
    if scheme == "row":
        # one row point against every column: a 1 x k kernel
        x = cfg.g_grid.nodes()
        return berezin_kernel_points(cfg, x[:1] + 0.1, x)
    if scheme == "tau":
        return berezin_tau(cfg, symmetric_tau(cfg.algebra)).kernel
    return mag_berezin(cfg, POTENTIALS[cfg.algebra.dim]).kernel


def reference(cfg, scheme, monkeypatch, loop=fused_complex_exp):
    with monkeypatch.context() as m:
        m.setattr(berezin, "assemble_kernel", loop)
        return quantize(cfg, scheme)


def relative_gap(K, ref):
    return float(np.max(np.abs(K - ref))) / float(np.max(np.abs(ref)))


# -- the split against the fused route ----------------------------------------

@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("scheme", ["plain", "points", "tau", "magnetic"])
def test_split_matches_fused_complex_exp(group, window, scheme, monkeypatch):
    cfg = config(group, window)
    K = quantize(cfg, scheme)
    ref = reference(cfg, scheme, monkeypatch)
    assert np.all(np.isfinite(K))
    assert np.max(np.abs(ref)) > 0
    assert relative_gap(K, ref) <= TOL


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_narrow_window_underflows_to_zero(group, monkeypatch):
    cfg = config(group, "narrow")
    assert np.all(cfg.window(cfg.g_grid.nodes()) != 0)
    K = berezin_matrix(cfg).kernel
    ref = reference(cfg, "plain", monkeypatch)
    # the outer entries underflow on both routes, the rest agree
    assert np.any(K == 0) and np.any(ref == 0)
    assert np.all(np.isfinite(K))
    assert relative_gap(K, ref) <= TOL


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_vanishing_window_takes_log_zero_path(group, monkeypatch):
    cfg = config(group, "cut_off")
    x = cfg.g_grid.nodes()
    values = [cfg.window(cfg.algebra.bch(z, x)) for z in cfg.z_quadrature()[0]]
    assert any(np.any(v == 0) for v in values)
    K = berezin_matrix(cfg).kernel
    assert np.all(np.isfinite(K))
    assert relative_gap(K, reference(cfg, "plain", monkeypatch)) <= TOL


# -- the Hermitian half of real symbols ----------------------------------------

HALF_SCHEMES = ["plain", "covariance", "tau", "magnetic"]


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("scheme", HALF_SCHEMES)
def test_half_matches_fused_complex_exp(group, window, scheme, monkeypatch):
    cfg = config(group, window, real_off_centre_symbol)
    assert cfg.symbol.real
    K = quantize(cfg, scheme)
    ref = reference(cfg, scheme, monkeypatch)
    assert np.all(np.isfinite(K))
    assert np.max(np.abs(ref)) > 0
    assert relative_gap(K, ref) <= TOL
    assert np.array_equal(K, K.conj().T)


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("scheme", HALF_SCHEMES)
def test_half_of_nonnegative_symbol_is_positive(group, scheme):
    cfg = config(group, "off_centre", real_off_centre_symbol)
    lam = np.linalg.eigvalsh(quantize(cfg, scheme))
    assert lam.min() >= -1e-12 * np.max(np.abs(lam))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_half_reaches_underflow_and_log_zero(group, monkeypatch):
    """The narrow and cut-off windows of the comparison above do reach the
    zero entries and the log 0 path with the real symbol too."""
    cfg = config(group, "narrow", real_off_centre_symbol)
    assert np.any(berezin_matrix(cfg).kernel == 0)
    assert np.any(reference(cfg, "plain", monkeypatch) == 0)
    cfg = config(group, "cut_off", real_off_centre_symbol)
    x = cfg.g_grid.nodes()
    assert any(np.any(cfg.window(cfg.algebra.bch(z, x)) == 0) for z in cfg.z_quadrature()[0])


@pytest.mark.parametrize("m", [1, 2, 63, 64, 127, 128, 129, 255, 387, 515, 700])
def test_row_blocks_partition_the_rows(m):
    bounds = _row_blocks(m)
    assert bounds[0] == 0 and bounds[-1] == m
    assert np.all(np.diff(bounds) > 0)
    assert len(bounds) - 1 == (1 if m < 128 else min(8, m // 64))


@pytest.mark.parametrize("m", [1, 2, 37, 63, 128, 129, 387, 515])
def test_half_at_odd_and_small_sizes(m):
    """One block below the threshold, several above it, odd and even m."""
    alg, grid, xi = abelian(1), Grid.box(1, 8.0, m), XiGrid.box(1, 8.0, 24)
    window = make_window(alg, grid, sigma=0.8, center=[0.9])

    def row(z):
        zx = alg.bch(z, grid.nodes())
        return zx, window(zx)

    z_nodes, z_w = xi.g_grid.nodes(), xi.g_grid.weight
    symbol = real_off_centre_symbol(1)
    K = assemble_kernel(symbol, z_nodes, z_w, row)
    ref = fused_complex_exp(symbol, z_nodes, z_w, row)
    assert K.shape == (m, m)
    assert relative_gap(K, ref) <= TOL
    assert np.array_equal(K, K.conj().T)


def tril_index_mirror(K):
    """The mirror assemble_kernel made before each block wrote its own: the
    strictly lower triangle as a fancy-indexed conjugate copy of the upper
    one, then the diagonal made real."""
    m = len(K)
    lower = np.tril_indices(m, -1)
    K[lower] = np.conjugate(K.T[lower])
    K.flat[::m + 1] = K.diagonal().real
    return K


@pytest.mark.parametrize("m", [1, 2, 63, 128, 129, 343, 515])
def test_block_mirror_is_bitwise_the_tril_index_mirror(m, monkeypatch):
    """The accumulated upper-triangle blocks, written and mirrored as before,
    give the kernel bit for bit (one block below 128 rows, up to 8 above)."""
    alg, grid, xi = abelian(1), Grid.box(1, 8.0, m), XiGrid.box(1, 8.0, 24)
    window = make_window(alg, grid, sigma=0.8, center=[0.9])

    def row(z):
        zx = alg.bch(z, grid.nodes())
        return zx, window(zx)

    seen = []
    add_terms = berezin._add_terms

    def recording(blocks, accs, groups):
        seen.append(accs)
        return add_terms(blocks, accs, groups)

    monkeypatch.setattr(berezin, "_add_terms", recording)
    z_nodes, z_w = xi.g_grid.nodes(), xi.g_grid.weight
    K = assemble_kernel(real_off_centre_symbol(1), z_nodes, z_w, row)
    bounds = _row_blocks(m)
    assert len(seen[0]) == len(bounds) - 1
    ref = np.empty((m, m), dtype=complex)
    for r0, r1, acc in zip(bounds, bounds[1:], seen[0]):
        ref[r0:r1, r0:] = acc
    ref = tril_index_mirror(ref)
    ref *= z_w
    assert np.array_equal(K.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("complex_part", [
    {"amplitude": 0.8 - 0.3j}, {"x_phase": 0.3}, {"xi_phase": -0.4}], ids=lambda d: next(iter(d)))
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_one_complex_part_takes_the_full_block(group, complex_part, monkeypatch):
    cfg = config(group, "off_centre",
                 lambda n: real_off_centre_symbol(n, **complex_part))
    assert not cfg.symbol.real
    K = berezin_matrix(cfg).kernel
    assert relative_gap(K, reference(cfg, "plain", monkeypatch)) <= TOL
    assert np.max(np.abs(K - K.conj().T)) > 1e-3 * np.max(np.abs(K))


def test_real_symbol_truth_table():
    alg = heisenberg()
    real = real_off_centre_symbol(3)
    table = [
        (real, True),
        (real_off_centre_symbol(3, amplitude=-2.0), True),
        (real_off_centre_symbol(3, amplitude=0.8 + 0j), True),
        (real_off_centre_symbol(3, amplitude=0.8 - 0.3j), False),
        (real_off_centre_symbol(3, x_phase=0.3), False),
        (real_off_centre_symbol(3, xi_phase=[0.0, 0.0, 0.1]), False),
        (off_centre_symbol(3), False),
        (TranslatedSymbol(real, alg, np.array([0.2, 0.1, -0.3])), True),
        (TranslatedSymbol(off_centre_symbol(3), alg, np.zeros(3)), False),
        (XiOnlySymbol.gaussian(3, center=0.4, sigma=0.7), True),
        (XiOnlySymbol.gaussian(3, phase=0.2), False),
        (XiOnlySymbol(None, 1, psi_field=Field(lambda p: np.ones(p.shape[:-1]), 1)), False),
        (DeltaSymbol.at([0.2], [0.1]), False),
        (PhaseSymbol.at([0.2], [0.1]), False),
        (XOnlySymbol(Field(lambda p: np.ones(p.shape[:-1]), 1), 1), False),
    ]
    for symbol, expected in table:
        assert symbol.real is expected, symbol
    assert XiSymbol().real is False


# -- reductions and rejected symbols -------------------------------------------

def assert_reductions_bitwise(cfg):
    plain = berezin_matrix(cfg).kernel
    n = cfg.algebra.dim
    assert np.array_equal(berezin_tau(cfg, tau_e(n)).kernel, plain)
    assert np.array_equal(mag_berezin(cfg, zero_potential(n)).kernel, plain)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_trivial_tau_and_zero_field_stay_bitwise(group):
    assert_reductions_bitwise(config(group, "off_centre"))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_trivial_tau_and_zero_field_stay_bitwise_on_real_symbol(group):
    assert_reductions_bitwise(config(group, "off_centre", real_off_centre_symbol))


# -- the magnetic dressing over node blocks ---------------------------------------

def per_node_rows(system, window, z, x):
    """`WeylSystem.coherent_rows` with the dressing taken one node at a
    time, as before it ran over node blocks."""
    zx = system.alg.bch(z, x)
    g = window(zx)
    phase = np.stack([system.dressing(p, x) for p in zx.reshape((-1,) + zx.shape[-2:])])
    return system.phase_points(z, zx), g * np.exp(-1j * phase.reshape(g.shape))


DRESSINGS = {
    "linear3": linear3_potential(0.6),
    "linear3-degree-unknown": VectorPotential(linear3_potential(0.6).fn, degree=None),
    "quadratic": VectorPotential(lambda p: 0.2 * p[..., ::-1] ** 2 - 0.3 * p, degree=2),
}


@pytest.mark.parametrize("budget", [1, 5000, 10 ** 9])
@pytest.mark.parametrize("potential", DRESSINGS)
def test_magnetic_dressing_blocks_are_bitwise_per_node(potential, budget, monkeypatch):
    """Blocks of two nodes, of a few, and one block of every node in a
    batch of row data give the per-node kernel bit for bit."""
    cfg = config("heisenberg:1", "off_centre")
    A = DRESSINGS[potential]
    with monkeypatch.context() as m:
        m.setattr(MagneticWeylSystem, "coherent_rows", per_node_rows)
        want = mag_berezin(cfg, A).kernel
    monkeypatch.setattr(coherent, "BLOCK_ENTRIES", budget)
    assert mag_berezin(cfg, A).kernel.tobytes() == want.tobytes()


@pytest.mark.parametrize("symbol", [
    DeltaSymbol.at([0.2], [0.1]),
    PhaseSymbol.at([0.2], [0.1]),
    XOnlySymbol(Field(lambda p: np.ones(p.shape[:-1]), 1), 1),
    XiOnlySymbol(None, 1, psi_field=Field(lambda p: np.ones(p.shape[:-1]), 1)),
], ids=lambda s: type(s).__name__)
def test_symbols_without_pair_exponent_raise_symbol_error(symbol):
    alg, grid, xi = line_grids()
    cfg = BerezinConfig(alg, make_window(alg, grid), grid, xi, symbol)
    with pytest.raises(SymbolError):
        berezin_kernel_points(cfg, grid.nodes())


# -- groups of z nodes against the per-node loop --------------------------------

def translated_symbol(n):
    alg = GROUPS["heisenberg:1" if n == 3 else "abelian:1"]()[0]
    return TranslatedSymbol(real_off_centre_symbol(n), alg, np.linspace(0.4, -0.3, n))


def xi_only_symbol(n):
    return XiOnlySymbol.gaussian(n, center=np.linspace(0.3, -0.2, n), sigma=0.8)


CHUNK_SYMBOLS = {"complex": off_centre_symbol, "real": real_off_centre_symbol,
                 "translated": translated_symbol, "xi_only": xi_only_symbol}
CHUNK_SCHEMES = ["plain", "points", "covariance", "row", "tau", "magnetic"]

# a group's member sum rounds differently from the node-by-node sum; these
# comparisons held bitwise before the central z axes were summed in groups
GROUP_TOL = 1e-13


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("scheme", CHUNK_SCHEMES)
@pytest.mark.parametrize("kind", sorted(CHUNK_SYMBOLS))
def test_chunks_match_per_node_loop(group, window, scheme, kind, monkeypatch):
    cfg = config(group, window, CHUNK_SYMBOLS[kind])
    K = quantize(cfg, scheme)
    ref = reference(cfg, scheme, monkeypatch, per_node_split)
    assert K.shape == ref.shape
    assert np.all(np.isfinite(K))
    assert np.max(np.abs(ref)) > 0
    assert relative_gap(K, ref) <= GROUP_TOL


def recording(row_data, shapes):
    def row(z):
        shapes.append(np.shape(z))
        return row_data(z)
    return row


def plain_row(alg, window, points):
    def row(z):
        zx = alg.bch(z, points)
        return zx, window(zx)
    return row


def z_groups(cfg):
    return cfg.z_groups(WeylSystem(cfg.algebra))


# (groups, members) of the plain system's z quadrature in `config`: the 4^3
# H1 grid in groups along its central axis, the line's 32 nodes in one group
GROUPINGS = {"heisenberg:1": (16, 4), "abelian:1": (1, 32)}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_first_node_alone_then_chunks_of_the_rule(group):
    """The first node alone, which fixes m and k, then batches of
    max(1, CHUNK_ENTRIES // (m k + M (m + k))) groups of M members with a
    short last one."""
    cfg = config(group, "off_centre", real_off_centre_symbol)
    alg, x = cfg.algebra, cfg.g_grid.nodes()
    z_nodes, z_w = z_groups(cfg)
    (groups, members), m, n = z_nodes.shape[:2], len(x), alg.dim
    assert (groups, members) == GROUPINGS[group]
    chunk = CHUNK_ENTRIES // (m * m + members * 2 * m)
    full, rest = divmod(groups, chunk)
    assert 1 < chunk and (groups == 1 or rest != 0)
    shapes = []
    row = plain_row(alg, cfg.window, x)
    K = assemble_kernel(cfg.symbol, z_nodes, z_w, recording(row, shapes))
    batches = [(chunk, members, 1, n)] * full + [(rest, members, 1, n)] * (rest > 0)
    assert shapes == [(n,)] + batches
    assert relative_gap(K, per_node_split(cfg.symbol, z_nodes, z_w, row)) <= GROUP_TOL


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_last_chunk_of_one_node(group):
    """Flat nodes are groups of one; a last chunk of one node is passed as
    one group (1, 1, 1, n)."""
    cfg = config(group, "off_centre")
    alg, x = cfg.algebra, cfg.g_grid.nodes()
    chunk = CHUNK_ENTRIES // (len(x) ** 2 + 2 * len(x))
    z_nodes, z_w = cfg.z_quadrature()[0][:chunk + 1], cfg.z_quadrature()[1]
    shapes = []
    row = plain_row(alg, cfg.window, x)
    K = assemble_kernel(cfg.symbol, z_nodes, z_w, recording(row, shapes))
    assert shapes == [(alg.dim,), (chunk, 1, 1, alg.dim), (1, 1, 1, alg.dim)]
    assert relative_gap(K, per_node_split(cfg.symbol, z_nodes, z_w, row)) <= GROUP_TOL


def test_one_pair_exponent_call_per_chunk(monkeypatch):
    """A 1 x 48 row: 675 groups of one fit in one chunk, and so does the
    line's one group of 32 members; the pair split is taken once per chunk,
    the prefactor at every member."""
    alg, grid, xi = line_grids()
    window = make_window(alg, grid)
    x = grid.nodes()
    symbol = real_off_centre_symbol(1)
    calls = []
    pair = GaussianSymbol.hat2_pair_exponent

    def counted(self, z, P, Q):
        calls.append((np.shape(z), np.shape(P)))
        return pair(self, z, P, Q)

    monkeypatch.setattr(GaussianSymbol, "hat2_pair_exponent", counted)
    row, col = plain_row(alg, window, x[:1]), plain_row(alg, window, x)
    flat = assemble_kernel(symbol, xi.g_grid.nodes(), xi.g_grid.weight, row, col)
    assert calls == [((32, 1, 1), (32, 1, 1))]
    grouped = assemble_kernel(symbol, xi.g_grid.grouped_nodes((0,)), xi.g_grid.weight, row, col)
    assert calls[1:] == [((1, 32, 1), (1, 1, 1))]
    assert relative_gap(grouped, flat) <= GROUP_TOL


def batch_of(m, k, members=1):
    """Groups per row-data batch when a term chunk is one group."""
    return CHUNK_ENTRIES // (8 * members * (m + k))


@pytest.mark.parametrize("kind", sorted(CHUNK_SYMBOLS))
def test_one_node_per_chunk_at_large_m(kind, monkeypatch):
    """m * m + 2 m > CHUNK_ENTRIES / 2: every term chunk is a single node,
    while the row data comes as the first node alone, then batches of
    CHUNK_ENTRIES // (8 (m + k)) nodes and a short last batch."""
    alg = abelian(1)
    grid = Grid.box(1, 8.0, 256)
    window = make_window(alg, grid, sigma=0.8, center=[0.9])
    assert CHUNK_ENTRIES // (grid.size ** 2 + 2 * grid.size) <= 1
    z_grid = Grid.box(1, 8.0, 40)
    batch = batch_of(grid.size, grid.size)
    full, rest = divmod(z_grid.size, batch)
    assert full >= 2 and rest > 1
    symbol = CHUNK_SYMBOLS[kind](1)
    shapes, terms = [], []
    add_terms = berezin._add_terms

    def recorded(blocks, accs, groups):
        terms.append(groups.stop - groups.start)
        add_terms(blocks, accs, groups)

    row = plain_row(alg, window, grid.nodes())
    with monkeypatch.context() as m:
        m.setattr(berezin, "_add_terms", recorded)
        K = assemble_kernel(symbol, z_grid.nodes(), z_grid.weight, recording(row, shapes))
    ref = per_node_split(symbol, z_grid.nodes(), z_grid.weight, row)
    assert shapes == [(1,)] + [(batch, 1, 1, 1)] * full + [(rest, 1, 1, 1)]
    assert terms == [1] * z_grid.size
    assert relative_gap(K, ref) <= GROUP_TOL


def h1_large(symbol):
    """The benchmark's H1 sizes: m = 343 rows against 125 z nodes."""
    alg = heisenberg()
    grid, xi = Grid.box(3, 4.5, 7), XiGrid.box(3, 3.5, 5)
    return BerezinConfig(alg, make_window(alg, grid), grid, xi, symbol(3))


@pytest.mark.parametrize("scheme", ["plain", "tau", "magnetic", "points"])
@pytest.mark.parametrize("kind", sorted(CHUNK_SYMBOLS))
def test_h1_batches_match_per_node_loop(kind, scheme, monkeypatch):
    """At m = 343 the 125 z nodes are 25 groups of 5, a term chunk is one
    group, and the row data of 2 groups is prepared at once.  Real symbols
    take the Hermitian half; complex symbols take the full block, split
    into row ranges above CHUNK_ENTRIES entries, and so do distinct row and
    column points."""
    cfg = h1_large(CHUNK_SYMBOLS[kind])
    m = cfg.g_grid.size
    groups, members = z_groups(cfg)[0].shape[:2]
    assert (groups, members) == (25, 5)
    assert CHUNK_ENTRIES // (m * m + members * 2 * m) < 1
    assert groups // batch_of(m, m, members) >= 2
    K = quantize(cfg, scheme)
    ref = reference(cfg, scheme, monkeypatch, per_node_split)
    assert np.all(np.isfinite(K))
    assert np.max(np.abs(ref)) > 0
    assert relative_gap(K, ref) <= GROUP_TOL


def traced_peak(assemble, *args):
    tracemalloc.start()
    try:
        assemble(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_h1_one_node_chunks_peak_no_higher_than_per_node_loop(kind):
    """At m = 343 a term chunk is one group.  Flat, the row data comes in
    batches of 11 nodes, two full ones here; grouped along the central
    axis, the 27 nodes are 9 groups of 3.  The Hermitian half (real symbol)
    and the full block in row ranges (complex symbol) need no more memory
    than the per-node loop either way."""
    alg = heisenberg()
    grid, z_grid = Grid.box(3, 4.5, 7), Grid.box(3, 3.5, 3)
    window = make_window(alg, grid)
    symbol = CHUNK_SYMBOLS[kind](3)
    row = plain_row(alg, window, grid.nodes())
    assert CHUNK_ENTRIES // (grid.size ** 2 + 2 * grid.size) < 1
    assert z_grid.size // batch_of(grid.size, grid.size) >= 2
    for z_nodes in (z_grid.nodes(), z_grid.grouped_nodes(alg.central_axes)):
        args = (symbol, z_nodes, z_grid.weight, row)
        assert traced_peak(assemble_kernel, *args) <= traced_peak(per_node_split, *args)


@pytest.mark.parametrize("nodes", [1024, 8192])
def test_line_row_chunk_memory_is_bounded(nodes):
    """A 1 x 128 row takes 255 groups of one per chunk: the rule
    c (2k + 1) <= CHUNK_ENTRIES holds a chunk to CHUNK_ENTRIES / 2 entries
    and as many column values.  An entry's exponent and term take 24 bytes
    and a line column value about 140 (phase points, window values, member
    operands, the pair-exponent temporaries), so the peak stays under
    4 CHUNK_ENTRIES * 24 bytes however many nodes there are (all 8192 nodes
    at once would need 25 MB of exponent and term buffers alone).  As one
    group, the nodes split into equal groups of at most CHUNK_ENTRIES //
    (1 + 128) members, under the same bound."""
    alg = abelian(1)
    grid, z_grid = Grid.box(1, 10.0, 128), Grid.box(1, 10.0, nodes)
    window = make_window(alg, grid)
    x = grid.nodes()
    for z_nodes in (z_grid.nodes(), z_grid.grouped_nodes((0,))):
        args = (real_off_centre_symbol(1), z_nodes, z_grid.weight,
                plain_row(alg, window, x[:1]), plain_row(alg, window, x))
        assert traced_peak(assemble_kernel, *args) < 4 * CHUNK_ENTRIES * 24
