"""Bargmann maps over blocks of z nodes, and per-component coordinate
arithmetic, against the whole-array routes they replaced: the whole-grid
Fourier-Wigner transform, the per-node adjoint Bargmann map, the per-row
sampled quantizer, the broadcast X + Y of the BCH product and the broadcast
(t - c) / sigma of the Gaussian.  Where the arithmetic per node is
unchanged every value must be bitwise equal, for every block size and at
the block edges: blocks of two nodes, a partial last block, a block larger
than the grid and a grid of one z node.  Two routes regroup their sums and
match at `MOVED_TOL` relative instead: the Fourier-Wigner transform of
moved phase points (the tau systems), whose phase sum runs axis by axis
(`dual_phase_from_points`) where the reference takes one dense exp per z
node, and the adjoint Bargmann map, which sums the z nodes in central
groups with the member phases folded into h.  That map must still be
bitwise equal to itself across block budgets."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilquant import coherent
from nilquant.algebra import _components, _run_bch, abelian, engel, heisenberg
from nilquant.coherent import (NyquistWarning, PhasePoint, WeylSystem, bargmann_adjoint,
                               fourier_wigner, make_window, node_blocks, reproducing_apply)
from nilquant.fields import Field, GaussianFactor, XiSamples, gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import linear3_potential, magnetic_system
from nilquant.pseudodiff import op_quantize_samples
from nilquant.tau import scaled_tau, symmetric_tau, tau_id, tau_system
from nilquant.transforms import dual_phase_points

from test_bch_program import strictly_upper
from test_central_groups import random_algebra


#: moved phase points against the dense per-node route, relative max-abs
MOVED_TOL = 1e-13


def bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def assert_close(got, want):
    """Within `MOVED_TOL` relative max-abs."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= MOVED_TOL * np.max(np.abs(want))


def assert_matches_whole_grid(system, got, want):
    """Bitwise, but within `MOVED_TOL` relative where the points move."""
    if system.moves_points:
        assert_close(got, want)
    else:
        assert bits(got) == bits(want)


# -- the whole-array routes the blocked ones replaced ------------------------

def ref_bch(alg, X, Y):
    """BCH product started from the broadcast sum X + Y."""
    X, Y = np.asarray(X, float), np.asarray(Y, float)
    out = X + Y
    if alg._bch_program:
        letters = (_components(X), _components(Y))
        _run_bch(alg._bch_program, letters, letters[1], _components(out),
                 np.empty(out.shape[:-1]))
    return out


def ref_gaussian(g: GaussianFactor, t):
    """The Gaussian with its offsets broadcast as (t - center) / sigma."""
    t = np.asarray(t, float)
    d = (t - g.center) / g.sigma
    quad = -0.5 * np.einsum("...i,...i->...", d, d)
    if not g.phase.any():
        return np.multiply(g.amplitude, np.exp(quad), dtype=complex)
    ph = np.einsum("...i,i->...", t, g.phase)
    return g.amplitude * np.exp(quad + 1j * ph)


def ref_field(u: Field):
    return lambda p: ref_gaussian(u.fn, p)


def ref_window(w):
    """`make_window`'s default: the unit Gaussian, renormalized on its grid."""
    g = GaussianFactor.make(w.field.n, None, 1.0, None, None)
    return lambda p: ref_gaussian(g, p) * (1.0 / w.raw_norm)


def ref_dual_phase_points(h, x, dual_grid, sign):
    """One row: the outer-product factors, multiplied out of place."""
    x = np.asarray(x, float)
    axes = dual_grid.axes()
    T = np.reshape(h, (-1, len(axes[-1]))) @ np.exp((sign * 1j) * np.outer(axes[-1], x[:, -1]))
    for k in range(dual_grid.n - 2, -1, -1):
        factor = np.exp((sign * 1j) * np.outer(axes[k], x[:, k]))
        T = np.sum(T.reshape(-1, len(axes[k]), len(x)) * factor, axis=1)
    return T.reshape(len(x))


def ref_wigner(system: WeylSystem, u, v, g_grid, xi_grid):
    """Every (z, y) pair at once, then the phase sum on the whole grid."""
    from nilquant.transforms import dual_phase_grid

    alg = system.alg
    z_nodes, zeta_nodes = xi_grid.node_pairs()
    y = g_grid.nodes()
    back = ref_bch(alg, -z_nodes[:, None, :], y[None, :, :])
    g_zy = u(back) * np.conjugate(v(y))[None, :]
    if system.dressed:
        for row, b in zip(g_zy, back):
            row *= np.exp(1j * system.dressing(y, b))
    if not system.moves_points:
        return g_grid.weight * dual_phase_grid(g_zy, g_grid, xi_grid.dual_grid, 1)
    vals = np.empty((len(z_nodes), len(zeta_nodes)), dtype=complex)
    for i, z in enumerate(z_nodes):
        points = ref_bch(alg, -system.tau(z), y)
        vals[i] = g_grid.weight * (g_zy[i] @ np.exp(1j * (points @ zeta_nodes.T)))
    return vals


def ref_bargmann_adjoint(alg, window, h, targets):
    """One z node at a time, its row added into the sum."""
    dual_grid = h.xi_grid.dual_grid
    acc = np.zeros(len(targets), dtype=complex)
    for i, z in enumerate(h.xi_grid.g_grid.nodes()):
        zx = ref_bch(alg, z, targets)
        acc += window(zx) * ref_dual_phase_points(h.values[i, :], zx, dual_grid, -1)
    return h.xi_grid.weight * acc


def ref_op_kernel(alg, a_samples, grid, dual_grid):
    """One kernel row at a time."""
    x = grid.nodes()
    V = ref_bch(alg, x[:, None, :], -x[None, :, :])
    K = np.empty((len(x), len(x)), dtype=complex)
    for i in range(len(x)):
        K[i] = dual_grid.weight * ref_dual_phase_points(a_samples[i], V[i], dual_grid, 1)
    return K


# -- set-ups: unequal counts per axis, z counts that leave partial blocks ---

CASES = {
    "abelian:1": (lambda: abelian(1), Grid((6.0,), (24,)), Grid((5.0,), (13,)),
                  Grid((1.8,), (7,), dual=True)),
    "heisenberg:1": (heisenberg, Grid((3.0, 2.5, 3.5), (7, 6, 8)),
                     Grid((2.0, 1.5, 2.5), (3, 2, 4)),
                     Grid((2.4, 2.1, 1.9), (4, 5, 3), dual=True)),
    "engel": (engel, Grid((3.0, 2.5, 2.0, 3.0), (4, 5, 3, 6)),
              Grid((1.5, 1.0, 1.2, 0.8), (2, 3, 1, 2)),
              Grid((1.4, 1.9, 1.6, 2.2), (3, 2, 4, 5), dual=True)),
}

SYSTEMS = {
    "plain": lambda alg: WeylSystem(alg),
    "tau": lambda alg: tau_system(alg, symmetric_tau(alg)),
    "magnetic": lambda alg: magnetic_system(alg, linear3_potential(0.6)),
    "tau-id": lambda alg: tau_system(alg, tau_id()),
    "tau-scaled": lambda alg: tau_system(alg, scaled_tau(0.3)),
}

# the adjoint Bargmann map also runs where one group holds every z node
# (abelian:2: 12 members in chunks) and on strictly upper-triangular 4 x 4
# matrices, whose one central axis is index 2 of 6, not the last: the
# groups there do not run in node order, so a wrong permutation of h's
# rows fails
ADJOINT_CASES = {
    **CASES,
    "abelian:2": (lambda: abelian(2), Grid((3.0, 3.5), (8, 7)), Grid((2.0, 1.5), (4, 3)),
                  Grid((2.2, 1.9), (4, 5), dual=True)),
    "ut4": (lambda: strictly_upper(4), Grid((2.0, 2.2, 1.8, 2.4, 2.0, 1.6), (2, 2, 3, 2, 2, 3)),
            Grid((1.0, 0.8, 1.5, 0.9, 1.1, 0.7), (2, 1, 3, 2, 1, 2)),
            Grid((1.4, 1.2, 1.5, 1.3, 1.1, 1.6), (3, 2, 2, 2, 3, 2), dual=True)),
}

# BLOCK_ENTRIES as a function of the entries one node takes: blocks of two
# nodes (the smallest; 13 z nodes end in a block of three), of five (a
# partial last block on every case above), and one block larger than the grid
BLOCKS = {"pairs": lambda per_node: 1, "five": lambda per_node: 5 * per_node,
          "whole": lambda per_node: 10 ** 9}


def case(name, variant=0):
    """`variant` moves u's centre: no two tests compute equal results, so
    a block left unwritten cannot pass by holding the freed values of an
    earlier test."""
    make_alg, y_grid, z_grid, dual_grid = ADJOINT_CASES[name]
    alg = make_alg()
    n = alg.dim
    u = gaussian(n, 0.9, np.linspace(0.3, -0.2, n) + 0.05 * variant, np.linspace(-0.4, 0.5, n))
    v = gaussian(n, 1.1, np.linspace(-0.1, 0.2, n), np.linspace(0.3, -0.3, n))
    return alg, y_grid, XiGrid(z_grid, dual_grid), u, v


def variant(system, block):
    """A distinct small integer per pair of test parameters."""
    return list(SYSTEMS).index(system) * len(BLOCKS) + list(BLOCKS).index(block) + 1


def random_xi(xi, seed):
    rng = np.random.default_rng(seed)
    shape = (xi.g_grid.size, xi.dual_grid.size)
    return XiSamples(xi, rng.normal(size=shape) + 1j * rng.normal(size=shape))


@pytest.fixture(autouse=True)
def nyquist_is_an_error():
    # every set-up above keeps its dual box inside the Nyquist band
    with warnings.catch_warnings():
        warnings.simplefilter("error", NyquistWarning)
        yield


# -- the blocks ----------------------------------------------------------------

@pytest.mark.parametrize("count", [1, 2, 3, 5, 11, 16, 17, 216])
@pytest.mark.parametrize("budget", [1, 3, 5, 16, 10 ** 9])
def test_node_blocks_cover_in_order_without_a_lone_node(count, budget, monkeypatch):
    monkeypatch.setattr(coherent, "BLOCK_ENTRIES", budget)
    blocks = node_blocks(count, 1)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(count))
    sizes = [b.stop - b.start for b in blocks]
    size = max(2, budget)
    assert all(s == size for s in sizes[:-1])
    assert sizes[-1] == count if count == 1 else 2 <= sizes[-1] <= size + 1


def test_node_blocks_at_the_benchmark_sizes():
    # 216 z nodes against 1000 y nodes, against 1000 y nodes x 49 dual rows
    # (moved phase points), and against 100 targets x 49 dual rows; the 6
    # members of a central group of the adjoint map, against 100 targets x
    # 7 leading dual nodes, make one chunk
    assert [b.stop - b.start for b in node_blocks(216, 1000)] == [16] * 13 + [8]
    assert [b.stop - b.start for b in node_blocks(216, 1000 * 49)] == [2] * 108
    assert {b.stop - b.start for b in node_blocks(216, 100 * 49)} == {3}
    assert [b.stop - b.start for b in node_blocks(6, 100 * 7)] == [6]


# -- BCH and the Gaussian ------------------------------------------------------

@pytest.mark.parametrize("make_alg", [lambda: abelian(1), heisenberg, engel])
def test_bch_is_bitwise_the_broadcast_sum(make_alg):
    alg = make_alg()
    n = alg.dim
    rng = np.random.default_rng(1)
    X, Y = rng.normal(size=(6, 1, n)), rng.normal(size=(1, 9, n))
    for a, b in [(X, Y), (X[0, 0], Y[0, 0]), (X[2, 0], Y[0]), (Y, X), (X[:, 0], X[:, 0])]:
        assert bits(alg.bch(a, b)) == bits(ref_bch(alg, a, b))
    one = alg.bch(X[0, 0].tolist(), Y[0, 0].tolist())        # a single point
    assert one.shape == (n,)


@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("phase", [False, True])
def test_gaussian_is_bitwise_the_broadcast_evaluator(n, phase):
    g = GaussianFactor.make(n, center=np.linspace(-0.3, 0.4, n),
                            sigma=np.linspace(0.7, 1.3, n),
                            phase=np.linspace(0.5, -0.2, n) if phase else None,
                            amplitude=1.3 - 0.2j)
    rng = np.random.default_rng(2)
    t = rng.normal(size=(5, 7, n))
    strided = np.broadcast_to(t[:1], t.shape)               # a stride-0 axis
    for pts in (t, t[0], t[0, 0], strided, t[..., ::-1, :]):
        assert bits(g(pts)) == bits(ref_gaussian(g, pts))
    if not phase:   # points broadcast against the centre, as (t - c) / sigma did
        for pts in (0.5, t[..., :1]):
            assert bits(g(pts)) == bits(ref_gaussian(g, pts))
    single = g(t[0, 0])
    assert np.ndim(single) == 0


# -- the batch axis of dual_phase_points --------------------------------------

@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("shared", ["none", "leading", "all"])
def test_batched_dual_phase_points_is_bitwise_per_row(name, sign, shared):
    """Rows with their own points, rows sharing every coordinate but the
    last (one factor then serves the batch on those axes), and rows
    sharing all."""
    alg, _, xi, _, _ = case(name)
    dual = xi.dual_grid
    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 3.0, (5, 13, alg.dim))
    if shared == "leading":
        x[:, :, :-1] = x[0, :, :-1]
    elif shared == "all":
        x[:] = x[0]
    h = rng.normal(size=(5, dual.size)) + 1j * rng.normal(size=(5, dual.size))
    got = dual_phase_points(h, x, dual, sign)
    assert got.shape == (5, 13)
    for b in range(5):
        want = ref_dual_phase_points(h[b], x[b], dual, sign)
        assert bits(got[b]) == bits(want)
        assert bits(dual_phase_points(h[b], x[b], dual, sign)) == bits(want)


@pytest.mark.parametrize("name", ["abelian:1", "heisenberg:1"])
def test_dual_phase_points_without_points_or_rows_is_empty(name):
    alg, _, xi, _, _ = case(name)
    dual, n = xi.dual_grid, alg.dim
    h = np.ones((3, dual.size), dtype=complex)
    assert dual_phase_points(h, np.zeros((3, 0, n)), dual, 1).shape == (3, 0)
    assert dual_phase_points(h[0], np.zeros((0, n)), dual, -1).shape == (0,)
    assert dual_phase_points(h[:0], np.zeros((0, 4, n)), dual, -1).shape == (0, 4)


@pytest.mark.parametrize("name", ["abelian:1", "heisenberg:1", "abelian:2", "ut4"])
def test_bargmann_adjoint_at_no_targets_is_empty(name):
    alg, y_grid, xi, _, _ = case(name)
    got = bargmann_adjoint(alg, make_window(alg, y_grid), random_xi(xi, 3),
                           np.zeros((0, alg.dim)))
    assert got.shape == (0,) and got.dtype == complex


# -- the blocked maps ----------------------------------------------------------

@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name, system", [(name, system) for name in CASES for system in SYSTEMS
                                          # linear3 lives on a 3-dimensional group
                                          if system != "magnetic" or name == "heisenberg:1"])
def test_wigner_is_bitwise_the_whole_grid_route(name, system, block, monkeypatch):
    alg, y_grid, xi, u, v = case(name, variant(system, block))
    sys_ = SYSTEMS[system](alg)
    dual = xi.dual_grid
    per_node = y_grid.size * (dual.size // dual.counts[0] if sys_.moves_points else 1)
    monkeypatch.setattr(coherent, "BLOCK_ENTRIES", BLOCKS[block](per_node))
    got = sys_.wigner(u, v, y_grid, xi).values
    assert_matches_whole_grid(sys_, got, ref_wigner(sys_, ref_field(u), ref_field(v),
                                                    y_grid, xi))


@pytest.mark.parametrize("system", SYSTEMS)
def test_wigner_on_one_z_node(system):
    alg, y_grid, _, u, v = case("heisenberg:1")
    xi = XiGrid(Grid((1.0, 1.0, 1.0), (1, 1, 1)), CASES["heisenberg:1"][3])
    sys_ = SYSTEMS[system](alg)
    got = sys_.wigner(u, v, y_grid, xi).values
    assert got.shape == (1, xi.dual_grid.size)
    assert_matches_whole_grid(sys_, got, ref_wigner(sys_, ref_field(u), ref_field(v),
                                                    y_grid, xi))


def adjoint_budget(xi, targets):
    """Entries of the adjoint map's Khatri-Rao product per member of a group."""
    return len(targets) * xi.dual_grid.counts[0]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", ADJOINT_CASES)
def test_bargmann_adjoint_is_bitwise_per_node(name, block, monkeypatch):
    """Named for the route it replaced: the central groups regroup the sum,
    so the map matches the per-node reference within `MOVED_TOL`."""
    alg, y_grid, xi, _, _ = case(name)
    w = make_window(alg, y_grid)
    targets = y_grid.nodes()[::7]
    monkeypatch.setattr(coherent, "BLOCK_ENTRIES", BLOCKS[block](adjoint_budget(xi, targets)))
    h = random_xi(xi, variant("plain", block))
    got = bargmann_adjoint(alg, w, h, targets)
    assert_close(got, ref_bargmann_adjoint(alg, ref_window(w), h, targets))


@pytest.mark.parametrize("name", ADJOINT_CASES)
def test_bargmann_adjoint_is_bitwise_across_block_budgets(name, monkeypatch):
    alg, y_grid, xi, _, _ = case(name)
    w = make_window(alg, y_grid)
    targets = y_grid.nodes()[::3]
    h = random_xi(xi, 11)
    given = bits(h.values)
    got = {}
    for block, budget in BLOCKS.items():
        monkeypatch.setattr(coherent, "BLOCK_ENTRIES", budget(adjoint_budget(xi, targets)))
        got[block] = bits(bargmann_adjoint(alg, w, h, targets))
    assert got["pairs"] == got["five"] == got["whole"]
    assert bits(h.values) == given          # the member phases fold into copies


@pytest.mark.parametrize("name", ADJOINT_CASES)
def test_bargmann_adjoint_on_one_z_node(name):
    alg, y_grid, xi, _, _ = case(name)
    n = alg.dim
    one = XiGrid(Grid((1.0,) * n, (1,) * n), xi.dual_grid)
    w = make_window(alg, y_grid)
    targets = y_grid.nodes()[::5]
    h = random_xi(one, 12)
    got = bargmann_adjoint(alg, w, h, targets)
    assert_close(got, ref_bargmann_adjoint(alg, ref_window(w), h, targets))


@settings(max_examples=20, deadline=None)
@given(k=st.sampled_from([3, 4]), seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from(list(BLOCKS)))
def test_bargmann_adjoint_on_random_algebras(k, seed, block):
    """Random level bases of the strictly upper-triangular algebras: the
    central and first-layer axes are whichever the basis gives."""
    alg = random_algebra(k, seed)
    n = alg.dim
    rng = np.random.default_rng(seed)
    y_grid = Grid.box(n, 2.0, 2)                       # pi / h = 1.57
    central = alg.central_axes
    z_grid = Grid(tuple(rng.uniform(0.5, 1.5, n)),
                  tuple(3 if a in central else 2 if a < 2 else 1 for a in range(n)))
    xi = XiGrid(z_grid, Grid(tuple(rng.uniform(0.8, 1.5, n)), (2,) * n, dual=True))
    w = make_window(alg, y_grid)
    targets = rng.uniform(-2.0, 2.0, (9, n))
    h = random_xi(xi, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coherent, "BLOCK_ENTRIES", BLOCKS[block](adjoint_budget(xi, targets)))
        got = bargmann_adjoint(alg, w, h, targets)
    assert_close(got, ref_bargmann_adjoint(alg, ref_window(w), h, targets))


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", CASES)
def test_reproducing_apply_and_sampled_quantizer_are_bitwise(name, block, monkeypatch):
    alg, y_grid, xi, _, _ = case(name)
    n = alg.dim
    w = make_window(alg, y_grid)
    h = random_xi(xi, variant("tau", block))
    p = PhasePoint(np.full(n, 0.2), np.full(n, -0.3))
    monkeypatch.setattr(coherent, "BLOCK_ENTRIES", BLOCKS[block](y_grid.size))
    state = coherent.coherent_state(alg, w, p)
    column = ref_wigner(WeylSystem(alg), state, ref_window(w), y_grid, xi)
    want = complex(xi.weight * np.sum(np.conjugate(column) * h.values))
    assert bits(reproducing_apply(alg, w, h, p, y_grid)) == bits(want)

    grid, dual = xi.g_grid, xi.dual_grid
    monkeypatch.setattr(coherent, "BLOCK_ENTRIES",
                        BLOCKS[block](grid.size * (dual.size // dual.counts[-1])))
    got = op_quantize_samples(alg, h.values, grid, dual).kernel
    assert bits(got) == bits(ref_op_kernel(alg, h.values, grid, dual))


def test_fourier_wigner_peaks_below_one_whole_grid_array():
    """At the benchmark's H1 sizes (216 z nodes, 1000 y nodes, 343 dual
    nodes) the blocked transform never holds a complex (z, y) array."""
    alg = heisenberg()
    grid = Grid.box(3, 3.5, 10)
    xi = XiGrid.box(3, 4.0, 6, dual_half_width=4.4, dual_count=7)
    w = make_window(alg, grid)
    u = gaussian(3, 1.1, [0.2, -0.1, 0.3], [0.2, 0.1, -0.3])
    small = XiGrid.box(3, 4.0, 2, dual_half_width=4.4, dual_count=7)
    fourier_wigner(alg, u, w.field, grid, small)    # fill the phase-factor cache
    tracemalloc.start()
    try:
        fourier_wigner(alg, u, w.field, grid, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < xi.g_grid.size * grid.size * np.dtype(complex).itemsize


def test_moved_point_wigner_peaks_below_one_dense_phase_matrix():
    """At the benchmark's H1 sizes the symmetric tau transform never holds
    the 1000 x 343 complex phase matrix that the dense route took per z
    node; its factors hold 1000 x 49 entries per node of a block."""
    alg = heisenberg()
    grid = Grid.box(3, 3.5, 10)
    xi = XiGrid.box(3, 4.0, 6, dual_half_width=4.4, dual_count=7)
    w = make_window(alg, grid)
    u = gaussian(3, 1.1, [0.2, -0.1, 0.3], [0.2, 0.1, -0.3])
    system = tau_system(alg, symmetric_tau(alg))
    system.wigner(u, w.field, grid, XiGrid.box(3, 4.0, 2, dual_half_width=4.4, dual_count=7))
    tracemalloc.start()
    try:
        system.wigner(u, w.field, grid, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.size * xi.dual_grid.size * np.dtype(complex).itemsize
