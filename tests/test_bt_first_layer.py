"""The Berezin transform with its first-layer phases on the y side, against
the route it replaced (one complex exp per (a, alpha, z, y)) and against one
Bargmann transform per point: on the line, H1, Engel and random nilpotent
algebras with random Gaussian symbols and windows; the first-layer axes
themselves, empty point sets and the memory of a call at the symbols-line
sizes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilquant import covariant
from nilquant.algebra import abelian, engel, heisenberg
from nilquant.berezin import BerezinConfig
from nilquant.coherent import PhasePoint, make_window
from nilquant.covariant import _berezin_transform_points, berezin_transform_nodes
from nilquant.fields import sample_xi
from nilquant.grids import Grid, XiGrid
from nilquant.symbols import GaussianSymbol
from nilquant.transforms import dual_phase_grid

from test_bch_program import strictly_upper
from test_central_groups import random_algebra
from test_phase_free_and_reuse import BT_TOL, bt_case, per_point_bt, relative_gap

# The dropped factor e^{-i alpha_k (a_k - z_k)} is unimodular and cancels in
# |.|^2 exactly; the two routes differ only in the rounding of the phase
# arguments and of the products, observed at most 4e-16 relative.
FIRST_LAYER_TOL = 1e-13

# tracemalloc peak of one berezin_transform_nodes call at the symbols-line
# sizes (128 z, y and dual nodes, 12 x 12 coarse nodes) on the route with one
# complex exp per (a, alpha, z, y): 4.33 MB.  The first-layer route holds one
# group's (N_z, N_y) phase beside the chunk's block and measured 4.23 MB.
REPLACED_ROUTE_PEAK = 4_340_000


def per_alpha_exp_bt(cfg, a_nodes, alpha_nodes):
    """The route the batch took before the first-layer phases moved to the y
    side: exp(-i <a z^{-1} y | alpha>) for every (a, alpha, z, y), one dual
    point at a time."""
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


def engel_case():
    alg, n = engel(), 4
    grid, xi = Grid.box(4, 2.5, 4), XiGrid.box(4, 2.5, 3, 1.5, 3)
    coarse = XiGrid.box(4, 1.5, 2, 1.0, 2)
    w = make_window(alg, grid, 0.9, 0.1 * np.arange(1, n + 1))
    sym = GaussianSymbol.make(n, amplitude=1.2 - 0.4j, x_center=0.2, x_sigma=1.1,
                              x_phase=0.3, xi_center=-0.1, xi_sigma=0.9, xi_phase=0.2)
    return BerezinConfig(alg, w, grid, xi, sym), coarse


# ---------------------------------------------------------------------------
# the first-layer axes
# ---------------------------------------------------------------------------

def test_first_layer_axes():
    for n in (1, 2, 3):
        assert abelian(n).first_layer_axes == tuple(range(n))
    assert heisenberg().first_layer_axes == (0, 1)
    assert engel().first_layer_axes == (0, 1)
    # E_{01}, E_{12}, E_{23} in the basis E_ij, i < j, of the 4 x 4 algebra;
    # on H1 and Engel the first layer is also the leading axes, here it is not
    assert strictly_upper(4).first_layer_axes == (0, 3, 5)
    assert strictly_upper(5).first_layer_axes == (0, 4, 7, 9)


@pytest.mark.parametrize("alg", [abelian(2), heisenberg(), engel(), strictly_upper(4),
                                 random_algebra(4, 3)],
                         ids=["abelian:2", "heisenberg:1", "engel", "ut4", "random ut4"])
def test_first_layer_coordinates_are_plain_sums(alg):
    rng = np.random.default_rng(4)
    X, Y = rng.normal(size=(2, 50, alg.dim))
    first = list(alg.first_layer_axes)
    assert np.array_equal(alg.bch(X, Y)[:, first], X[:, first] + Y[:, first])


# ---------------------------------------------------------------------------
# against the replaced route and one Bargmann transform per point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chunk", ["one block", "one dual node per block"])
@pytest.mark.parametrize("group", ["line", "h1", "engel"])
def test_matches_the_per_alpha_exp_route(group, chunk, monkeypatch):
    cfg, coarse = engel_case() if group == "engel" else bt_case(group)
    if chunk != "one block":
        monkeypatch.setattr(covariant, "BT_CHUNK_ENTRIES", 1)
    got = berezin_transform_nodes(cfg, coarse)
    want = per_alpha_exp_bt(cfg, *coarse.node_pairs()).reshape(-1)
    assert got.shape == want.shape
    assert relative_gap(got, want) <= FIRST_LAYER_TOL


def test_engel_matches_per_point_route():
    cfg, coarse = engel_case()
    got = berezin_transform_nodes(cfg, coarse)
    z, zeta = coarse.node_pairs()
    want = np.array([per_point_bt(cfg, PhasePoint(a, b)) for a in z for b in zeta])
    assert relative_gap(got, want) <= BT_TOL


def random_case(k, seed):
    """Two nodes per axis on every grid of the k x k algebra; the coarse
    points vary along one first-layer and one other axis of both the group
    and the dual, so the dual points fall into two groups of two."""
    alg = random_algebra(k, seed)
    n = alg.dim
    rng = np.random.default_rng(seed)
    grid = Grid.box(n, 1.5, 2)  # Nyquist band pi/h = 2.09
    xi = XiGrid(Grid.box(n, 1.8, 2), Grid.box(n, 1.2, 2, dual=True))
    w = make_window(alg, grid, sigma=rng.uniform(0.7, 1.3), center=rng.uniform(-0.3, 0.3, n))
    sym = GaussianSymbol.make(n, amplitude=complex(*rng.uniform(-1.0, 1.0, 2)) + 0.5,
                              x_center=rng.uniform(-0.5, 0.5, n),
                              x_sigma=rng.uniform(0.7, 1.4), x_phase=rng.uniform(-0.3, 0.3, n),
                              xi_center=rng.uniform(-0.5, 0.5, n),
                              xi_sigma=rng.uniform(0.7, 1.4), xi_phase=rng.uniform(-0.3, 0.3, n))
    first = list(alg.first_layer_axes)
    rest = [k for k in range(n) if k not in first]
    moved = [int(rng.choice(first)), int(rng.choice(rest))]
    counts = [2 if k in moved else 1 for k in range(n)]
    coarse = XiGrid(Grid(tuple(rng.uniform(0.5, 1.5, n)), counts),
                    Grid(tuple(rng.uniform(0.5, 1.2, n)), counts, dual=True))
    return BerezinConfig(alg, w, grid, xi, sym), coarse


@settings(max_examples=25, deadline=None)
@given(k=st.integers(3, 4), seed=st.integers(0, 2**32 - 1), chunked=st.booleans())
def test_random_algebras_match_both_routes(k, seed, chunked):
    cfg, coarse = random_case(k, seed)
    with pytest.MonkeyPatch.context() as m:
        if chunked:
            m.setattr(covariant, "BT_CHUNK_ENTRIES", 1)
        got = berezin_transform_nodes(cfg, coarse)
    z, zeta = coarse.node_pairs()
    assert got.shape == (coarse.size,) and np.all(np.isfinite(got))
    assert relative_gap(got, per_alpha_exp_bt(cfg, z, zeta).reshape(-1)) <= FIRST_LAYER_TOL
    want = np.array([per_point_bt(cfg, PhasePoint(a, b)) for a in z for b in zeta])
    assert relative_gap(got, want) <= BT_TOL


@pytest.mark.parametrize("group", ["line", "h1"])
def test_no_group_points_or_no_dual_points(group):
    cfg, coarse = bt_case(group)
    z, zeta = coarse.node_pairs()
    n = cfg.algebra.dim
    for a, alpha, shape in ((z[:0], zeta, (0, len(zeta))), (z, zeta[:0], (len(z), 0)),
                            (np.empty((0, n)), np.empty((0, n)), (0, 0))):
        out = _berezin_transform_points(cfg, a, alpha)
        assert out.shape == shape and out.dtype == complex


def test_symbols_line_peak_no_higher_than_replaced_route():
    alg = abelian(1)
    grid, xi = Grid.box(1, 10.0, 128), XiGrid.box(1, 10.0, 128)
    sym = GaussianSymbol.make(1, amplitude=0.9 - 0.2j, x_center=0.3, x_sigma=1.0,
                              xi_center=-0.2, xi_sigma=1.1)
    cfg = BerezinConfig(alg, make_window(alg, grid), grid, xi, sym)
    coarse = XiGrid.box(1, 10.0, 12)
    berezin_transform_nodes(cfg, coarse)  # the cached axis factors are not the call's
    tracemalloc.start()
    try:
        berezin_transform_nodes(cfg, coarse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= REPLACED_ROUTE_PEAK
