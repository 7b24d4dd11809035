"""The central z axes of a Berezin kernel summed in groups, against the
per-node loop: on random nilpotent algebras (whose central axes need not be
the last ones), on Engel and the line, for the plain system, the tau systems
linear in the chart and a degree-1 potential; the fallback to groups of one
for a tau map that is not linear in the chart; the central axes themselves,
the grouped grid nodes and the split of groups too large for the budget."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilquant import berezin
from nilquant.algebra import abelian, engel, heisenberg, preset
from nilquant.berezin import (CHUNK_ENTRIES, BerezinConfig, _members, assemble_kernel,
                              berezin_kernel_points, berezin_matrix)
from nilquant.coherent import WeylSystem, make_window
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import VectorPotential, mag_berezin, magnetic_system
from nilquant.symbols import GaussianSymbol
from nilquant.tau import TauMap, berezin_tau, scaled_tau, tau_system

from oracles import (GROUP_TOL, per_node_split, random_algebra, rel_max, row_data,
                     strictly_upper)


def symbol(n, rng):
    return GaussianSymbol.make(n, amplitude=0.8 - 0.3j, x_center=rng.uniform(-0.5, 0.5, n),
                               x_sigma=0.9, x_phase=rng.uniform(-0.3, 0.3, n),
                               xi_center=rng.uniform(-0.5, 0.5, n), xi_sigma=1.1,
                               xi_phase=rng.uniform(-0.3, 0.3, n))


def setup(alg, rng, counts=2, central_count=3):
    """Two nodes per axis on the operator grid and on the z grid, but
    ``central_count`` on each central axis of z, so that groups have
    several members."""
    n = alg.dim
    z_counts = [central_count if k in alg.central_axes else counts for k in range(n)]
    grid = Grid.box(n, 1.5, counts)
    xi = XiGrid(Grid.box(n, 1.8, z_counts), Grid.box(n, 1.0, 2, dual=True))
    window = make_window(alg, grid, sigma=0.9, center=rng.uniform(-0.3, 0.3, n))
    return BerezinConfig(alg, window, grid, xi, symbol(n, rng))


def affine_potential(n, rng):
    M, b = rng.uniform(-0.5, 0.5, (n, n)), rng.uniform(-0.3, 0.3, n)
    return VectorPotential(lambda p: p @ M.T + b, name="affine", degree=1)


def quantize(cfg, scheme, rng):
    n = cfg.algebra.dim
    if scheme == "plain":
        return berezin_matrix(cfg).kernel
    if scheme == "points":
        x = cfg.g_grid.nodes()
        return berezin_kernel_points(cfg, x, x[::-1] + 0.2)
    if scheme == "magnetic":
        return mag_berezin(cfg, affine_potential(n, rng)).kernel
    return berezin_tau(cfg, scaled_tau(float(scheme.split(":")[1]))).kernel


def per_node(cfg, scheme, rng):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(berezin, "assemble_kernel", per_node_split)
        return quantize(cfg, scheme, rng)


SCHEMES = ["plain", "points", "tau:0.3", "tau:0.5", "tau:1.0", "magnetic"]


@settings(max_examples=30, deadline=None)
@given(k=st.integers(3, 4), seed=st.integers(0, 2**32 - 1), scheme=st.sampled_from(SCHEMES))
def test_groups_match_per_node_loop_on_random_algebras(k, seed, scheme):
    alg = random_algebra(k, seed)
    assert len(alg.central_axes) == 1
    cfg = setup(alg, np.random.default_rng(seed))
    groups, members, _ = cfg.z_groups(WeylSystem(alg))[0].shape
    assert members == 3 and groups * members == cfg.xi_grid.g_grid.size
    K = quantize(cfg, scheme, np.random.default_rng(seed))
    ref = per_node(cfg, scheme, np.random.default_rng(seed))
    assert np.all(np.isfinite(K)) and np.max(np.abs(ref)) > 0
    assert rel_max(K, ref) <= GROUP_TOL


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["engel", "abelian:2"])
def test_groups_match_per_node_loop(name, scheme):
    alg = preset(name)
    rng = np.random.default_rng(11)
    cfg = setup(alg, rng, counts=3, central_count=4)
    K = quantize(cfg, scheme, np.random.default_rng(5))
    ref = per_node(cfg, scheme, np.random.default_rng(5))
    assert rel_max(K, ref) <= GROUP_TOL


def test_nonlinear_tau_takes_groups_of_one():
    alg = heisenberg()
    rng = np.random.default_rng(2)
    cfg = setup(alg, rng, counts=3, central_count=4)
    tau = TauMap(lambda p: np.tanh(p) * 0.4, name="tanh")
    system = tau_system(alg, tau)
    assert not system.shifts_with_centre
    z_nodes, _ = cfg.z_groups(system)
    assert z_nodes.shape == (cfg.xi_grid.g_grid.size, 1, 3)
    assert np.array_equal(z_nodes[:, 0], cfg.xi_grid.g_grid.nodes())
    K = berezin_tau(cfg, tau).kernel
    with pytest.MonkeyPatch.context() as m:
        m.setattr(berezin, "assemble_kernel", per_node_split)
        ref = berezin_tau(cfg, tau).kernel
    assert rel_max(K, ref) <= GROUP_TOL
    for s in (0.0, 0.5, 1.0):
        assert tau_system(alg, scaled_tau(s)).shifts_with_centre
    assert magnetic_system(alg, affine_potential(3, rng)).shifts_with_centre


def test_central_axes():
    for n in (1, 2, 3, 5):
        assert abelian(n).central_axes == tuple(range(n))
    assert heisenberg().central_axes == (2,)
    assert engel().central_axes == (3,)
    # the centre of the strictly upper-triangular algebra is E_{0,k-1}, not
    # the last basis vector
    assert strictly_upper(4).central_axes == (2,)
    assert strictly_upper(5).central_axes == (3,)


def test_grouped_nodes_cover_the_grid():
    grid = Grid.box(3, (1.0, 2.0, 3.0), (2, 3, 4))
    nodes = grid.nodes()
    assert np.array_equal(grid.grouped_nodes(()), nodes[:, None, :])
    for axes in [(2,), (1,), (0, 2), (0, 1, 2)]:
        groups = grid.grouped_nodes(axes)
        members = int(np.prod([grid.counts[k] for k in axes]))
        assert groups.shape == (grid.size // members, members, 3)
        flat = groups.reshape(-1, 3)
        assert sorted(map(tuple, flat)) == sorted(map(tuple, nodes))
        rest = [k for k in range(3) if k not in axes]
        assert np.array_equal(groups[:, :, rest], np.broadcast_to(groups[:, :1, rest],
                                                                  groups[:, :, rest].shape))
    # H1's 5^3 z grid: 25 groups of 5 consecutive nodes
    h1 = Grid.box(3, 3.5, 5)
    assert np.array_equal(h1.grouped_nodes((2,)), h1.nodes().reshape(25, 5, 3))


def test_member_split_rule():
    assert _members(5, 343, 343) == 5
    assert _members(125, 343, 343) == 25          # at most 95: 5 groups of 25
    assert _members(1024, 256, 256) == 128
    assert _members(131, 256, 256) == 1           # a prime above the budget
    assert _members(7, 1, 128) == 7
    assert _members(1, 10 ** 6, 10 ** 6) == 1


def test_group_above_the_budget_splits_into_equal_groups():
    """The line's 1024 z nodes are one group; against 256 rows the budget
    allows 128 members, so they run as 8 groups of 128, each with its own
    base member."""
    alg = abelian(1)
    grid, z_grid = Grid.box(1, 8.0, 256), Grid.box(1, 8.0, 1024)
    window = make_window(alg, grid, sigma=0.8, center=[0.4])
    sym = symbol(1, np.random.default_rng(3))
    shapes = []
    rows = row_data(WeylSystem(alg), window, grid.nodes())

    def row(z):
        shapes.append(np.shape(z))
        return rows(z)

    z_nodes = z_grid.grouped_nodes((0,))
    assert z_nodes.shape == (1, 1024, 1) and CHUNK_ENTRIES // 512 == 128
    K = assemble_kernel(sym, z_nodes, z_grid.weight, row)
    assert shapes == [(1,)] + [(1, 128, 1, 1)] * 8
    assert rel_max(K, per_node_split(sym, z_nodes, z_grid.weight, row)) <= GROUP_TOL


def test_z_quadrature_given_flat_takes_groups_of_one():
    alg = heisenberg()
    cfg = setup(alg, np.random.default_rng(4), counts=3, central_count=4)
    flat = cfg.z_quadrature()
    calls = []
    real = berezin.assemble_kernel

    def spy(symbol, z_nodes, *rest):
        calls.append(np.shape(z_nodes))
        return real(symbol, z_nodes, *rest)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(berezin, "assemble_kernel", spy)
        K_flat = berezin_matrix(cfg, flat).kernel
        K = berezin_matrix(cfg).kernel
    assert calls == [(36, 3), (9, 4, 3)]
    assert rel_max(K, K_flat) <= GROUP_TOL
