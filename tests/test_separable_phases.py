"""Separable dual-side phases: the axis-by-axis sums of `transforms` and the
routes built on them, against the dense phase matrices they replaced, on the
line, H1 and the Engel group, with unequal counts per axis, group counts
different from dual counts, and both signs."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilquant.algebra import abelian, engel, heisenberg
from nilquant.coherent import (NyquistWarning, WeylSystem, bargmann, bargmann_adjoint,
                               fourier_wigner, make_window)
from nilquant.fields import DOMAIN_DUAL, XiSamples, gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import linear3_potential, mag_wigner, magnetic_system, zero_potential
from nilquant.pseudodiff import op_quantize, op_quantize_samples
from nilquant.symbols import XiOnlySymbol
from nilquant.transforms import (_axis_phase_factors, dual_phase_from_points, dual_phase_grid,
                                 dual_phase_points)

import oracles
from oracles import phase_matrix, rel_max, traced_peak

TOL = 1e-12
#: the points -> dual-grid sum against its literal dense sum
FROM_POINTS_TOL = 1e-13


# -- set-ups: per group an operator (y) grid, a phase-space z grid and a dual
# grid inside the y grid's Nyquist band, every axis with its own count -----

CASES = {
    "abelian:1": (lambda: abelian(1), Grid((6.0,), (24,)), Grid((5.0,), (9,)),
                  Grid((1.8,), (11,), dual=True)),
    "heisenberg:1": (heisenberg, Grid((3.0, 2.5, 3.5), (7, 6, 8)),
                     Grid((2.0, 1.5, 2.5), (3, 2, 4)),
                     Grid((2.4, 2.1, 1.9), (4, 5, 3), dual=True)),
    "engel": (engel, Grid((3.0, 2.5, 2.0, 3.0), (4, 5, 3, 6)),
              Grid((1.5, 1.0, 1.2, 0.8), (2, 3, 1, 2)),
              Grid((1.4, 1.9, 1.6, 2.2), (3, 2, 4, 5), dual=True)),
}


def case(name):
    make_alg, y_grid, z_grid, dual_grid = CASES[name]
    alg = make_alg()
    n = alg.dim
    u = gaussian(n, 0.9, np.linspace(0.3, -0.2, n), np.linspace(-0.4, 0.5, n))
    v = gaussian(n, 1.1, np.linspace(-0.1, 0.2, n), np.linspace(0.3, -0.3, n))
    return alg, y_grid, XiGrid(z_grid, dual_grid), u, v


# -- the two helper forms ----------------------------------------------------

@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("sign", [1, -1])
def test_grid_form_matches_dense(name, sign):
    _, y_grid, xi, _, _ = case(name)
    rng = np.random.default_rng(3)
    g = rng.normal(size=(5, y_grid.size)) + 1j * rng.normal(size=(5, y_grid.size))
    got = dual_phase_grid(g, y_grid, xi.dual_grid, sign)
    assert got.shape == (5, xi.dual_grid.size)
    assert rel_max(got, g @ phase_matrix(y_grid.nodes(), xi.dual_grid, sign)) <= TOL


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("sign", [1, -1])
def test_point_form_matches_dense(name, sign):
    alg, _, xi, _, _ = case(name)
    dual = xi.dual_grid
    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 3.0, (37, alg.dim))
    h = rng.normal(size=dual.size) + 1j * rng.normal(size=dual.size)
    got = dual_phase_points(h, x, dual, sign)
    assert got.shape == (37,)
    assert rel_max(got, phase_matrix(x, dual, sign) @ h) <= TOL


# one dual grid per dimension, every axis with its own count
DUALS = {1: CASES["abelian:1"][3], 2: Grid((2.2, 1.3), (4, 7), dual=True),
         3: CASES["heisenberg:1"][3], 4: CASES["engel"][3]}


@pytest.mark.parametrize("n", sorted(DUALS))
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("batch", [None, 1, 5])
@pytest.mark.parametrize("shared", [False, True])
def test_from_points_form_matches_dense(n, sign, batch, shared):
    """One row unbatched, a batch of one and of five rows; `shared` gives
    every row the same coordinates on all axes but the last, so one factor
    serves the batch on those axes."""
    dual = DUALS[n]
    rng = np.random.default_rng(8)
    rows = batch or 1
    x = rng.uniform(-3.0, 3.0, (rows, 37, n))
    if shared:
        x[:, :, :-1] = x[0, :, :-1]
    g = rng.normal(size=(rows, 37)) + 1j * rng.normal(size=(rows, 37))
    want = np.stack([g[b] @ phase_matrix(x[b], dual, sign) for b in range(rows)])
    if batch is None:
        got = dual_phase_from_points(g[0], x[0], dual, sign)[None]
    else:
        got = dual_phase_from_points(g, x, dual, sign)
    assert got.shape == (rows, dual.size)
    assert rel_max(got, want) <= FROM_POINTS_TOL


@pytest.mark.parametrize("n", [1, 3])
def test_from_points_form_without_points_or_rows(n):
    dual = DUALS[n]
    got = dual_phase_from_points(np.ones((3, 0)), np.zeros((3, 0, n)), dual, 1)
    assert got.shape == (3, dual.size) and got.dtype == complex and not got.any()
    assert dual_phase_from_points(np.ones(0), np.zeros((0, n)), dual, -1).shape == (dual.size,)
    assert dual_phase_from_points(np.ones((0, 4)), np.zeros((0, 4, n)), dual, 1).shape == (
        0, dual.size)


def test_grid_form_factors_are_cached_and_read_only():
    _, y_grid, xi, _, _ = case("heisenberg:1")
    g = np.ones((1, y_grid.size), dtype=complex)
    dual_phase_grid(g, y_grid, xi.dual_grid, 1)
    hits = _axis_phase_factors.cache_info().hits
    dual_phase_grid(g, y_grid, xi.dual_grid, 1)
    assert _axis_phase_factors.cache_info().hits == hits + 1
    factors = _axis_phase_factors(y_grid, xi.dual_grid, 1)
    assert [f.shape for f in factors] == [(7, 4), (6, 5), (8, 3)]
    assert not any(f.flags.writeable for f in factors)
    assert _axis_phase_factors.cache_info().maxsize is not None


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), sign=st.sampled_from([1, -1]), data=st.data())
def test_random_box_grids(n, sign, data):
    counts = st.lists(st.integers(1, 6), min_size=n, max_size=n)
    widths = st.lists(st.floats(0.3, 4.0), min_size=n, max_size=n)
    y_grid = Grid(tuple(data.draw(widths)), tuple(data.draw(counts)))
    dual = Grid(tuple(data.draw(widths)), tuple(data.draw(counts)), dual=True)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.normal(size=(3, y_grid.size)) + 1j * rng.normal(size=(3, y_grid.size))
    assert rel_max(dual_phase_grid(g, y_grid, dual, sign),
                   g @ phase_matrix(y_grid.nodes(), dual, sign)) <= TOL
    x = rng.uniform(-4.0, 4.0, (int(rng.integers(1, 20)), n))
    h = rng.normal(size=dual.size) + 1j * rng.normal(size=dual.size)
    assert rel_max(dual_phase_points(h, x, dual, sign), phase_matrix(x, dual, sign) @ h) <= TOL
    gx = rng.normal(size=len(x)) + 1j * rng.normal(size=len(x))
    assert rel_max(dual_phase_from_points(gx, x, dual, sign),
                   gx @ phase_matrix(x, dual, sign)) <= FROM_POINTS_TOL


# -- the routes built on them ------------------------------------------------

@pytest.mark.parametrize("name", CASES)
def test_fourier_wigner_matches_dense(name):
    alg, y_grid, xi, u, v = case(name)
    got = fourier_wigner(alg, u, v, y_grid, xi).values
    assert got.shape == (xi.g_grid.size, xi.dual_grid.size)
    assert rel_max(got, oracles.wigner(WeylSystem(alg), u, v, y_grid, *xi.node_pairs())) <= TOL


def test_mag_wigner_matches_dense():
    alg, y_grid, xi, u, v = case("heisenberg:1")
    A = linear3_potential(0.6)
    got = mag_wigner(alg, A, u, v, y_grid, xi).values
    want = oracles.wigner(magnetic_system(alg, A), u, v, y_grid, *xi.node_pairs())
    assert rel_max(got, want) <= TOL


def test_mag_wigner_zero_potential_is_bitwise_fourier_wigner():
    alg, y_grid, xi, u, v = case("heisenberg:1")
    got = mag_wigner(alg, zero_potential(3), u, v, y_grid, xi).values
    assert np.array_equal(got, fourier_wigner(alg, u, v, y_grid, xi).values)


@pytest.mark.parametrize("name", CASES)
def test_bargmann_adjoint_matches_dense(name):
    alg, y_grid, xi, u, _ = case(name)
    w = make_window(alg, y_grid)
    h = bargmann(alg, w, u, xi, y_grid)
    targets = y_grid.nodes()[::3]
    got = bargmann_adjoint(alg, w, h, targets)
    assert rel_max(got, oracles.bargmann_adjoint(alg, w, h, targets)) <= TOL


@pytest.mark.parametrize("name", CASES)
def test_op_quantize_samples_matches_dense(name):
    alg, _, xi, _, _ = case(name)
    grid, dual = xi.g_grid, xi.dual_grid
    rng = np.random.default_rng(5)
    a = rng.normal(size=(grid.size, dual.size)) + 1j * rng.normal(size=(grid.size, dual.size))
    got = op_quantize_samples(alg, a, grid, dual).kernel
    assert rel_max(got, oracles.op_kernel(alg, a, grid, dual)) <= TOL


def test_op_quantize_dual_grid_fallback_matches_dense():
    alg, _, xi, _, _ = case("heisenberg:1")
    grid, dual = xi.g_grid, xi.dual_grid
    psi = gaussian(3, 0.8, [0.2, -0.1, 0.3], [0.5, 0.0, -0.4], domain=DOMAIN_DUAL)
    symbol = XiOnlySymbol(None, 3, psi_field=psi)
    a = symbol(np.zeros((dual.size, 3)), dual.nodes())
    want = oracles.op_kernel(alg, np.broadcast_to(a, (grid.size, dual.size)), grid, dual)
    assert rel_max(op_quantize(alg, symbol, grid, dual).kernel, want) <= TOL


def test_nyquist_warning_still_fires():
    alg = heisenberg()
    grid = Grid.box(3, 4.0, 7)                      # pi/h = 2.749
    xi = XiGrid.box(3, 4.0, 3, dual_half_width=4.0, dual_count=3)
    w = make_window(alg, grid)
    u = gaussian(3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("always", NyquistWarning)
        with pytest.warns(NyquistWarning):
            h = fourier_wigner(alg, u, w.field, grid, xi)
        with pytest.warns(NyquistWarning):
            mag_wigner(alg, zero_potential(3), u, w.field, grid, xi)
        with pytest.warns(NyquistWarning):
            bargmann_adjoint(alg, w, h, grid.nodes()[:5])


def test_bargmann_adjoint_builds_no_targets_by_dual_matrix():
    # the benchmark's H1 set-up: 100 targets, 216 z nodes x 343 dual nodes
    alg = heisenberg()
    grid = Grid.box(3, 3.5, 10)
    xi = XiGrid.box(3, 4.0, 6, dual_half_width=4.4, dual_count=7)
    w = make_window(alg, grid)
    targets = grid.nodes()[np.random.default_rng(6).choice(grid.size, 100, replace=False)]
    rng = np.random.default_rng(7)
    h = XiSamples(xi, rng.normal(size=(216, 343)) + 1j * rng.normal(size=(216, 343)))
    bargmann_adjoint(alg, w, h, targets[:2])        # compile the BCH program first
    peak = traced_peak(bargmann_adjoint, alg, w, h, targets)
    assert peak < len(targets) * xi.dual_grid.size * np.dtype(complex).itemsize
