"""The Berezin transform and the Cov(T) diagonal by lag sums on the
first-layer lattice, against the per-frequency routes they replaced: the
coherent-state bank contraction (`bank_cov_diagonal`), one complex exp per
(a, alpha, z, y) (`per_alpha_exp_bt`) and one Bargmann transform per point
(`per_point_bt`).  On the line, H1, Engel, the 4 x 4 strictly
upper-triangular matrices (first layer (0, 3, 5), not the leading axes),
grids with their own count per axis, an algebra with no first-layer axis
and random nilpotent algebras; the chunk budget, empty point sets and the
lag lattice itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilquant import covariant
from nilquant.algebra import LieAlgebra, heisenberg
from nilquant.berezin import BerezinConfig
from nilquant.coherent import PhasePoint, make_window
from nilquant.covariant import _berezin_transform_points, berezin_transform_nodes, cov_diagonal
from nilquant.grids import Grid, XiGrid
from nilquant.operators import OperatorMatrix
from nilquant.symbols import GaussianSymbol
from nilquant.transforms import dual_phase_grid, lag_grid

from oracles import (BT_TOL, GRID_CASES, bank_cov_diagonal, bt_case, per_alpha_exp_bt,
                     per_point_bt, random_algebra, rel_max)

# The lag sums reassociate the same finite sums; they differ from the
# per-frequency routes only in rounding, observed at most 1.8e-15 relative.
LAG_TOL = 1e-13


# The basis f1 = e1, f2 = e2, f3 = e3 - e1 - e2 of H1, as columns over e1, e2, e3.
MIXED_BASIS = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])


def mixed_heisenberg():
    """H1 in `MIXED_BASIS`: [f1, f2] = f1 + f2 + f3, so a bracket lands on
    every axis and the first layer is empty."""
    P = MIXED_BASIS
    c = np.einsum("ia,jb,ijk,mk->abm", P, P, heisenberg().c, np.linalg.inv(P))
    return LieAlgebra(3, c, 2, name="h1 mixed")


def random_symbol(n, rng):
    return GaussianSymbol.make(n, amplitude=complex(*rng.uniform(-1.0, 1.0, 2)) + 0.5,
                               x_center=rng.uniform(-0.5, 0.5, n),
                               x_sigma=rng.uniform(0.7, 1.4), x_phase=rng.uniform(-0.3, 0.3, n),
                               xi_center=rng.uniform(-0.5, 0.5, n),
                               xi_sigma=rng.uniform(0.7, 1.4), xi_phase=rng.uniform(-0.3, 0.3, n))


def lag_case(name, seed=0):
    """(Berezin config, coarse Xi grid, complex non-Hermitian T) with an
    off-centre window.  "line" and "h1" are `bt_case`; the others take the
    grids of `GRID_CASES`, every axis with its own count, and "h1 mixed"
    those of "heisenberg:1" on `mixed_heisenberg`."""
    rng = np.random.default_rng(seed)
    if name in ("line", "h1"):
        cfg, coarse = bt_case(name)
    else:
        make_alg, grid, z_grid, dual_grid = GRID_CASES["heisenberg:1" if name == "h1 mixed"
                                                       else name]
        alg = mixed_heisenberg() if name == "h1 mixed" else make_alg()
        n = alg.dim
        w = make_window(alg, grid, 0.9, np.linspace(0.3, -0.2, n))
        cfg = BerezinConfig(alg, w, grid, XiGrid(z_grid, dual_grid), random_symbol(n, rng))
        counts = [2 if k in (0, n - 1) else 1 for k in range(n)]
        coarse = XiGrid(Grid(tuple(rng.uniform(0.3, 1.0, n)), counts),
                        Grid(tuple(rng.uniform(0.3, 1.0, n)), counts, dual=True))
    m = cfg.g_grid.size
    T = OperatorMatrix(cfg.g_grid, rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return cfg, coarse, T


CASES = ["line", "h1", "engel", "ut4", "abelian:2", "h1 mixed"]


# ---------------------------------------------------------------------------
# the lag lattice
# ---------------------------------------------------------------------------

def test_lag_grid_is_the_difference_lattice():
    grid = Grid((3.0, 2.5, 3.5), (7, 6, 8))
    lags = lag_grid(grid, [2, 0])
    assert lags.counts == (15, 13) and lags.spacing == pytest.approx((0.875, 6.0 / 7))
    for d, k in zip(lags.axes(), (2, 0)):
        N, h, x = grid.counts[k], grid.spacing[k], grid.axes()[k]
        assert np.allclose(d, np.arange(1 - N, N) * h, rtol=0, atol=1e-14)
        j = np.arange(N)
        assert np.allclose(x[:, None] - x[None, :], d[j[:, None] - j[None, :] + N - 1],
                           rtol=0, atol=1e-14)
    assert lag_grid(grid, []).size == 1 and lag_grid(grid, []).n == 0


def test_an_algebra_with_no_first_layer_axis():
    """`mixed_heisenberg` is H1: its BCH product is H1's in the other basis."""
    alg = mixed_heisenberg()
    assert alg.first_layer_axes == ()
    X, Y = np.random.default_rng(2).normal(size=(2, 20, 3))
    P = MIXED_BASIS
    want = heisenberg().bch(X @ P.T, Y @ P.T) @ np.linalg.inv(P).T
    assert np.allclose(alg.bch(X, Y), want, rtol=0, atol=1e-13)

# ---------------------------------------------------------------------------
# against the per-frequency routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CASES)
def test_cov_diagonal_matches_the_bank_contraction(name):
    cfg, _, T = lag_case(name)
    got = cov_diagonal(T, cfg.algebra, cfg.window, cfg.xi_grid)
    want = bank_cov_diagonal(T, cfg.algebra, cfg.window, cfg.xi_grid)
    assert got.shape == (cfg.xi_grid.size,) and got.dtype == complex
    assert rel_max(got, want) <= LAG_TOL


@pytest.mark.parametrize("name", CASES)
def test_bt_matches_both_replaced_routes(name):
    cfg, coarse, _ = lag_case(name)
    got = berezin_transform_nodes(cfg, coarse)
    z, zeta = coarse.node_pairs()
    assert rel_max(got, per_alpha_exp_bt(cfg, z, zeta).reshape(-1)) <= LAG_TOL
    want = np.array([per_point_bt(cfg, PhasePoint(a, b)) for a in z for b in zeta])
    assert rel_max(got, want) <= BT_TOL


@pytest.mark.parametrize("name", CASES)
def test_a_budget_of_one_gives_the_same_numbers(name, monkeypatch):
    cfg, coarse, T = lag_case(name)
    bt = berezin_transform_nodes(cfg, coarse)
    diag = cov_diagonal(T, cfg.algebra, cfg.window, cfg.xi_grid)
    for budget in (1, 4099):
        monkeypatch.setattr(covariant, "BT_CHUNK_ENTRIES", budget)
        assert np.array_equal(berezin_transform_nodes(cfg, coarse), bt)
        assert np.array_equal(cov_diagonal(T, cfg.algebra, cfg.window, cfg.xi_grid), diag)


@pytest.mark.parametrize("name", ["engel", "ut4", "h1 mixed"])
def test_no_group_points_or_no_dual_points(name):
    cfg, coarse, _ = lag_case(name)
    z, zeta = coarse.node_pairs()
    n = cfg.algebra.dim
    for a, alpha, shape in ((z[:0], zeta, (0, len(zeta))), (z, zeta[:0], (len(z), 0)),
                            (np.empty((0, n)), np.empty((0, n)), (0, 0))):
        out = _berezin_transform_points(cfg, a, alpha)
        assert out.shape == shape and out.dtype == complex


def test_bt_chunks_count_spectrum_entries(monkeypatch):
    """Line: 64 z nodes and FFTs of length 2 x 64, four spectrum-sized arrays
    of 64 x 128 entries per group point, so a budget of two points' worth
    splits the 5 group points as 2 + 2 + 1."""
    cfg, coarse = bt_case("line")
    monkeypatch.setattr(covariant, "BT_CHUNK_ENTRIES", 2 * 4 * 64 * 128 + 5)
    seen = []
    fftn = np.fft.fftn

    def recording(v, *args, **kwargs):
        seen.append(len(v))
        return fftn(v, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", recording)
    berezin_transform_nodes(cfg, coarse)
    assert seen == [2, 2, 1]


def test_dual_sums_onto_the_lag_lattice():
    """The lag -> dual sum of the lag route: on the line, the symbol's dual
    sum at the lags of the operator grid is the dense phase sum."""
    cfg, _ = bt_case("line")
    lags = lag_grid(cfg.g_grid, [0])
    f = np.random.default_rng(3).normal(size=(5, cfg.xi_grid.dual_grid.size))
    d = lags.axes()[0]
    dense = f @ np.exp(1j * np.outer(cfg.xi_grid.dual_grid.axes()[0], d))
    assert rel_max(dual_phase_grid(f, cfg.xi_grid.dual_grid, lags, 1), dense) <= 1e-13


# ---------------------------------------------------------------------------
# random nilpotent algebras
# ---------------------------------------------------------------------------

def random_lag_case(k, seed):
    """Two nodes per axis on every grid of the k x k algebra (Nyquist band
    pi/h = 2.09), an off-centre window, a random complex symbol, a complex
    non-Hermitian T and coarse points that vary along one first-layer and
    one other axis."""
    alg = random_algebra(k, seed)
    n = alg.dim
    rng = np.random.default_rng(seed)
    grid = Grid.box(n, 1.5, 2)
    xi = XiGrid(Grid.box(n, 1.8, 2), Grid.box(n, 1.2, 2, dual=True))
    w = make_window(alg, grid, sigma=rng.uniform(0.7, 1.3), center=rng.uniform(-0.6, 0.6, n))
    first = list(alg.first_layer_axes)
    rest = [j for j in range(n) if j not in first]
    moved = [int(rng.choice(first)), int(rng.choice(rest))]
    counts = [2 if j in moved else 1 for j in range(n)]
    coarse = XiGrid(Grid(tuple(rng.uniform(0.5, 1.5, n)), counts),
                    Grid(tuple(rng.uniform(0.5, 1.2, n)), counts, dual=True))
    m = grid.size
    T = OperatorMatrix(grid, rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return BerezinConfig(alg, w, grid, xi, random_symbol(n, rng)), coarse, T


@settings(max_examples=15, deadline=None)
@given(k=st.integers(3, 4), seed=st.integers(0, 2**32 - 1))
def test_random_algebras_match_the_per_frequency_routes(k, seed):
    cfg, coarse, T = random_lag_case(k, seed)
    diag = cov_diagonal(T, cfg.algebra, cfg.window, cfg.xi_grid)
    assert rel_max(diag, bank_cov_diagonal(T, cfg.algebra, cfg.window, cfg.xi_grid)) <= LAG_TOL
    got = berezin_transform_nodes(cfg, coarse)
    z, zeta = coarse.node_pairs()
    assert np.all(np.isfinite(got))
    assert rel_max(got, per_alpha_exp_bt(cfg, z, zeta).reshape(-1)) <= LAG_TOL
