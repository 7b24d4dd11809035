"""Work the symbols-line path no longer repeats, against the routes it
replaced: the real exp of phase-free Gaussians against the complex formula,
the memoized coherent-state banks against fresh builds, and the batched
Berezin transform against one Bargmann transform per point."""

import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilquant import coherent, covariant
from nilquant.algebra import abelian, heisenberg
from nilquant.berezin import BerezinConfig
from nilquant.coherent import (NyquistWarning, PhasePoint, coherent_state,
                               coherent_state_bank, make_window)
from nilquant.covariant import (berezin_transform, berezin_transform_nodes, cov_diagonal,
                                cov_full, kernel_from_cov)
from nilquant.fields import gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.operators import OperatorMatrix
from nilquant.symbols import GaussianFactor, GaussianSymbol

from oracles import BT_TOL, bank_cov_diagonal, bt_case, complex_gaussian, per_point_bt, rel_max

# The rounding budget of the two routes.  numpy's real and complex exp are
# each within one ulp of exp(quad), so they may differ by 2 ulps; the
# amplitude multiply rounds each route by at most half an ulp, 1 ulp between
# them.  An ulp is at most eps = 2^-52 of the value it belongs to, so the
# routes agree to 3 eps relative; observed gaps reach 4.2e-16.
REAL_EXP_TOL = 3 * np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal


# ---------------------------------------------------------------------------
# phase-free Gaussians: one real exp
# ---------------------------------------------------------------------------

def assert_real_exp_matches(got, want, amplitude):
    assert got.dtype == complex and got.shape == want.shape
    assert not np.any(got.imag)
    # relative to the value; a subnormal result may differ by its last unit
    bound = REAL_EXP_TOL * np.abs(want) + 2 * TINY * max(1.0, abs(amplitude))
    assert np.all(np.abs(got - want) <= bound)


gaussian_cases = dict(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    sigma_scale=st.floats(0.05, 5.0),
    amplitude=st.floats(-1e3, 1e3, allow_nan=False).filter(lambda a: a != 0),
    reach=st.floats(0.5, 60.0),
)


@settings(max_examples=60, deadline=None)
@given(**gaussian_cases)
def test_phase_free_gaussian_field_takes_the_real_exp(n, seed, sigma_scale, amplitude, reach):
    """Points reach out to 60 widths (quad down to -1800), through the
    subnormal range into exact underflow."""
    rng = np.random.default_rng(seed)
    sigma = sigma_scale * rng.uniform(0.5, 2.0, n)
    center = rng.uniform(-3.0, 3.0, n)
    p = center + reach * sigma * rng.uniform(-1.0, 1.0, (7, 5, n))
    p[0, 0] = center  # the peak
    for modulation in (None, np.zeros(n)):
        f = gaussian(n, sigma, center, modulation, amplitude)
        assert_real_exp_matches(f(p), complex_gaussian(amplitude, center, sigma, np.zeros(n), p),
                                amplitude)
    unit = math.pi ** (-n / 4.0) / math.sqrt(float(np.prod(sigma)))  # the default amplitude
    assert_real_exp_matches(gaussian(n, sigma, center)(p),
                            complex_gaussian(unit, center, sigma, np.zeros(n), p), unit)


@settings(max_examples=60, deadline=None)
@given(**gaussian_cases)
def test_phase_free_gaussian_factor_takes_the_real_exp(n, seed, sigma_scale, amplitude, reach):
    del amplitude  # a factor has unit peak
    rng = np.random.default_rng(seed)
    g = GaussianFactor.make(n, rng.uniform(-3.0, 3.0, n),
                            sigma_scale * rng.uniform(0.5, 2.0, n))
    t = g.center + reach * g.sigma * rng.uniform(-1.0, 1.0, (6, 4, n))
    assert_real_exp_matches(g(t), complex_gaussian(1.0, g.center, g.sigma, g.phase, t), 1.0)
    one = g(t[0, 0])
    assert np.ndim(one) == 0 and np.iscomplexobj(one)


def test_phased_gaussians_keep_the_complex_formula():
    p = np.linspace(-4.0, 4.0, 30).reshape(15, 2)
    f = gaussian(2, [0.8, 1.3], [0.2, -0.1], [0.0, 0.7], 1.5)
    assert np.array_equal(f(p), complex_gaussian(1.5, np.array([0.2, -0.1]),
                                                np.array([0.8, 1.3]), np.array([0.0, 0.7]), p))
    g = GaussianFactor.make(2, [0.2, -0.1], [0.8, 1.3], [0.4, 0.0])
    assert np.array_equal(g(p), complex_gaussian(1.0, g.center, g.sigma, g.phase, p))


# ---------------------------------------------------------------------------
# coherent-state banks: the memo
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setattr(coherent, "_BANKS", OrderedDict())
    return coherent


def line_bank_case(center=0.0):
    alg = abelian(1)
    grid = Grid.box(1, 8.0, 32)
    return alg, grid, XiGrid.box(1, 8.0, 6), make_window(alg, grid, 1.0, [center])


def test_memoized_bank_is_the_fresh_bank_and_read_only(fresh_memo):
    alg, grid, xi, w = line_bank_case()
    bank = coherent_state_bank(alg, w, xi, grid)
    fresh = coherent_state_bank(alg, w, xi, grid.nodes())
    assert fresh.flags.writeable
    assert np.array_equal(bank, fresh)
    assert not bank.flags.writeable
    with pytest.raises(ValueError):
        bank[0, 0] = 0.0
    again = coherent_state_bank(alg, w, xi, Grid.box(1, 8.0, 32))  # an equal grid
    assert again is bank
    # the states themselves, node order (z, zeta) in C order
    z, zeta = xi.node_pairs()
    for row, (i, j) in zip(bank, np.ndindex(len(z), len(zeta))):
        want = coherent_state(alg, w, PhasePoint(z[i], zeta[j]))(grid.nodes())
        assert np.allclose(row, want, rtol=0, atol=1e-15)


def test_no_hit_across_windows_grids_or_algebras(fresh_memo):
    alg, grid, xi, w = line_bank_case()
    bank = coherent_state_bank(alg, w, xi, grid)
    _, _, _, shifted = line_bank_case(center=0.5)  # equal sigma, other centre
    other = coherent_state_bank(alg, shifted, xi, grid)
    assert not np.array_equal(other, bank)
    assert np.array_equal(other, coherent_state_bank(alg, shifted, xi, grid.nodes()))
    finer = Grid.box(1, 8.0, 40)
    on_finer = coherent_state_bank(alg, w, xi, finer)
    assert on_finer.shape == (xi.size, 40)
    assert np.array_equal(on_finer, coherent_state_bank(alg, w, xi, finer.nodes()))
    other_xi = XiGrid.box(1, 8.0, 6, 4.0, 6)
    assert np.array_equal(coherent_state_bank(alg, w, other_xi, grid),
                          coherent_state_bank(alg, w, other_xi, grid.nodes()))
    # two algebras on one window, grid and Xi grid: H1 and R^3 differ
    h1, r3 = heisenberg(), abelian(3)
    g3, xi3 = Grid.box(3, 3.0, 4), XiGrid.box(3, 3.0, 2)
    w3 = make_window(h1, g3, 0.9, [0.2, 0.0, -0.3])
    b_h1 = coherent_state_bank(h1, w3, xi3, g3)
    b_r3 = coherent_state_bank(r3, w3, xi3, g3)
    assert not np.array_equal(b_h1, b_r3)
    assert np.array_equal(b_r3, coherent_state_bank(r3, w3, xi3, g3.nodes()))
    assert len(fresh_memo._BANKS) == 6


def test_memo_evicts_within_its_byte_budget(fresh_memo, monkeypatch):
    alg, grid, xi, w = line_bank_case()
    size = xi.size * grid.size * 16
    monkeypatch.setattr(fresh_memo, "BANK_MEMO_BYTES", 2 * size + size // 2)
    xis = [XiGrid.box(1, 8.0, 6, d, 6) for d in (2.0, 3.0, 4.0)]
    first, second, _ = (coherent_state_bank(alg, w, x, grid) for x in xis)
    held = [e[2] for e in fresh_memo._BANKS.values()]
    assert len(held) == 2 and sum(b.nbytes for b in held) <= fresh_memo.BANK_MEMO_BYTES
    assert coherent_state_bank(alg, w, xis[1], grid) is second        # kept
    rebuilt = coherent_state_bank(alg, w, xis[0], grid)                # evicted
    assert rebuilt is not first and np.array_equal(rebuilt, first)
    # least recently used goes first: the third bank was evicted, not the second
    assert coherent_state_bank(alg, w, xis[1], grid) is second
    # a bank over the budget is built and returned, never stored
    monkeypatch.setattr(fresh_memo, "BANK_MEMO_BYTES", size - 1)
    big = coherent_state_bank(alg, w, XiGrid.box(1, 8.0, 6, 5.0, 6), grid)
    assert not big.flags.writeable and big.nbytes > fresh_memo.BANK_MEMO_BYTES
    assert all(e[2] is not big for e in fresh_memo._BANKS.values())


def test_covariant_symbols_reuse_one_bank(fresh_memo, monkeypatch):
    """cov_full and kernel_from_cov on one operator grid build the bank once
    and cov_diagonal none, and they give the same numbers as without the
    memo."""
    alg, grid, xi, w = line_bank_case()
    rng = np.random.default_rng(4)
    A = rng.standard_normal((grid.size, grid.size))
    T = OperatorMatrix(grid, A + 1j * rng.standard_normal(A.shape))
    first = cov_full(T, alg, w, xi).values
    builds = []
    build = coherent._build_bank
    monkeypatch.setattr(coherent, "_build_bank", lambda *a: builds.append(1) or build(*a))
    again = cov_full(T, alg, w, xi)
    diag = cov_diagonal(T, alg, w, xi)
    kernel_from_cov(again, alg, grid)
    assert builds == []
    assert np.array_equal(again.values, first)
    assert np.array_equal(diag, cov_diagonal(T, alg, w, xi))
    monkeypatch.setattr(coherent, "_BANKS", OrderedDict())
    assert np.array_equal(cov_full(T, alg, w, xi).values, first)
    assert builds == [1]


@pytest.mark.parametrize("group", ["line", "h1"])
def test_cov_diagonal_matches_the_column_contraction(group):
    cfg, _ = bt_case(group)
    rng = np.random.default_rng(7)
    m = cfg.g_grid.size
    T = OperatorMatrix(cfg.g_grid, rng.standard_normal((m, m))
                       + 1j * rng.standard_normal((m, m)))
    got = cov_diagonal(T, cfg.algebra, cfg.window, cfg.xi_grid)
    want = bank_cov_diagonal(T, cfg.algebra, cfg.window, cfg.xi_grid)
    assert got.shape == (cfg.xi_grid.size,)
    assert rel_max(got, want) <= 1e-13


# ---------------------------------------------------------------------------
# the Berezin transform: one batch against one Bargmann transform per point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ["line", "h1"])
@pytest.mark.parametrize("chunk", ["one block", "one dual node per block"])
def test_batched_bt_matches_per_point_route(group, chunk, monkeypatch):
    cfg, coarse = bt_case(group)
    if chunk != "one block":
        monkeypatch.setattr(covariant, "BT_CHUNK_ENTRIES", 1)
    got = berezin_transform_nodes(cfg, coarse)
    z, zeta = coarse.node_pairs()
    want = np.array([per_point_bt(cfg, PhasePoint(a, b)) for a in z for b in zeta])
    assert got.shape == (coarse.size,) and got.dtype == complex
    assert rel_max(got, want) <= BT_TOL
    p = PhasePoint(z[-1], zeta[1])
    one = berezin_transform(cfg, p)
    assert type(one) is complex and abs(one - per_point_bt(cfg, p)) <= BT_TOL * abs(one)


def test_batched_bt_warns_past_nyquist():
    alg = abelian(1)
    grid = Grid.box(1, 8.0, 16)  # pi/h = 3.14
    xi = XiGrid.box(1, 8.0, 8, 4.0, 8)
    cfg = BerezinConfig(alg, make_window(alg, grid), grid, xi, GaussianSymbol.make(1))
    with pytest.warns(NyquistWarning, match="axis 0"):
        berezin_transform_nodes(cfg, XiGrid.box(1, 2.0, 2))
    with pytest.warns(NyquistWarning, match="axis 0"):
        berezin_transform(cfg, PhasePoint([0.0], [0.0]))
