"""Symbol library: closed-form partial transforms against quadrature oracles."""

import math

import numpy as np
import pytest

from nilquant.algebra import heisenberg
from nilquant.fields import sample_xi
from nilquant.grids import Grid, XiGrid
from nilquant.symbols import (DeltaSymbol, GaussianSymbol, PhaseSymbol, SymbolError,
                              TranslatedSymbol, XOnlySymbol, XiOnlySymbol)

TWO_PI = 2.0 * math.pi


def quad_hat2(symbol, x, V, L=14.0, N=1024):
    # independent oracle: brute-force quadrature of the dual-side transform
    n = symbol.n
    grid = Grid.box(n, L, N if n == 1 else 48, dual=True)
    zeta = grid.nodes()
    x = np.asarray(x, float)
    vals = symbol(np.broadcast_to(x, zeta.shape), zeta)
    phases = np.exp(-1j * (zeta @ np.asarray(V, float)))
    return grid.weight * np.sum(vals * phases)


def test_gaussian_hat2_vs_quadrature():
    sym = GaussianSymbol.make(1, amplitude=1.3 - 0.2j, x_center=[0.3], x_sigma=1.1,
                              x_phase=[0.4], xi_center=[-0.5], xi_sigma=0.8,
                              xi_phase=[0.6])
    rng = np.random.default_rng(0)
    for _ in range(8):
        x = rng.uniform(-1, 1, 1)
        V = rng.uniform(-2, 2, 1)
        got = sym.hat2(x, V)
        ref = quad_hat2(sym, x, V)
        assert abs(got - ref) < 1e-10
        assert abs(sym.check2(x, -V) - got) < 1e-15


def test_gaussian_pair_exponent_consistent():
    sym = GaussianSymbol.make(2, xi_center=[0.3, -0.1], xi_sigma=[0.8, 1.1],
                              xi_phase=[0.5, 0.2])
    rng = np.random.default_rng(2)
    z = rng.uniform(-1, 1, 2)
    P = rng.uniform(-1, 1, (4, 2))
    Q = rng.uniform(-1, 1, (3, 2))
    pref, row, col, Xs, Qf = sym.hat2_pair_exponent(z, P, Q)
    cross = Xs @ Qf.T
    rebuilt = pref * np.exp(row[:, None] + col[None, :] - cross)
    slow = np.array([[sym.hat2(z, P[i] - Q[j]) for j in range(3)] for i in range(4)])
    assert np.max(np.abs(rebuilt - slow)) < 1e-13


PAIR_SYMBOLS = {
    "complex": lambda: GaussianSymbol.make(3, amplitude=0.8 - 0.3j, x_center=[0.2, -0.1, 0.4],
                                           x_sigma=0.9, x_phase=[0.3, -0.2, 0.1],
                                           xi_center=[0.3, -0.1, 0.2], xi_sigma=[0.8, 1.1, 1.0],
                                           xi_phase=[0.5, 0.2, -0.4]),
    "real": lambda: GaussianSymbol.make(3, amplitude=1.3, x_center=[0.2, -0.1, 0.4],
                                        xi_center=[0.3, -0.1, 0.2], xi_sigma=[0.8, 1.1, 1.0]),
    "translated": lambda: TranslatedSymbol(
        GaussianSymbol.make(3, amplitude=0.7 + 0.2j, x_center=[0.1, 0.3, -0.2], x_phase=0.4,
                            xi_sigma=0.9), heisenberg(), np.array([0.3, -0.4, 0.1])),
    "xi_only": lambda: XiOnlySymbol.gaussian(3, center=[0.3, -0.2, 0.1], sigma=0.8,
                                             phase=[0.1, 0.0, -0.2]),
}


@pytest.mark.parametrize("kind", sorted(PAIR_SYMBOLS))
def test_pair_exponent_of_a_chunk_stacks_the_per_node_ones(kind):
    """z (c, M, n) with P (c, m, n) and Q (c, k, n) gives the per-node results
    along a leading axis, the prefactor as a (c, M) array, one per member of
    a group (M = 1: a chunk of nodes); one node (n,) gives a Python complex
    prefactor."""
    sym = PAIR_SYMBOLS[kind]()
    rng = np.random.default_rng(7)
    c, m, k = 5, 4, 6
    for members in (1, 3):
        z = rng.uniform(-1, 1, (c, members, 3))
        P = rng.uniform(-1, 1, (c, m, 3))
        Q = rng.uniform(-1, 1, (c, k, 3))
        pref, *rest = sym.hat2_pair_exponent(z, P, Q)
        pref = np.broadcast_to(pref, (c, members))
        assert [a.shape for a in rest] == [(c, m), (c, k), (c, m, 3), (c, k, 3)]
        for i in range(c):
            for j in range(members):
                one_pref, *one = sym.hat2_pair_exponent(z[i, j], P[i], Q[i])
                assert type(one_pref) is complex
                assert abs(pref[i, j] - one_pref) <= 1e-15 * abs(one_pref)
                for a, b in zip(rest, one):
                    assert np.array_equal(a[i], b)


def test_gaussian_lp_norm_vs_quadrature():
    sym = GaussianSymbol.make(1, amplitude=0.7, x_sigma=1.2, xi_sigma=0.9)
    xi = XiGrid.box(1, 12.0, 256)
    samples = sample_xi(sym, xi)
    for s in (1.0, 2.0, 3.0):
        assert abs(samples.lp_norm(s) - sym.lp_norm(s)) < 1e-6
    assert sym.lp_norm(math.inf) == pytest.approx(0.7)


def test_gaussian_integral_vs_quadrature():
    sym = GaussianSymbol.make(1, amplitude=1.1, x_center=[0.2], x_phase=[0.3],
                              xi_center=[-0.4], xi_phase=[0.1])
    xi = XiGrid.box(1, 12.0, 256)
    got = sym.integral()
    ref = sample_xi(sym, xi).integral()
    assert abs(got - ref) < 1e-8


def test_shift_xi_is_dual_recentering():
    sym = GaussianSymbol.make(1, xi_center=[0.2])
    shifted = sym.shift_xi([0.5])
    pts_x = np.zeros((4, 1))
    pts_xi = np.linspace(-1, 1, 4)[:, None]
    assert np.allclose(shifted(pts_x, pts_xi), sym(pts_x, pts_xi - 0.5))
    # transform shift theorem: hat2 gains exp(-i <V | zeta0>)
    V = np.array([0.7])
    assert abs(shifted.hat2(np.zeros(1), V)
               - np.exp(-1j * 0.5 * 0.7) * sym.hat2(np.zeros(1), V)) < 1e-14


def test_translate_x_group_action():
    alg = heisenberg()
    sym = GaussianSymbol.make(3, x_center=[0.1, 0.0, -0.2])
    z = np.array([0.3, -0.4, 0.1])
    moved = sym.translate_x(alg, z)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (5, 3))
    xi = rng.uniform(-1, 1, (5, 3))
    assert np.allclose(moved(x, xi), sym(alg.bch(x, -z), xi))
    assert moved.lp_norm(2.0) == pytest.approx(sym.lp_norm(2.0))


def test_conjugate_flips_phases():
    sym = GaussianSymbol.make(1, amplitude=1 + 2j, x_phase=[0.3], xi_phase=[-0.4])
    conj = sym.conjugate()
    x = np.array([[0.2]])
    xi = np.array([[0.7]])
    assert np.allclose(conj(x, xi), np.conjugate(sym(x, xi)))


def test_delta_symbol():
    d = DeltaSymbol.at([0.1], [0.2], mass=2.0)
    with pytest.raises(SymbolError):
        d(np.zeros((1, 1)), np.zeros((1, 1)))
    xi = XiGrid.box(1, 10.0, 128)
    stand_in = d.narrow_gaussian(0.25)
    assert abs(sample_xi(stand_in, xi).integral() - 2.0) < 1e-6


def test_phase_symbol_modulus_one():
    eps = PhaseSymbol.at([0.5], [-0.3])
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, (6, 1))
    xi = rng.uniform(-2, 2, (6, 1))
    assert np.allclose(np.abs(eps(x, xi)), 1.0)


def test_xi_only_symbol_transform():
    sym = XiOnlySymbol.gaussian(1, center=[0.3], sigma=1.2)
    rng = np.random.default_rng(5)
    for _ in range(5):
        V = rng.uniform(-1.5, 1.5, 1)
        got = sym.hat2(np.zeros(1), V)
        ref = quad_hat2(sym, np.zeros(1), V)
        assert abs(got - ref) < 1e-10


def test_x_only_symbol_has_no_transform():
    from nilquant.fields import Field
    phi = Field(lambda p: np.exp(-p[..., 0] ** 2), 1)
    sym = XOnlySymbol(phi, 1)
    with pytest.raises(SymbolError):
        sym.hat2(np.zeros(1), np.zeros(1))
    x = np.zeros((3, 1))
    xi = np.ones((3, 1))
    assert np.allclose(sym(x, xi), 1.0)


@pytest.mark.parametrize("param", ["amplitude", "x_center", "x_sigma", "x_phase",
                                   "xi_center", "xi_sigma", "xi_phase"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gaussian_symbol_rejects_non_finite(param, bad):
    with pytest.raises(SymbolError):
        GaussianSymbol.make(2, **{param: bad})
