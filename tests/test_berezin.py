"""Berezin quantization: weak form, kernel assembly, examples, covariance,
Toeplitz form and Schatten bounds."""

import math

import numpy as np
import pytest

from nilquant import coherent
from nilquant.algebra import abelian, heisenberg
from nilquant.berezin import (BerezinConfig, berezin_kernel_points, berezin_matrix,
                              berezin_weak, conv_example_kernel, covariance_residual_L,
                              multiplier_field, schatten_bound_check, symbol_integral,
                              toeplitz_kernel)
from nilquant.coherent import (PhasePoint, coherent_state, make_window, node_blocks,
                               projector, reproducing_kernel)
from nilquant.covariant import cov_at
from nilquant.fields import Field, gaussian, random_gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.symbols import (DeltaSymbol, GaussianSymbol, PhaseSymbol, SymbolError,
                              XOnlySymbol, XiOnlySymbol)
from nilquant.transforms import inner
from nilquant.verify import line_setup as line

from oracles import bits, per_node_conv_example, per_node_multiplier


def one_symbol(n=1):
    return XOnlySymbol(Field(lambda p: np.ones(p.shape[:-1]), n), n)


def test_weak_unit_symbol_is_identity():
    alg, grid, xi, w = line()
    cfg = BerezinConfig(alg, w, grid, xi, one_symbol())
    rng = np.random.default_rng(0)
    for _ in range(3):
        u, v = random_gaussian(rng, 1), random_gaussian(rng, 1)
        got = berezin_weak(cfg, u, v)
        ref = inner(u, v, grid)
        assert abs(got - ref) / abs(ref) < 5e-2


def test_weak_delta_symbol_rank_one():
    alg, grid, xi, w = line()
    p = PhasePoint([0.4], [-0.6])
    cfg = BerezinConfig(alg, w, grid, xi, DeltaSymbol.at(p.zv, p.zetav))
    rng = np.random.default_rng(1)
    u, v = random_gaussian(rng, 1), random_gaussian(rng, 1)
    got = berezin_weak(cfg, u, v)
    ref = (inner(u, coherent_state(alg, w, p), grid)
           * inner(coherent_state(alg, w, p), v, grid))
    assert abs(got - ref) < 1e-10
    # narrow-Gaussian stand-in approaches the same value
    cfg2 = BerezinConfig(alg, w, grid, xi, DeltaSymbol.at(p.zv, p.zetav).narrow_gaussian(0.15))
    assert abs(berezin_weak(cfg2, u, v) - ref) < 3e-2 * abs(ref)


def test_weak_positivity():
    alg, grid, xi, w = line()
    sym = GaussianSymbol.make(1, amplitude=0.9)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    rng = np.random.default_rng(2)
    for _ in range(4):
        u = random_gaussian(rng, 1)
        val = berezin_weak(cfg, u, u)
        assert val.real > -1e-8 and abs(val.imag) < 1e-10


def test_matrix_identity_action():
    alg, grid, xi, w = line()
    op = berezin_matrix(BerezinConfig(alg, w, grid, xi, one_symbol()))
    assert op.meta.get("multiplication")
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = random_gaussian(rng, 1)(grid.nodes())
        assert np.linalg.norm(op.apply_samples(u) - u) / np.linalg.norm(u) < 5e-2


def test_matrix_trace_formula_and_hermiticity():
    alg, grid, xi, w = line()
    sym = GaussianSymbol.make(1, amplitude=1.2, x_center=[0.3], xi_center=[-0.2])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    op = berezin_matrix(cfg)
    ref = symbol_integral(cfg)
    assert abs(op.trace() - ref) / abs(ref) < 2e-2
    assert op.hermiticity_residual() < 1e-10
    assert op.min_eigenvalue() > -1e-8 * sym.lp_norm(math.inf)


def test_matrix_hermiticity_conjugate_pair():
    # Ber(conj f)* has the same kernel samples as Ber(f)
    alg, grid, xi, w = line(N=64)
    sym = GaussianSymbol.make(1, amplitude=0.8 + 0.5j, x_phase=[0.4], xi_phase=[-0.3])
    op = berezin_matrix(BerezinConfig(alg, w, grid, xi, sym))
    opc = berezin_matrix(BerezinConfig(alg, w, grid, xi, sym.conjugate()))
    assert np.max(np.abs(op.adjoint().kernel - opc.kernel)) < 1e-12


def test_weak_vs_matrix_consistency():
    alg, grid, xi, w = line()
    sym = GaussianSymbol.make(1, x_center=[0.2], xi_center=[0.1])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    op = berezin_matrix(cfg)
    rng = np.random.default_rng(4)
    for _ in range(10):
        u, v = random_gaussian(rng, 1), random_gaussian(rng, 1)
        weak = berezin_weak(cfg, u, v)
        mat = complex(grid.weight * np.vdot(v(grid.nodes()),
                                            op.apply_samples(u(grid.nodes()))))
        assert abs(weak - mat) / abs(mat) < 1e-8


def test_multiplier_unit_window_mass():
    alg, grid, xi, w = line()
    onef = Field(lambda p: np.ones(p.shape[:-1]), 1)
    m = multiplier_field(alg, w, onef, xi.g_grid)
    vals = m(np.linspace(-1.5, 1.5, 9)[:, None])
    assert np.max(np.abs(vals - 1.0)) < 2e-2


def test_multiplier_gaussian_closed_form():
    # phi = exp(-z^2/2), |omega(z+x)|^2 = pi^{-1/2} exp(-(z+x)^2):
    # completing the square gives m(x) = sqrt(2/3) exp(-x^2/3)
    alg, grid, xi, w = line()
    phi = gaussian(1, amplitude=1.0)
    m = multiplier_field(alg, w, phi, xi.g_grid)
    x = np.linspace(-2, 2, 11)[:, None]
    ref = math.sqrt(2.0 / 3.0) * np.exp(-x[:, 0] ** 2 / 3.0)
    assert np.max(np.abs(m(x) - ref)) < 1e-6


def test_multiplier_positive():
    alg, grid, xi, w = line()
    phi = gaussian(1, amplitude=2.0, center=[0.5])
    m = multiplier_field(alg, w, phi, xi.g_grid)
    assert np.all(m(np.linspace(-3, 3, 21)[:, None]).real > 0)


@pytest.mark.parametrize("group", ["abelian:1", "heisenberg:1"])
@pytest.mark.parametrize("points", [1, 7, 300, 5000])
def test_multiplier_blocks_are_bitwise_the_per_node_loop(group, points, monkeypatch):
    """Blocks of max(2, BLOCK_ENTRIES // points) z nodes, one BCH product
    per block, each node's row added in node order."""
    alg = abelian(1) if group == "abelian:1" else heisenberg()
    n = alg.dim
    z_grid = Grid.box(n, 3.0, 64 if n == 1 else 5)
    w = make_window(alg, Grid.box(n, 4.0, 16 if n == 1 else 6), sigma=0.9,
                    center=np.linspace(0.3, -0.2, n))
    phi = gaussian(n, 1.2, np.linspace(-0.2, 0.4, n), np.linspace(0.3, -0.1, n))
    x = np.random.default_rng(points).uniform(-2.0, 2.0, (points, n))
    calls = []
    bch = type(alg).bch

    def counted(self, X, Y):
        calls.append(np.shape(X))
        return bch(self, X, Y)

    monkeypatch.setattr(type(alg), "bch", counted)
    got = multiplier_field(alg, w, phi, z_grid)(x)
    blocks = node_blocks(z_grid.size, points)
    assert calls == [(b.stop - b.start, 1, n) for b in blocks]
    monkeypatch.undo()
    assert got.shape == (points,)
    assert bits(got) == bits(per_node_multiplier(alg, w, phi, z_grid)(x))


@pytest.mark.parametrize("budget", ["default", "two nodes", "five nodes"])
@pytest.mark.parametrize("group", ["abelian:1", "abelian:2", "heisenberg:1"])
def test_conv_example_blocks_are_bitwise_the_per_node_loop(group, budget, monkeypatch):
    """One BCH product, stacked exp and stacked matrix product per block of
    z nodes (`node_blocks`), each node's term added in node order."""
    if group == "abelian:1":
        alg, grid, xi = abelian(1), Grid.box(1, 8.0, 40), XiGrid.box(1, 8.0, 23, 3.0, 30)
    elif group == "abelian:2":
        alg, grid, xi = abelian(2), Grid.box(2, 4.0, 6), XiGrid.box(2, 4.0, 5, 3.0, 4)
    else:
        alg, grid, xi = heisenberg(), Grid.box(3, 3.0, 4), XiGrid.box(3, 3.0, 3, 2.0, 3)
    n = alg.dim
    m, d = grid.size, xi.dual_grid.size
    if budget != "default":
        monkeypatch.setattr(coherent, "BLOCK_ENTRIES", (2 if budget == "two nodes" else 5)
                            * m * (m + d))
    sym = XiOnlySymbol.gaussian(n, sigma=1.1, center=np.linspace(0.2, -0.1, n))
    cfg = BerezinConfig(alg, make_window(alg, grid, 0.9, np.linspace(0.1, 0.3, n)), grid, xi,
                        sym)
    psi = Field(sym.psi, n, "dual")
    calls = []
    bch = type(alg).bch

    def counted(self, X, Y):
        calls.append(np.shape(X))
        return bch(self, X, Y)

    monkeypatch.setattr(type(alg), "bch", counted)
    got = conv_example_kernel(cfg, psi).kernel
    blocks = node_blocks(xi.g_grid.size, m * (m + d))
    assert calls == [(b.stop - b.start, 1, n) for b in blocks]
    monkeypatch.undo()
    assert bits(got) == bits(per_node_conv_example(cfg, psi))


def test_conv_example_matches_closed_form_assembly():
    alg, grid, xi, w = line(N=96)
    sym = XiOnlySymbol.gaussian(1, sigma=1.1, center=[0.2])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    closed = berezin_matrix(cfg)
    numeric = conv_example_kernel(cfg, Field(sym.psi, 1, "dual"))
    assert closed.frobenius_distance(numeric) < 5e-2
    assert closed.hermiticity_residual() < 1e-10  # real profile -> hermitian


def test_conv_example_translation_invariance():
    alg, grid, xi, w = line(N=64)
    sym = XiOnlySymbol.gaussian(1, sigma=1.0)
    op = berezin_matrix(BerezinConfig(alg, w, grid, xi, sym))
    K = op.kernel
    # kernel depends on x - y only; compare along a parallel diagonal away
    # from the box edge, where the window average is not truncated
    d0 = np.diagonal(K, offset=3)[16:-16]
    assert np.max(np.abs(d0 - d0[0])) < 1e-8 * np.max(np.abs(K))


def test_delta_special_path_returns_projector():
    alg, grid, xi, w = line(N=64)
    p = PhasePoint([0.3], [0.7])
    op = berezin_matrix(BerezinConfig(alg, w, grid, xi, DeltaSymbol.at(p.zv, p.zetav)))
    assert op.meta.get("delta_symbol")
    ref = projector(alg, w, p)
    assert np.max(np.abs(op.kernel - ref.kernel)) < 1e-14


def test_phase_symbol_rejected_by_berezin():
    alg, grid, xi, w = line(N=32)
    with pytest.raises(SymbolError):
        berezin_matrix(BerezinConfig(alg, w, grid, xi, PhaseSymbol.at([0.1], [0.2])))


def test_covariance_left_translation():
    alg, grid, xi, w = line(N=96)
    sym = GaussianSymbol.make(1, x_center=[0.1], xi_center=[-0.3])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    assert covariance_residual_L(cfg, np.array([0.0])) < 1e-12
    assert covariance_residual_L(cfg, np.array([1.0])) < 5e-2


def test_covariance_left_translation_h1_small():
    alg = heisenberg()
    grid = Grid.box(3, 4.0, 7)
    xi = XiGrid.box(3, 4.0, 7)
    w = make_window(alg, grid)
    sym = GaussianSymbol.make(3)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    assert covariance_residual_L(cfg, np.array([0.5, 0.0, 0.0])) < 5e-2


def test_toeplitz_unit_symbol_reproduces_kernel():
    alg, grid, xi, w = line()
    cfg = BerezinConfig(alg, w, grid, xi, one_symbol())
    p = PhasePoint([0.3], [0.5])
    q = PhasePoint([-0.4], [0.2])
    t = toeplitz_kernel(cfg, p, q)
    assert abs(t - reproducing_kernel(alg, w, p, q)) < 5e-2


def test_toeplitz_equals_covariant_symbol_of_berezin():
    alg, grid, xi, w = line()
    sym = GaussianSymbol.make(1, x_center=[0.2])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    op = berezin_matrix(cfg)
    p = PhasePoint([0.3], [0.5])
    q = PhasePoint([-0.2], [-0.1])
    t = toeplitz_kernel(cfg, p, q)
    c = cov_at(op, alg, w, p, q)
    assert abs(t - c) < 5e-2 * max(abs(c), 1e-3)
    # hermitian in (p, q) for a real symbol
    assert abs(t - np.conjugate(toeplitz_kernel(cfg, q, p))) < 1e-10


def test_schatten_bound_report():
    alg, grid, xi, w = line()
    sym = GaussianSymbol.make(1, amplitude=1.0)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    op = berezin_matrix(cfg)
    rep1 = schatten_bound_check(cfg, 1.0, matrix=op)
    assert not rep1["violated"] and abs(rep1["ratio"] - 1.0) < 2e-2  # f >= 0: equality
    for s in (2.0, math.inf):
        rep = schatten_bound_check(cfg, s, matrix=op)
        assert not rep["violated"]
        assert rep["ratio"] <= rep["bound"] * 1.05
    with pytest.raises(ValueError):
        schatten_bound_check(cfg, 0.5)


def test_kernel_points_match_grid_assembly():
    alg, grid, xi, w = line(N=48)
    sym = GaussianSymbol.make(1, xi_center=[0.3])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    op = berezin_matrix(cfg)
    sub = grid.nodes()[10:14]
    block = berezin_kernel_points(cfg, sub, grid.nodes()[20:26])
    assert np.max(np.abs(block - op.kernel[10:14, 20:26])) < 1e-12
