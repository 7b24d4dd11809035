"""Ordering-twisted quantizations."""

import numpy as np
import pytest

from nilquant.algebra import abelian, heisenberg
from nilquant.berezin import BerezinConfig, berezin_matrix
from nilquant.ccr import mult_M, trans_L
from nilquant.coherent import PhasePoint, coherent_state, make_window, weyl, weyl_adjoint
from nilquant.fields import Field, random_gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.symbols import GaussianSymbol, XOnlySymbol
from nilquant.tau import (TauMap, berezin_tau, coherent_tau, covariance_residual_M,
                          op_quantize_tau, resolve_tau, scaled_tau, symmetric_tau,
                          tau_e, tau_id, tau_tilde, weyl_tau, wigner_tau)
from nilquant.transforms import inner, l2_norm
from nilquant.verify import line_setup as line


def test_tau_tilde_of_trivial_is_identity():
    alg = heisenberg()
    t = tau_tilde(alg, tau_e(3))
    pts = np.random.default_rng(0).uniform(-1, 1, (10, 3))
    assert np.allclose(t(pts), pts)
    back = tau_tilde(alg, tau_id())
    assert np.allclose(back(pts), 0.0)


def test_tau_tilde_abelian_halving_fixed_point():
    alg = abelian(2)
    tau = scaled_tau(0.5)
    pts = np.random.default_rng(1).uniform(-2, 2, (10, 2))
    assert np.max(np.abs(tau_tilde(alg, tau)(pts) - 0.5 * pts)) < 1e-14


def test_symmetric_tau_is_chart_halving_and_fixed():
    alg = heisenberg()
    tau = symmetric_tau(alg)
    pts = np.random.default_rng(2).uniform(-2, 2, (100, 3))
    assert np.allclose(tau(pts), 0.5 * pts)
    assert np.allclose(tau(np.zeros((1, 3))), 0.0)
    assert np.max(np.abs(tau_tilde(alg, tau)(pts) - tau(pts))) < 1e-12


def test_tau_tilde_involution():
    alg = heisenberg()
    tau = scaled_tau(0.3)
    pts = np.random.default_rng(3).uniform(-2, 2, (100, 3))
    twice = tau_tilde(alg, tau_tilde(alg, tau))
    assert np.max(np.abs(twice(pts) - tau(pts))) < 1e-12
    # also for a generic commuting-with-argument custom map
    tau_c = TauMap(lambda p: np.tanh(p), name="tanh")  # abelian only
    a2 = abelian(2)
    pts2 = np.random.default_rng(4).uniform(-1, 1, (50, 2))
    twice2 = tau_tilde(a2, tau_tilde(a2, tau_c))
    assert np.max(np.abs(twice2(pts2) - tau_c(pts2))) < 1e-12


def test_resolve_tau():
    alg = heisenberg()
    assert resolve_tau(alg, "e").is_trivial
    assert resolve_tau(alg, "id").name == "id"
    assert resolve_tau(alg, "symmetric").name == "symmetric"
    with pytest.raises(ValueError):
        resolve_tau(alg, "weyl")


def test_op_tau_adjoint_identity_abelian():
    alg, grid, xi, w = line(N=64)
    sym = GaussianSymbol.make(1, amplitude=1.1 - 0.4j, x_center=[0.2], x_phase=[0.5],
                              xi_center=[-0.1], xi_phase=[0.3])
    tau = scaled_tau(0.5)
    lhs = op_quantize_tau(alg, sym, tau, grid).adjoint()
    rhs = op_quantize_tau(alg, sym.conjugate(), tau_tilde(alg, tau), grid)
    assert lhs.frobenius_distance(rhs) < 1e-10


def test_op_tau_adjoint_identity_h1_symmetric():
    alg = heisenberg()
    grid = Grid.box(3, 4.0, 7)
    sym = GaussianSymbol.make(3, amplitude=0.9 + 0.2j, x_phase=[0.3, 0.1, 0.0],
                              xi_phase=[0.0, 0.2, 0.4])
    tau = symmetric_tau(alg)
    lhs = op_quantize_tau(alg, sym, tau, grid).adjoint()
    rhs = op_quantize_tau(alg, sym.conjugate(), tau_tilde(alg, tau), grid)
    assert lhs.frobenius_distance(rhs) < 1e-10


def test_op_tau_real_symbol_symmetric_hermitian():
    alg = heisenberg()
    grid = Grid.box(3, 4.0, 7)
    sym = GaussianSymbol.make(3, amplitude=1.3)
    op = op_quantize_tau(alg, sym, symmetric_tau(alg), grid)
    assert op.hermiticity_residual() < 1e-10


def test_op_tau_e_vs_id_adjoint_related_abelian():
    # for a real symbol the tau = e and tau = id quantizers are adjoints
    alg, grid, xi, w = line(N=48)
    sym = GaussianSymbol.make(1, amplitude=1.2)
    op_e = op_quantize_tau(alg, sym, tau_e(1), grid)
    op_id = op_quantize_tau(alg, sym, tau_id(), grid)
    assert op_e.adjoint().frobenius_distance(op_id) < 1e-12


def test_weyl_tau_trivial_reduction_bitwise():
    alg, grid, xi, w = line(N=96)
    rng = np.random.default_rng(5)
    u = random_gaussian(rng, 1)
    p = PhasePoint([0.4], [0.9])
    pts = rng.uniform(-2, 2, (20, 1))
    assert np.array_equal(weyl_tau(alg, tau_e(1), p, u)(pts), weyl(alg, p, u)(pts))
    assert np.array_equal(coherent_tau(alg, tau_e(1), w, p)(pts),
                          weyl_adjoint(alg, p, w.field)(pts))


def test_weyl_tau_custom_e_matches_plain():
    # a custom map that evaluates to the unit without the "e" tag still
    # reproduces the plain system numerically
    alg = heisenberg()
    rng = np.random.default_rng(6)
    u = random_gaussian(rng, 3)
    p = PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    pts = rng.uniform(-1, 1, (10, 3))
    tau_custom = TauMap(lambda q: np.zeros_like(q), name="custom-e")
    assert np.max(np.abs(weyl_tau(alg, tau_custom, p, u)(pts)
                         - weyl(alg, p, u)(pts))) < 1e-12


def test_weyl_tau_id_is_opposite_ordering():
    alg = heisenberg()
    rng = np.random.default_rng(7)
    u = random_gaussian(rng, 3)
    p = PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    pts = rng.uniform(-1, 1, (10, 3))
    lhs = weyl_tau(alg, tau_id(), p, u)(pts)
    rhs = trans_L(alg, p.zv, mult_M(alg, p.zetav, u))(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_weyl_tau_abelian_symmetric_shift():
    # tau(x) = x/2 gives the symmetric shift e^{i zeta (x - z/2)} u(x - z)
    alg, grid, xi, w = line(N=96)
    rng = np.random.default_rng(8)
    u = random_gaussian(rng, 1)
    z, zeta = 0.8, -1.3
    p = PhasePoint([z], [zeta])
    pts = rng.uniform(-2, 2, (15, 1))
    got = weyl_tau(alg, symmetric_tau(alg), p, u)(pts)
    ref = np.exp(1j * zeta * (pts[:, 0] - z / 2.0)) * u(pts - z)
    assert np.max(np.abs(got - ref)) < 1e-13


def test_weyl_tau_unitary():
    alg, grid, xi, w = line(N=96)
    u = coherent_state(alg, w, PhasePoint([0.2], [0.4]))
    p = PhasePoint([0.5], [-0.7])
    for tau in (tau_id(), symmetric_tau(alg)):
        tu = weyl_tau(alg, tau, p, u)
        assert abs(l2_norm(tu, grid) / l2_norm(u, grid) - 1.0) < 1e-10


def test_coherent_tau_normalized_and_consistent():
    alg, grid, xi, w = line(N=96)
    p = PhasePoint([0.6], [0.3])
    for tau in (tau_id(), symmetric_tau(alg)):
        state = coherent_tau(alg, tau, w, p)
        assert abs(l2_norm(state, grid) - 1.0) < 1e-10


def test_wigner_tau_matches_weyl_tau_pairing():
    alg, grid, xi, w = line(N=64)
    small_xi = XiGrid.box(1, 10.0, 12)
    rng = np.random.default_rng(9)
    u, v = random_gaussian(rng, 1), random_gaussian(rng, 1)
    tau = symmetric_tau(alg)
    vals = wigner_tau(alg, tau, u, v, grid, small_xi)
    zn, dn = small_xi.node_pairs()
    for i in (2, 7):
        for j in (3, 8):
            p = PhasePoint(zn[i], dn[j])
            ref = inner(weyl_tau(alg, tau, p, u), v, grid)
            assert abs(vals.values[i, j] - ref) < 1e-12


def test_berezin_tau_trivial_bitwise():
    alg, grid, xi, w = line(N=64)
    sym = GaussianSymbol.make(1, x_center=[0.1])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    assert np.array_equal(berezin_tau(cfg, tau_e(1)).kernel, berezin_matrix(cfg).kernel)


def test_berezin_tau_id_identity_symbol():
    alg, grid, xi, w = line(N=64)
    one = XOnlySymbol(Field(lambda p: np.ones(p.shape[:-1]), 1), 1)
    # weak check through the tau-Wigner transform: <Ber_id(1) u, v> = <u, v>
    rng = np.random.default_rng(10)
    u, v = random_gaussian(rng, 1), random_gaussian(rng, 1)
    tau = tau_id()
    wu = wigner_tau(alg, tau, u, w.field, grid, xi)
    wv = wigner_tau(alg, tau, v, w.field, grid, xi)
    got = wu.inner(wv)
    ref = inner(u, v, grid)
    assert abs(got - ref) / abs(ref) < 5e-2


def test_berezin_tau_special_symbols():
    alg, grid, xi, w = line(N=64)
    one = XOnlySymbol(Field(lambda p: np.ones(p.shape[:-1]), 1), 1)
    op = berezin_tau(BerezinConfig(alg, w, grid, xi, one), symmetric_tau(alg))
    assert op.meta.get("multiplication")
    rng = np.random.default_rng(11)
    u = random_gaussian(rng, 1)(grid.nodes())
    assert np.linalg.norm(op.apply_samples(u) - u) / np.linalg.norm(u) < 5e-2
    from nilquant.symbols import DeltaSymbol
    p = PhasePoint([0.3], [0.4])
    proj = berezin_tau(BerezinConfig(alg, w, grid, xi, DeltaSymbol.at(p.zv, p.zetav)),
                       tau_id())
    assert proj.meta.get("delta_symbol")
    assert abs(proj.trace() - 1.0) < 2e-2
    state = coherent_tau(alg, tau_id(), w, p)(grid.nodes())
    assert np.max(np.abs(proj.kernel - np.outer(state, state.conj()))) < 1e-14


def test_berezin_tau_positivity():
    alg, grid, xi, w = line(N=64)
    sym = GaussianSymbol.make(1, amplitude=0.8)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    for tau in (tau_id(), symmetric_tau(alg)):
        op = berezin_tau(cfg, tau)
        assert op.hermiticity_residual() < 1e-10
        assert op.min_eigenvalue() > -1e-8


def test_covariance_modulation():
    alg, grid, xi, w = line(N=96)
    sym = GaussianSymbol.make(1, xi_center=[0.2])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    assert covariance_residual_M(cfg, np.array([0.0])) < 1e-14
    assert covariance_residual_M(cfg, np.array([1.0])) < 5e-2


def test_covariance_modulation_h1_small():
    alg = heisenberg()
    grid = Grid.box(3, 4.0, 7)
    xi = XiGrid.box(3, 4.0, 7)
    w = make_window(alg, grid)
    sym = GaussianSymbol.make(3)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    assert covariance_residual_M(cfg, np.array([0.0, 0.0, 0.5])) < 5e-2
