"""Magnetic translations, fluxes, the cocycle relation and gauge covariance."""

import numpy as np
import pytest

from nilquant.algebra import abelian, heisenberg
from nilquant.berezin import BerezinConfig, berezin_matrix, symbol_integral
from nilquant.ccr import trans_L
from nilquant.coherent import PhasePoint, fourier_wigner, make_window, weyl, weyl_adjoint
from nilquant.fields import Field, gaussian, random_gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import (MagneticField, VectorPotential, circulation,
                               cocycle_flux, cocycle_residual, flux_triangle,
                               gauge_check, grad_potential, landau_potential,
                               linear3_potential, mag_berezin, mag_coherent,
                               mag_translation, mag_weyl, mag_wigner,
                               potential_preset, segment, stokes_residual,
                               zero_potential)
from nilquant.symbols import GaussianSymbol
from nilquant.transforms import inner, l2_norm


def plane(N=24):
    alg = abelian(2)
    grid = Grid.box(2, 6.0, N)
    xi = XiGrid.box(2, 6.0, N)
    return alg, grid, xi, make_window(alg, grid)


def test_segment_endpoints_and_midpoint():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert np.allclose(segment(x, y, 0.0), x)
    assert np.allclose(segment(x, y, 1.0), y)
    assert np.allclose(segment(x, y, 0.5), [0.5, 0.5, 0.0])
    assert np.allclose(segment(x, x, 0.73), x)


def test_circulation_constant_potential_exact():
    alpha = np.array([0.3, -0.7])
    A = VectorPotential(lambda p: np.broadcast_to(alpha, p.shape), name="const")
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.uniform(-2, 2, (2, 2))
        got = float(circulation(A, x, y))
        assert abs(got - float((y - x) @ alpha)) < 1e-14
    x = rng.uniform(-1, 1, 2)
    assert abs(float(circulation(A, x, x))) < 1e-15


def test_circulation_antisymmetric():
    A = landau_potential(0.9)
    rng = np.random.default_rng(1)
    x, y = rng.uniform(-1.5, 1.5, (2, 2))
    assert abs(float(circulation(A, x, y)) + float(circulation(A, y, x))) < 1e-14


def test_circulation_landau_closed_form():
    # linear potential: Gamma = <y - x | A(x)> + <y - x | A(y - x)>/2 and the
    # second term vanishes, leaving (b/2)(x1 y2 - x2 y1)
    b = 0.8
    A = landau_potential(b)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, y = rng.uniform(-2, 2, (2, 2))
        ref = 0.5 * b * (x[0] * y[1] - x[1] * y[0])
        assert abs(float(circulation(A, x, y)) - ref) < 1e-13
    assert abs(float(circulation(A, np.zeros(2), np.array([1.0, 1.0])))) < 1e-14


def test_flux_degenerate_triangle():
    B = MagneticField.constant([[0.0, 1.0], [-1.0, 0.0]])
    p0 = np.array([0.1, 0.2])
    p1 = np.array([0.6, 0.7])
    p2 = 2.0 * p1 - p0  # collinear
    assert abs(flux_triangle(B, p0, p1, p2)) < 1e-14


def test_flux_constant_field_is_signed_area():
    b = 1.3
    B = MagneticField.constant([[0.0, b], [-b, 0.0]])
    rng = np.random.default_rng(3)
    for _ in range(10):
        p0, p1, p2 = rng.uniform(-2, 2, (3, 2))
        u, v = p1 - p0, p2 - p0
        area = 0.5 * (u[0] * v[1] - u[1] * v[0])
        assert abs(flux_triangle(B, p0, p1, p2) - b * area) < 1e-12


def test_field_from_potential_matches_constant():
    A = landau_potential(0.6)
    B = MagneticField.from_potential(A)
    pts = np.random.default_rng(4).uniform(-1, 1, (5, 2))
    vals = B(pts)
    assert np.allclose(vals[..., 0, 1], 0.6, atol=1e-9)
    assert np.allclose(vals + np.swapaxes(vals, -1, -2), 0.0, atol=1e-12)


def test_stokes_flux_vs_boundary():
    rng = np.random.default_rng(5)
    for alg, A in ((abelian(2), landau_potential(0.7)),
                   (heisenberg(), linear3_potential(0.5))):
        for _ in range(5):
            x, y, z = rng.uniform(-1, 1, (3, alg.dim))
            assert stokes_residual(alg, A, x, y, z) < 1e-8


def test_mag_translation_zero_field_same_path():
    alg = abelian(2)
    rng = np.random.default_rng(6)
    u = random_gaussian(rng, 2)
    z = rng.uniform(-1, 1, 2)
    pts = rng.uniform(-1.5, 1.5, (10, 2))
    got = mag_translation(alg, zero_potential(2), z, u)(pts)
    ref = trans_L(alg, z, u)(pts)
    assert np.array_equal(got, ref)


def test_mag_translation_unit_element():
    alg = abelian(2)
    A = landau_potential(0.4)
    rng = np.random.default_rng(7)
    u = random_gaussian(rng, 2)
    pts = rng.uniform(-1, 1, (10, 2))
    assert np.max(np.abs(mag_translation(alg, A, np.zeros(2), u)(pts) - u(pts))) < 1e-14


def test_mag_translation_unitary():
    alg, grid, xi, w = plane()
    A = landau_potential(0.5)
    u = gaussian(2, center=[0.3, -0.2])
    tu = mag_translation(alg, A, np.array([0.4, 0.1]), u)
    assert abs(l2_norm(tu, grid) / l2_norm(u, grid) - 1.0) < 1e-10


def test_cocycle_relation():
    rng = np.random.default_rng(8)
    alg2 = abelian(2)
    A2 = landau_potential(0.7)
    u2 = gaussian(2)
    res = cocycle_residual(alg2, A2, u2, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                           rng.uniform(-1.5, 1.5, (8, 2)))
    assert res < 1e-8
    algH = heisenberg()
    AH = linear3_potential(0.4)
    uH = gaussian(3)
    res = cocycle_residual(algH, AH, uH, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3),
                           rng.uniform(-1.5, 1.5, (8, 3)))
    assert res < 1e-8


def test_cocycle_flux_corners():
    # degenerate triangle when y = z = e
    alg = heisenberg()
    B = MagneticField.from_potential(linear3_potential(0.5))
    x = np.array([0.3, -0.2, 0.1])
    assert abs(cocycle_flux(alg, B, x, np.zeros(3), np.zeros(3))) < 1e-14


def test_mag_weyl_and_coherent_reductions():
    alg, grid, xi, w = plane()
    rng = np.random.default_rng(9)
    u = random_gaussian(rng, 2)
    p = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
    pts = rng.uniform(-1, 1, (10, 2))
    A0 = zero_potential(2)
    assert np.array_equal(mag_weyl(alg, A0, p, u)(pts), weyl(alg, p, u)(pts))
    assert np.array_equal(mag_coherent(alg, A0, w, p)(pts),
                          weyl_adjoint(alg, p, w.field)(pts))
    A = landau_potential(0.6)
    state = mag_coherent(alg, A, w, p)
    assert abs(l2_norm(state, grid) - 1.0) < 1e-10
    tu = mag_weyl(alg, A, p, u)
    # random centers push a little mass toward the box edge: allow truncation
    assert abs(l2_norm(tu, grid) / l2_norm(u, grid) - 1.0) < 1e-9


def test_mag_wigner_origin_and_reduction():
    alg, grid, xi, w = plane()
    rng = np.random.default_rng(10)
    u = random_gaussian(rng, 2, 0.5, 0.5)
    A0 = zero_potential(2)
    plain = fourier_wigner(alg, u, w.field, grid, xi)
    viaA = mag_wigner(alg, A0, u, w.field, grid, xi)
    assert np.array_equal(plain.values, viaA.values)
    A = landau_potential(0.5)
    vals = mag_wigner(alg, A, u, w.field, grid, xi)
    # at (e, 0) the segment is degenerate: value = <u, omega>
    zn, dn = xi.node_pairs()
    iz = np.argmin(np.sum(zn ** 2, axis=1))
    jz = np.argmin(np.sum(dn ** 2, axis=1))
    p = PhasePoint(zn[iz], dn[jz])
    ref = inner(mag_weyl(alg, A, p, u), w.field, grid)
    assert abs(vals.values[iz, jz] - ref) < 1e-12


def test_mag_berezin_zero_field_bitwise():
    alg, grid, xi, w = plane()
    sym = GaussianSymbol.make(2, x_center=[0.1, -0.1])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    assert np.array_equal(mag_berezin(cfg, zero_potential(2)).kernel,
                          berezin_matrix(cfg).kernel)


def test_mag_berezin_hermitian_positive_trace():
    alg, grid, xi, w = plane()
    sym = GaussianSymbol.make(2, amplitude=1.1)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    A = landau_potential(0.5)
    op = mag_berezin(cfg, A)
    assert op.hermiticity_residual() < 1e-10
    assert op.min_eigenvalue() > -1e-8
    ref = symbol_integral(cfg)
    assert abs(op.trace() - ref) / abs(ref) < 2e-2


def test_mag_berezin_special_symbols():
    alg, grid, xi, w = plane(N=16)
    A = landau_potential(0.5)
    from nilquant.fields import Field as F
    from nilquant.symbols import DeltaSymbol, XOnlySymbol
    one = XOnlySymbol(F(lambda p: np.ones(p.shape[:-1]), 2), 2)
    op = mag_berezin(BerezinConfig(alg, w, grid, xi, one), A)
    assert op.meta.get("multiplication")  # circulation phases cancel in |.|^2
    p = PhasePoint([0.2, -0.1], [0.3, 0.0])
    proj = mag_berezin(BerezinConfig(alg, w, grid, xi,
                                     DeltaSymbol.at(p.zv, p.zetav, mass=2.0)), A)
    assert proj.meta.get("delta_symbol")
    assert abs(proj.trace() - 2.0) < 4e-2
    state = mag_coherent(alg, A, w, p)(grid.nodes())
    assert np.max(np.abs(proj.kernel - 2.0 * np.outer(state, state.conj()))) < 1e-13


def test_gauge_covariance():
    alg, grid, xi, w = plane()
    sym = GaussianSymbol.make(2)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    A = landau_potential(0.4)
    psi = Field(lambda p: p[..., 0] * p[..., 1], 2)
    rep = gauge_check(cfg, A, psi, np.array([0.5, -0.3]),
                      np.random.default_rng(11).uniform(-1.5, 1.5, (10, 2)),
                      analytic_grad=lambda p: np.stack([p[..., 1], p[..., 0]], axis=-1))
    assert rep["translation_residual"] < 1e-8
    assert rep["berezin_residual"] < 5e-2


def test_gauge_covariance_constant_psi():
    # a constant gauge function changes nothing (global phase cancels)
    alg, grid, xi, w = plane(N=16)
    sym = GaussianSymbol.make(2)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    A = landau_potential(0.3)
    psi = Field(lambda p: 2.0 * np.ones(p.shape[:-1]), 2)
    rep = gauge_check(cfg, A, psi, np.array([0.2, 0.1]),
                      np.random.default_rng(12).uniform(-1, 1, (6, 2)),
                      analytic_grad=lambda p: np.zeros_like(p))
    assert rep["translation_residual"] < 1e-12
    assert rep["berezin_residual"] < 1e-10


def test_grad_potential_finite_difference():
    psi = Field(lambda p: p[..., 0] ** 2 + 3.0 * p[..., 1], 2)
    dpsi = grad_potential(psi)
    pts = np.random.default_rng(13).uniform(-1, 1, (5, 2))
    ref = np.stack([2.0 * pts[..., 0], 3.0 * np.ones(5)], axis=-1)
    assert np.max(np.abs(dpsi(pts) - ref)) < 1e-6


def test_potential_presets():
    assert potential_preset("zero", 3).is_zero
    assert potential_preset("landau:0.5", 2)(np.array([[1.0, 2.0]])).shape == (1, 2)
    assert potential_preset("linear3:1.0", 3)(np.zeros((1, 3))).shape == (1, 3)
    with pytest.raises(ValueError):
        potential_preset("landau:1.0", 3)
    with pytest.raises(ValueError):
        potential_preset("solenoid:1.0", 2)


def test_suite_times_gauge_checks_separately(monkeypatch):
    # small grids keep the suite quick; only the timings are under test
    from nilquant import verify
    plane_setup, heisenberg_setup = verify.plane_setup, verify.heisenberg_setup
    monkeypatch.setattr(verify, "plane_setup", lambda: plane_setup(N=8))
    monkeypatch.setattr(verify, "heisenberg_setup",
                        lambda N_op=11: heisenberg_setup(N_xi=3, N_op=3))
    seconds = {r.name: r.seconds for r in verify.suite_magnetic()}
    for translation, berezin in (("magnetic_gauge_translation",
                                  "magnetic_gauge_berezin_abelian"),
                                 ("magnetic_gauge_translation_h1",
                                  "magnetic_gauge_berezin_h1")):
        # one shared timer gave both checks the same time; the Berezin
        # residual assembles two kernels, the translation one evaluates ten
        # points
        assert seconds[translation] < seconds[berezin]
