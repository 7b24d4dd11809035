"""Magnetic translations, fluxes, the cocycle relation and gauge covariance,
and the circulation and flux rules sized to the potential's degree against
the GL_ORDER rule they replaced."""

import dataclasses

import numpy as np
import pytest

from nilquant.algebra import abelian, heisenberg
from nilquant.berezin import BerezinConfig, berezin_matrix, symbol_integral
from nilquant.ccr import trans_L
from nilquant.coherent import (NyquistWarning, PhasePoint, fourier_wigner, make_window, weyl,
                               weyl_adjoint)
from nilquant.fields import Field, gaussian, random_gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import (GL_ORDER, MagneticField, VectorPotential, circulation,
                               cocycle_flux, cocycle_residual, flux_triangle,
                               gauge_check, grad_potential, landau_potential,
                               linear3_potential, mag_berezin, mag_coherent,
                               mag_translation, mag_weyl, mag_wigner,
                               potential_preset, rule_points, segment, stokes_residual,
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


def _central_difference_field(A, p, h=1e-5):
    """B = dA by central differences of step h at each point, the route of
    `MagneticField.from_potential` for a potential of degree >= 2 or unknown."""
    n = p.shape[-1]
    jac = np.empty(p.shape[:-1] + (n, n))
    for i in range(n):
        dp = np.zeros(n)
        dp[i] = h
        jac[..., i, :] = (A(p + dp) - A(p - dp)) / (2.0 * h)
    return jac - np.swapaxes(jac, -1, -2)


def test_field_of_an_affine_potential_is_exact_and_constant():
    pts = np.random.default_rng(4).uniform(-3, 3, (2, 5, 3))
    for A, n, b in ((landau_potential(0.6), 2, 0.6), (linear3_potential(0.5), 3, 0.5),
                    (linear3_potential(0.5) + grad_potential(PSI_H1, analytic_grad=grad_h1,
                                                             degree=1), 3, 0.5)):
        want = np.zeros((n, n))
        want[0, 1], want[1, 0] = b, -b
        vals = MagneticField.from_potential(A)(pts[..., :n])
        assert vals.shape == (2, 5, n, n)
        assert np.array_equal(vals, np.broadcast_to(want, vals.shape))
    assert np.array_equal(MagneticField.from_potential(zero_potential(3))(pts),
                          np.zeros((2, 5, 3, 3)))


def test_field_of_a_quadratic_or_unknown_potential_keeps_the_differences():
    pts = np.random.default_rng(6).uniform(-2, 2, (7, 2))
    custom = VectorPotential(lambda p: np.sin(p), name="sin")
    for A in (quadratic_potential(), custom):
        got = MagneticField.from_potential(A)(pts)
        assert np.array_equal(got, _central_difference_field(A, pts))


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


def variable_potential(n):
    """A degree-2 potential on the first two axes whose field varies:
    dA = (0.4 - 0.3 x_2) dx_1^dx_2."""
    def fn(p):
        out = np.zeros_like(p)
        out[..., 0] = 0.2 * p[..., 1] ** 2
        out[..., 1] = 0.4 * p[..., 0] + 0.1 * p[..., 0] * p[..., 1]
        return out
    return VectorPotential(fn, name="variable", degree=2)


@pytest.mark.parametrize("alg", [abelian(2), heisenberg()], ids=["abelian:2", "heisenberg:1"])
def test_cocycle_with_a_variable_field(alg):
    """A constant field gives every cocycle triangle the same flux whatever
    x is; this one does not.  All points at once against one literal
    triangle per point, and the cocycle relation itself."""
    n = alg.dim
    rng = np.random.default_rng(25)
    A = variable_potential(n)
    B = MagneticField.from_potential(A)
    y, z = rng.uniform(-1.0, 1.0, (2, n))
    points = rng.uniform(-1.5, 1.5, (9, n))
    got = cocycle_flux(alg, B, points, y, z)
    assert got.shape == (9,)
    for x, flux in zip(points, got):
        back = alg.bch(alg.inv(y), x)
        want = flux_triangle(B, x, back, alg.bch(alg.inv(z), back))
        assert abs(flux - want) <= 1e-14 * (1.0 + abs(want))
    assert np.ptp(got) > 1e-2
    assert cocycle_residual(alg, A, gaussian(n), y, z, points, B) < 1e-8


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
    # the N=8 plane grid puts the dual half-width 6 past its band pi/h = 2.09
    with pytest.warns(NyquistWarning):
        seconds = {r.name: r.seconds for r in verify.suite_magnetic()}
    for translation, berezin in (("magnetic_gauge_translation",
                                  "magnetic_gauge_berezin_abelian"),
                                 ("magnetic_gauge_translation_h1",
                                  "magnetic_gauge_berezin_h1")):
        # one shared timer gave both checks the same time; the Berezin
        # residual assembles two kernels, the translation one evaluates ten
        # points
        assert seconds[translation] < seconds[berezin]


# -- circulation and flux rules sized to the degree ---------------------------

RULE_TOL = 1e-12


def full_rule(A):
    """A potential or field with its degree forgotten: it takes the GL_ORDER
    rule every circulation and flux took before the rules were sized."""
    return dataclasses.replace(A, degree=None)


def relative_gap(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def quadratic_potential():
    """The degree-2 potential of the kernel-assembly tests."""
    return VectorPotential(lambda p: 0.5 * p + 0.2 * p ** 2, name="quadratic", degree=2)


PSI_H1 = Field(lambda p: 0.5 * p[..., 0] * p[..., 1] + 0.3 * p[..., 2], 3)


def grad_h1(p):
    """d(PSI_H1): affine."""
    out = np.empty_like(p)
    out[..., 0] = 0.5 * p[..., 1]
    out[..., 1] = 0.5 * p[..., 0]
    out[..., 2] = 0.3
    return out


def test_potential_and_field_degrees():
    custom = VectorPotential(lambda p: np.sin(p))
    grad1 = grad_potential(Field(lambda p: p[..., 0] * p[..., 1], 2),
                           analytic_grad=lambda p: p[..., ::-1].copy(), degree=1)
    assert zero_potential(2).degree == 0
    assert landau_potential(0.5).degree == linear3_potential(0.5).degree == 1
    assert potential_preset("landau:0.5", 2).degree == 1
    assert potential_preset("linear3:0.5", 3).degree == 1
    assert (landau_potential(0.5) + grad1).degree == 1
    assert (landau_potential(0.5) + quadratic_potential()).degree == 2
    assert (zero_potential(2) + quadratic_potential()).degree == 2
    assert custom.degree is None and (landau_potential(0.5) + custom).degree is None
    assert grad_potential(Field(lambda p: p[..., 0] ** 2, 2)).degree is None
    assert MagneticField.constant([[0.0, 1.0], [-1.0, 0.0]]).degree == 0
    assert MagneticField.from_potential(landau_potential(0.5)).degree == 0
    assert MagneticField.from_potential(quadratic_potential()).degree == 1
    assert MagneticField.from_potential(zero_potential(2)).degree == 0
    assert MagneticField.from_potential(custom).degree is None
    for bad in (-1, 1.5, True, "1"):
        with pytest.raises(ValueError):
            VectorPotential(lambda p: p, degree=bad)
        with pytest.raises(ValueError):
            MagneticField(lambda p: p, degree=bad)
    with pytest.raises(ValueError):  # a finite-difference gradient has no degree
        grad_potential(Field(lambda p: p[..., 0] ** 2, 2), degree=1)


def test_rule_points_per_degree():
    assert GL_ORDER == 32 and rule_points(None) == GL_ORDER
    assert [rule_points(d) for d in range(8)] == [1, 1, 2, 2, 3, 3, 4, 4]
    assert zero_potential(2).circulation_points == 0
    assert landau_potential(0.5).circulation_points == 1
    assert quadratic_potential().circulation_points == 2
    assert VectorPotential(lambda p: p).circulation_points == GL_ORDER


@pytest.mark.parametrize("degree", range(7))
def test_sized_rule_is_exact_and_tight(degree):
    """On the line, A(p) = p^d from 0 to 1 circulates to 1/(d + 1) with the
    sized rule; declared one degree lower, an even degree loses a point and
    the rule is no longer exact."""
    A = VectorPotential(lambda p: p ** degree, degree=degree)
    x, y = np.zeros(1), np.ones(1)
    assert abs(float(circulation(A, x, y)) - 1.0 / (degree + 1)) < 1e-15
    if degree % 2 == 0 and degree > 0:
        low = dataclasses.replace(A, degree=degree - 1)
        assert abs(float(circulation(low, x, y)) - 1.0 / (degree + 1)) > 1e-6


def test_unknown_degree_keeps_the_32_point_rule_bitwise():
    """A potential of unknown degree takes the route circulation and
    flux_triangle ran before the rules were sized, bit for bit."""
    t, w = np.polynomial.legendre.leggauss(32)
    t, w = (t + 1.0) / 2.0, w / 2.0
    A = full_rule(linear3_potential(0.6)) + VectorPotential(lambda p: np.cos(p))
    rng = np.random.default_rng(20)
    x, y = rng.uniform(-2.0, 2.0, (2, 9, 3))
    d = y - x
    pts = x[..., None, :] + t[:, None] * d[..., None, :]
    ref = np.einsum("...i,...ki->...k", d, A(pts)) @ w
    assert np.array_equal(circulation(A, x, y), ref)

    B = full_rule(MagneticField.constant([[0.0, 0.7], [-0.7, 0.0]]))
    p0, p1, p2 = rng.uniform(-1.0, 1.0, (3, 2))
    u, v = p1 - p0, p2 - p0
    s_nodes, tp_nodes = t[:, None], t[None, :]
    tri = (p0[None, None, :] + s_nodes[..., None] * u[None, None, :]
           + (tp_nodes * (1.0 - s_nodes))[..., None] * v[None, None, :])
    vals = np.einsum("i,abij,j->ab", u, B(tri), v)
    jac = (1.0 - s_nodes) * np.ones_like(tp_nodes)
    assert flux_triangle(B, p0, p1, p2) == float(np.einsum("a,ab,b->", w, vals * jac, w))


@pytest.mark.parametrize("alg", [abelian(2), heisenberg()], ids=["abelian:2", "heisenberg:1"])
def test_random_affine_potentials_match_the_full_rule(alg):
    """The one-point rule against the 32-point rule on the translation
    segments [x, z^{-1}x] and the magnetic translations built from them."""
    n = alg.dim
    rng = np.random.default_rng(21)
    u = gaussian(n, center=np.full(n, 0.2))
    for _ in range(5):
        M, c = rng.normal(size=(n, n)), rng.normal(size=n)
        A = VectorPotential(lambda p, M=M, c=c: p @ M.T + c, name="affine", degree=1)
        assert A.circulation_points == 1
        x = rng.uniform(-3.0, 3.0, (50, n))
        z = rng.uniform(-1.5, 1.5, n)
        back = alg.bch(alg.inv(z), x)
        assert relative_gap(circulation(A, x, back),
                            circulation(full_rule(A), x, back)) <= RULE_TOL
        assert relative_gap(mag_translation(alg, A, z, u)(x),
                            mag_translation(alg, full_rule(A), z, u)(x)) <= RULE_TOL


def test_degree_two_potential_takes_two_points():
    rng = np.random.default_rng(22)
    for n in (1, 3):
        A = quadratic_potential()
        x, y = rng.uniform(-3.0, 3.0, (2, 40, n))
        ref = circulation(full_rule(A), x, y)
        assert relative_gap(circulation(A, x, y), ref) <= RULE_TOL
        # the midpoint alone misses the quadratic part
        assert relative_gap(circulation(dataclasses.replace(A, degree=1), x, y), ref) > 1e-3


def test_flux_triangle_sized_rule():
    """Constant and affine fields against the 32-point rule and the closed
    form (signed area times B at the centroid); Stokes with a degree-2
    potential, whose finite-difference field is affine."""
    def affine_field(p):
        b = 0.4 - 0.3 * p[..., 1]
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 1], out[..., 1, 0] = b, -b
        return out

    const = MagneticField.constant([[0.0, 1.3], [-1.3, 0.0]])
    affine = MagneticField(affine_field, degree=1)
    rng = np.random.default_rng(23)
    for _ in range(10):
        p0, p1, p2 = rng.uniform(-2.0, 2.0, (3, 2))
        u, v = p1 - p0, p2 - p0
        area = 0.5 * (u[0] * v[1] - u[1] * v[0])
        centroid = (p0 + p1 + p2) / 3.0
        for B, exact in ((const, 1.3 * area), (affine, (0.4 - 0.3 * centroid[1]) * area)):
            got = flux_triangle(B, p0, p1, p2)
            assert abs(got - exact) < 1e-13
            assert abs(got - flux_triangle(full_rule(B), p0, p1, p2)) <= RULE_TOL * (
                1.0 + abs(exact))
    A = VectorPotential(lambda p: np.stack([0.2 * p[..., 1] ** 2,
                                            0.4 * p[..., 0] + 0.1 * p[..., 0] * p[..., 1]],
                                           axis=-1), name="quadratic2", degree=2)
    assert MagneticField.from_potential(A).degree == 1
    for _ in range(5):
        x, y, z = rng.uniform(-1.0, 1.0, (3, 2))
        assert stokes_residual(abelian(2), A, x, y, z) < 1e-8


def test_mag_berezin_kernels_match_the_full_rule_at_m343():
    """The benchmark's H1 sizes (m = 343 rows, 125 z nodes): linear3 and the
    gauge sum linear3 + d(psi) against the 32-point route."""
    alg = heisenberg()
    grid, xi = Grid.box(3, 4.5, 7), XiGrid.box(3, 3.5, 5)
    cfg = BerezinConfig(alg, make_window(alg, grid), grid, xi,
                        GaussianSymbol.make(3, amplitude=0.9, x_center=[0.3, -0.2, 0.1]))
    A = linear3_potential(0.6)
    for pot in (A, A + grad_potential(PSI_H1, analytic_grad=grad_h1, degree=1)):
        assert pot.circulation_points == 1
        K = mag_berezin(cfg, pot).kernel
        assert K.shape == (343, 343)
        assert relative_gap(K, mag_berezin(cfg, full_rule(pot)).kernel) <= RULE_TOL
