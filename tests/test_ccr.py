"""Modulations, translations, generators, and the relation suite."""

import numpy as np
import pytest

from nilquant.algebra import abelian, heisenberg
from nilquant.ccr import (CcrContext, deriv_L, deriv_R, eps_field, lambda_field,
                          mult_M, trans_L, trans_R, verify_ccr)
from nilquant.fields import gaussian, gridded_field, random_gaussian
from nilquant.grids import Grid
from nilquant.transforms import l2_norm


def test_lambda_eps_basics():
    h1 = heisenberg()
    lam = lambda_field(h1, np.zeros(3))
    eps = eps_field(h1, np.zeros(3))
    pts = np.random.default_rng(0).uniform(-1, 1, (5, 3))
    assert np.allclose(lam(pts), 0.0)
    assert np.allclose(eps(pts), 1.0)
    # n = 1, zeta = 2: lambda(x) = 2x
    a1 = abelian(1)
    lam1 = lambda_field(a1, [2.0])
    assert np.allclose(lam1(np.array([[0.3], [-1.2]])), [0.6, -2.4])
    # H1, zeta = e3#: lambda picks the third coordinate
    lam3 = lambda_field(h1, [0.0, 0.0, 1.0])
    assert np.allclose(lam3(pts), pts[:, 2])
    assert np.allclose(np.abs(eps_field(h1, [0.3, -1.0, 2.0])(pts)), 1.0)


def test_mult_M_identity_and_addition():
    h1 = heisenberg()
    rng = np.random.default_rng(1)
    u = random_gaussian(rng, 3)
    pts = rng.uniform(-1, 1, (10, 3))
    assert np.allclose(mult_M(h1, np.zeros(3), u)(pts), u(pts))
    eta, zeta = rng.uniform(-1, 1, (2, 3))
    lhs = mult_M(h1, eta, mult_M(h1, zeta, u))(pts)
    rhs = mult_M(h1, eta + zeta, u)(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_mult_M_unitary():
    a1 = abelian(1)
    g = Grid.box(1, 10.0, 128)
    u = gaussian(1, center=[0.4])
    Mu = mult_M(a1, [1.3], u)
    assert abs(l2_norm(Mu, g) / l2_norm(u, g) - 1.0) < 1e-12


def test_trans_L_identity_and_abelian_shift():
    a1 = abelian(1)
    rng = np.random.default_rng(2)
    u = random_gaussian(rng, 1)
    pts = rng.uniform(-2, 2, (10, 1))
    assert np.allclose(trans_L(a1, np.zeros(1), u)(pts), u(pts))
    z = np.array([0.7])
    assert np.allclose(trans_L(a1, z, u)(pts), u(pts - z))
    assert np.allclose(trans_R(a1, z, u)(pts), u(pts + z))


def test_trans_L_representation_h1():
    h1 = heisenberg()
    rng = np.random.default_rng(3)
    u = random_gaussian(rng, 3)
    pts = rng.uniform(-1, 1, (10, 3))
    for _ in range(5):
        y, z = rng.uniform(-1, 1, (2, 3))
        lhs = trans_L(h1, y, trans_L(h1, z, u))(pts)
        rhs = trans_L(h1, h1.mul(y, z), u)(pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_left_right_translations_commute():
    h1 = heisenberg()
    rng = np.random.default_rng(4)
    u = random_gaussian(rng, 3)
    y, z = rng.uniform(-1, 1, (2, 3))
    pts = rng.uniform(-1, 1, (10, 3))
    lhs = trans_L(h1, y, trans_R(h1, z, u))(pts)
    rhs = trans_R(h1, z, trans_L(h1, y, u))(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_trans_of_gridded_field_flags_interpolation():
    a1 = abelian(1)
    g = Grid.box(1, 6.0, 64)
    u = gridded_field(g, gaussian(1)(g.nodes()))
    assert trans_L(a1, np.array([0.3]), u).interpolated


def test_deriv_constant_and_abelian_oracle():
    a1 = abelian(1)
    const = gaussian(1, sigma=1e6, amplitude=1.0)  # flat on the test window
    pts = np.linspace(-1, 1, 7)[:, None]
    assert np.max(np.abs(deriv_L(a1, np.ones(1), const)(pts))) < 1e-6
    # u(x) = exp(-x^2/2): D^L_Z u = u'(x) = -x u(x) for Z = 1
    u = gaussian(1, amplitude=1.0)
    got = deriv_L(a1, np.ones(1), u)(pts)
    ref = -pts[:, 0] * np.exp(-0.5 * pts[:, 0] ** 2)
    assert np.max(np.abs(got - ref)) < 1e-7
    got_r = deriv_R(a1, np.ones(1), u)(pts)
    assert np.max(np.abs(got_r - ref)) < 1e-7


def test_deriv_rejects_bad_step():
    a1 = abelian(1)
    u = gaussian(1)
    with pytest.raises(ValueError):
        deriv_L(a1, np.ones(1), u, h=0.0)
    with pytest.raises(ValueError):
        deriv_R(a1, np.ones(1), u, h=-1e-3)


def test_left_bracket_orientation_h1():
    # [D^L_Y, D^L_Z] = D^L_{[Z,Y]} (anti); [D^R_Y, D^R_Z] = D^R_{[Y,Z]}
    h1 = heisenberg()
    rng = np.random.default_rng(5)
    u = random_gaussian(rng, 3)
    Y, Z = rng.uniform(-1, 1, (2, 3))
    pts = rng.uniform(-1, 1, (8, 3))
    h = 1e-4
    commL = (deriv_L(h1, Y, deriv_L(h1, Z, u, h), h)(pts)
             - deriv_L(h1, Z, deriv_L(h1, Y, u, h), h)(pts))
    assert np.max(np.abs(commL - deriv_L(h1, h1.bracket(Z, Y), u, h)(pts))) < 1e-5
    assert np.max(np.abs(commL - deriv_L(h1, h1.bracket(Y, Z), u, h)(pts))) > 1e-3
    commR = (deriv_R(h1, Y, deriv_R(h1, Z, u, h), h)(pts)
             - deriv_R(h1, Z, deriv_R(h1, Y, u, h), h)(pts))
    assert np.max(np.abs(commR - deriv_R(h1, h1.bracket(Y, Z), u, h)(pts))) < 1e-5


def test_verify_ccr_abelian():
    ctx = CcrContext(abelian(1), Grid.box(1, 10.0, 64))
    report = verify_ccr(ctx, samples=2, seed=0)
    assert all(res.passed for res in report), [r.line() for r in report]
    for res in report:
        if res.name.startswith("mult"):
            assert res.residual < 1e-8


def test_verify_ccr_heisenberg():
    ctx = CcrContext(heisenberg(), Grid.box(3, 4.0, 9))
    report = verify_ccr(ctx, samples=2, seed=1)
    by_name = {r.name: r for r in report}
    assert by_name["mult_mixed"].residual < 1e-10
    assert by_name["d_lambda"].residual < 1e-6
    assert all(r.passed for r in report), [r.line() for r in report]
