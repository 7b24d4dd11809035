"""Lie algebra engine: brackets, BCH against matrix-exponential oracles,
coadjoint action, the closed-form left derivative, and validation."""

import numpy as np
import pytest

from nilquant.algebra import (AlgebraError, LieAlgebra, abelian, bch_terms, engel,
                              heisenberg, preset, validate_algebra)
from nilquant.verify import (bch_matrix_oracle, engel_coords, engel_matrix, h1_coords,
                             h1_matrix, _nilpotent_expm, _nilpotent_logm)

from oracles import bracket

E1, E2, E3 = np.eye(3)


def test_bracket_heisenberg_basis():
    h1 = heisenberg()
    assert np.allclose(h1.bracket(E1, E2), E3)
    assert np.allclose(h1.bracket(E2, E1), -E3)
    assert np.allclose(h1.bracket(E1, E3), 0.0)


def test_bracket_antisymmetry_and_oracle():
    h1 = heisenberg()
    rng = np.random.default_rng(0)
    for _ in range(20):
        X, Y = rng.uniform(-2, 2, (2, 3))
        assert np.allclose(h1.bracket(X, X), 0.0, atol=1e-14)
        assert np.allclose(h1.bracket(X, Y), bracket(h1, X, Y), atol=1e-13)
        assert np.allclose(h1.bracket(X, Y) + h1.bracket(Y, X), 0.0, atol=1e-13)


def test_bracket_abelian_zero():
    a = abelian(4)
    rng = np.random.default_rng(1)
    X, Y = rng.uniform(-1, 1, (2, 4))
    assert np.allclose(a.bracket(X, Y), 0.0)


def test_bracket_dimension_mismatch():
    with pytest.raises(AlgebraError):
        heisenberg().bracket(np.zeros(2), np.zeros(3))


def test_ad_matrix_heisenberg():
    h1 = heisenberg()
    ad1 = h1.ad(E1)
    assert np.allclose(ad1 @ E2, E3)
    assert np.allclose(ad1 @ E1, 0.0)
    assert np.allclose(ad1 @ E3, 0.0)
    assert np.allclose(h1.ad(np.zeros(3)), 0.0)


def test_ad_nilpotency():
    h1 = heisenberg()
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, 3)
    assert np.allclose(np.linalg.matrix_power(h1.ad(X), 2) @ rng.uniform(-1, 1, 3), 0.0)
    en = engel()
    Y = rng.uniform(-1, 1, 4)
    assert np.allclose(np.linalg.matrix_power(en.ad(Y), 3), 0.0)


def test_bch_heisenberg_frozen_value():
    # oracle: 3x3 strictly-upper matrix exponentials give (1, 1, 1/2)
    h1 = heisenberg()
    assert np.allclose(h1.bch([1, 0, 0], [0, 1, 0]), [1.0, 1.0, 0.5], atol=1e-14)


def test_bch_units_and_inverse():
    h1 = heisenberg()
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, 3)
    assert np.allclose(h1.bch(X, np.zeros(3)), X)
    assert np.allclose(h1.bch(np.zeros(3), X), X)
    assert np.allclose(h1.bch(X, -X), 0.0, atol=1e-15)
    assert np.allclose(h1.inv(X), -X)


def test_bch_matrix_oracles_h1_engel():
    rng = np.random.default_rng(4)
    h1, en = heisenberg(), engel()
    for _ in range(100):
        x, y = rng.uniform(-1, 1, (2, 3))
        ref = bch_matrix_oracle(h1_matrix, h1_coords, x, y)
        assert np.max(np.abs(h1.bch(x, y) - ref)) < 1e-12
    for _ in range(100):
        x, y = rng.uniform(-1, 1, (2, 4))
        ref = bch_matrix_oracle(engel_matrix, engel_coords, x, y)
        assert np.max(np.abs(en.bch(x, y) - ref)) < 1e-12


def test_bch_step6_strictly_upper_7x7():
    # the full strictly-upper 7x7 algebra has step 6 and exercises every
    # coefficient of the shipped series
    idx = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    pos = {p: k for k, p in enumerate(idx)}
    dim = len(idx)
    c = np.zeros((dim, dim, dim))
    for a, (i, j) in enumerate(idx):
        for b, (k, l) in enumerate(idx):
            if j == k:
                c[a, b, pos[(i, l)]] += 1.0
            if l == i:
                c[a, b, pos[(k, j)]] -= 1.0
    alg = LieAlgebra(dim, c, 6, name="ut7")
    assert validate_algebra(alg).passed

    def tomat(v):
        M = np.zeros((7, 7))
        for a, (i, j) in enumerate(idx):
            M[i, j] = v[a]
        return M

    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(-0.6, 0.6, (2, dim))
        G = _nilpotent_expm(tomat(x)) @ _nilpotent_expm(tomat(y))
        ref = np.array([_nilpotent_logm(G)[i, j] for (i, j) in idx])
        assert np.max(np.abs(alg.bch(x, y) - ref)) < 1e-12


def test_bch_associativity():
    rng = np.random.default_rng(6)
    for alg in (heisenberg(), engel()):
        for _ in range(100):
            x, y, z = rng.uniform(-1, 1, (3, alg.dim))
            lhs = alg.bch(alg.bch(x, y), z)
            rhs = alg.bch(x, alg.bch(y, z))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_bch_step_guard():
    alg = LieAlgebra(2, np.zeros((2, 2, 2)), step=7, name="fake")
    with pytest.raises(AlgebraError, match="depth"):
        alg.bch(np.zeros(2), np.zeros(2))
    with pytest.raises(AlgebraError):
        bch_terms(7)


def test_group_ops_abelian():
    a = abelian(3)
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1, 1, (2, 3))
    assert np.allclose(a.mul(x, y), x + y)
    assert np.allclose(a.mul(x, a.inv(x)), 0.0)


def test_pairing():
    h1 = heisenberg()
    assert h1.pairing(E1, E1) == 1.0
    assert h1.pairing(E1, E2) == 0.0
    assert h1.pairing(np.zeros(3), np.array([1.0, 2, 3])) == 0.0
    assert h1.pairing(np.array([1.0, 2, 3]), np.array([4.0, 5, 6])) == 32.0


def test_coadjoint_heisenberg_closed_form():
    # gamma_x(zeta) = zeta o ad_{-log x}: components (b z3, -a z3, 0)
    h1 = heisenberg()
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b, c = rng.uniform(-2, 2, 3)
        zeta = rng.uniform(-2, 2, 3)
        got = h1.coadjoint(np.array([a, b, c]), zeta)
        assert np.allclose(got, [b * zeta[2], -a * zeta[2], 0.0], atol=1e-13)


def test_coadjoint_linearity_and_degenerate():
    h1 = heisenberg()
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 3)
    z1, z2 = rng.uniform(-1, 1, (2, 3))
    assert np.allclose(h1.coadjoint(x, 2.0 * z1 + z2),
                       2.0 * h1.coadjoint(x, z1) + h1.coadjoint(x, z2), atol=1e-13)
    assert np.allclose(h1.coadjoint(np.zeros(3), z1), 0.0)
    assert np.allclose(abelian(3).coadjoint(x, z1), 0.0)


def test_dlambda_left_examples():
    h1 = heisenberg()
    # Z = e1, zeta = e3#, log x = (0,1,0): value 1/2
    assert h1.dlambda_left(E1, E3, np.array([0.0, 1.0, 0.0])) == pytest.approx(0.5)
    # at the unit the derivative is <Z | zeta>
    rng = np.random.default_rng(10)
    Z, zeta = rng.uniform(-1, 1, (2, 3))
    assert h1.dlambda_left(Z, zeta, np.zeros(3)) == pytest.approx(float(Z @ zeta))
    # abelian: constant <Z | zeta> at every base point
    a1 = abelian(2)
    Za, za, xa = rng.uniform(-1, 1, (3, 2))
    assert a1.dlambda_left(Za, za, xa) == pytest.approx(float(Za @ za))


def test_dlambda_left_closed_vs_finite_difference():
    h1 = heisenberg()
    rng = np.random.default_rng(11)
    for _ in range(25):
        Z, zeta, x = rng.uniform(-1, 1, (3, 3))
        closed = h1.dlambda_left(Z, zeta, x)
        fd = h1.dlambda_left(Z, zeta, x, h=1e-4)
        assert abs(closed - fd) < 1e-6


def test_dlambda_left_step_guard():
    en = engel()
    with pytest.raises(AlgebraError, match="step"):
        en.dlambda_left(np.ones(4), np.ones(4), np.ones(4))
    # finite-difference fallback works at any step
    val = en.dlambda_left(np.ones(4), np.ones(4), np.ones(4), h=1e-4)
    assert np.isfinite(val)
    with pytest.raises(AlgebraError):
        en.dlambda_left(np.ones(4), np.ones(4), np.ones(4), h=-1.0)


def test_validate_algebra_presets():
    rep = validate_algebra(heisenberg())
    assert rep.passed and rep.certified_step == 2
    rep = validate_algebra(engel())
    assert rep.passed and rep.certified_step == 3
    rep = validate_algebra(abelian(2))
    assert rep.passed and rep.certified_step == 1


def test_validate_algebra_flags_antisymmetry():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = 1.0  # wrong sign
    rep = validate_algebra(LieAlgebra(3, c, 2, name="bad"))
    assert rep.antisymmetry_residual > 1.0 and not rep.passed


def test_validate_algebra_flags_jacobi():
    # [e1,e2] = e3 and [e2,e3] = e2 is antisymmetric but breaks Jacobi
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    rep = validate_algebra(LieAlgebra(3, c, 2, name="bad"))
    assert rep.jacobi_residual > 0.5 and not rep.passed


def test_validate_algebra_flags_wrong_step():
    h1 = heisenberg()
    rep = validate_algebra(LieAlgebra(3, h1.c, 1, name="mislabeled"))
    assert rep.certified_step == 2 and not rep.passed


def test_presets():
    assert preset("heisenberg:1").dim == 3
    assert preset("abelian:5").dim == 5
    assert preset("engel").step == 3
    with pytest.raises(AlgebraError):
        preset("so3")
