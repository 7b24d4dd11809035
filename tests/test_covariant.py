"""Covariant symbols, box composition, the Berezin transform and kernel
reconstruction."""

import math

import numpy as np
import pytest

from nilquant.algebra import abelian
from nilquant.berezin import BerezinConfig, berezin_matrix, symbol_integral
from nilquant.coherent import PhasePoint, coherent_state, make_window, \
    reproducing_kernel
from nilquant.covariant import (CovariantError, berezin_transform,
                                berezin_transform_nodes, c0_decay_check, cov_at,
                                cov_diagonal, cov_full, kernel_from_cov,
                                norm_bound_check, norm_bound_checks, square_adjoint,
                                square_compose)
from nilquant.fields import Field
from nilquant.grids import Grid, XiGrid
from nilquant.operators import OperatorMatrix
from nilquant.symbols import GaussianSymbol, XOnlySymbol
from nilquant.transforms import inner


def setup(N=128, xiN=24):
    alg = abelian(1)
    grid = Grid.box(1, 10.0, N)
    xi = XiGrid.box(1, 10.0, N)
    coarse = XiGrid.box(1, 10.0, xiN)
    return alg, grid, xi, coarse, make_window(alg, grid)


def berezin_op(alg, w, grid, xi, seed=0, amp=1.0):
    rng = np.random.default_rng(seed)
    sym = GaussianSymbol.make(1, amplitude=amp,
                              x_center=rng.uniform(-0.3, 0.3, 1),
                              xi_center=rng.uniform(-0.3, 0.3, 1))
    return berezin_matrix(BerezinConfig(alg, w, grid, xi, sym)), sym


def test_cov_of_identity_is_reproducing_kernel():
    alg, grid, xi, coarse, w = setup()
    ident = OperatorMatrix.identity(grid)
    p = PhasePoint([0.4], [0.3])
    q = PhasePoint([-0.2], [0.6])
    assert abs(cov_at(ident, alg, w, p, q) - reproducing_kernel(alg, w, p, q)) < 1e-10


def test_cov_of_rank_one():
    alg, grid, xi, coarse, w = setup()
    z = PhasePoint([0.1], [-0.4])
    from nilquant.coherent import projector
    P = projector(alg, w, z)
    p = PhasePoint([0.5], [0.2])
    q = PhasePoint([-0.3], [0.1])
    got = cov_at(P, alg, w, p, q)
    ref = (inner(coherent_state(alg, w, p), coherent_state(alg, w, z), grid)
           * inner(coherent_state(alg, w, z), coherent_state(alg, w, q), grid))
    assert abs(got - ref) < 5e-2 * max(abs(ref), 1e-3)


def test_cov_contraction_bound():
    alg, grid, xi, coarse, w = setup()
    T, _ = berezin_op(alg, w, grid, xi, seed=1)
    norm = T.schatten(math.inf)
    diag = cov_diagonal(T, alg, w, coarse)
    assert np.max(np.abs(diag)) <= norm * (1 + 1e-8)


def test_cov_hermitian_symmetry_exact():
    alg, grid, xi, coarse, w = setup(N=64, xiN=12)
    rng = np.random.default_rng(2)
    M = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    T = OperatorMatrix(grid, M)
    C = cov_full(T, alg, w, coarse)
    Cadj = cov_full(T.adjoint(), alg, w, coarse)
    assert np.max(np.abs(Cadj.values - C.values.conj().T)) < 1e-10


def test_square_adjoint_involution():
    alg, grid, xi, coarse, w = setup(N=64, xiN=10)
    T, _ = berezin_op(alg, w, grid, xi, seed=3)
    C = cov_full(T, alg, w, coarse)
    assert np.array_equal(square_adjoint(square_adjoint(C)).values, C.values)


def test_box_unit_on_range():
    # cov(Id) is a box-unit on covariant symbols of operators in the range
    alg, grid, xi, coarse, w = setup()
    T, _ = berezin_op(alg, w, grid, xi, seed=4)
    C = cov_full(T, alg, w, coarse)
    ident = cov_full(OperatorMatrix.identity(grid), alg, w, coarse)
    prod = square_compose(C, ident)
    scale = np.max(np.abs(C.values))
    assert np.max(np.abs(prod.values - C.values)) / scale < 5e-2


def test_box_composition_matches_operator_product():
    alg, grid, xi, coarse, w = setup()
    S, _ = berezin_op(alg, w, grid, xi, seed=5)
    T, _ = berezin_op(alg, w, grid, xi, seed=6)
    covS = cov_full(S, alg, w, coarse)
    covT = cov_full(T, alg, w, coarse)
    covST = cov_full(S.compose(T), alg, w, coarse)
    box = square_compose(covT, covS)
    scale = np.max(np.abs(covST.values))
    assert np.max(np.abs(box.values - covST.values)) / scale < 5e-2


def test_box_associative():
    alg, grid, xi, coarse, w = setup(N=64, xiN=10)
    ops = [berezin_op(alg, w, grid, xi, seed=s)[0] for s in (7, 8, 9)]
    A, B, C = (cov_full(T, alg, w, coarse) for T in ops)
    lhs = square_compose(square_compose(A, B), C)
    rhs = square_compose(A, square_compose(B, C))
    scale = np.max(np.abs(lhs.values))
    assert np.max(np.abs(lhs.values - rhs.values)) / scale < 1e-10


def test_berezin_transform_unit_and_positivity():
    alg, grid, xi, coarse, w = setup()
    one = XOnlySymbol(Field(lambda p: np.ones(p.shape[:-1]), 1), 1)
    cfg1 = BerezinConfig(alg, w, grid, xi, one)
    assert abs(berezin_transform(cfg1, PhasePoint([0.2], [0.4])) - 1.0) < 5e-2
    sym = GaussianSymbol.make(1, amplitude=2.0)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    for p in (PhasePoint([0.0], [0.0]), PhasePoint([1.0], [-0.5])):
        assert berezin_transform(cfg, p).real > 0


def test_berezin_transform_mass_conservation():
    alg, grid, xi, coarse, w = setup()
    sym = GaussianSymbol.make(1, amplitude=1.3, x_center=[0.2])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    small = XiGrid.box(1, 10.0, 16)
    vals = berezin_transform_nodes(cfg, small)
    mass = small.weight * float(np.sum(vals.real))
    ref = symbol_integral(cfg).real
    assert abs(mass - ref) / abs(ref) < 2e-2


def test_berezin_transform_linfty_contraction():
    alg, grid, xi, coarse, w = setup()
    sym = GaussianSymbol.make(1, amplitude=1.0)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    vals = [berezin_transform(cfg, PhasePoint([z], [t])).real
            for z in (-1.0, 0.0, 1.0) for t in (-1.0, 0.0, 1.0)]
    assert max(vals) <= 1.0 * (1 + 5e-2)


def test_norm_bounds():
    alg, grid, xi, coarse, w = setup()
    T, _ = berezin_op(alg, w, grid, xi, seed=10)
    for p in (1.0, 2.0, math.inf):
        rep = norm_bound_check(T, alg, w, xi, p)
        assert rep["ratio"] <= 1.0 + 5e-2
    with pytest.raises(CovariantError):
        norm_bound_check(T, alg, w, xi, 0.3)


def test_norm_bound_checks_equal_the_per_exponent_calls():
    alg, grid, xi, coarse, w = setup()
    T, _ = berezin_op(alg, w, grid, xi, seed=10)
    ps = (1.0, 2.0, 3.5, math.inf)
    assert norm_bound_checks(T, alg, w, xi, ps) == [norm_bound_check(T, alg, w, xi, p)
                                                    for p in ps]
    with pytest.raises(CovariantError):
        norm_bound_checks(T, alg, w, xi, (2.0, 0.3))


def test_norm_bound_rank_one_equality():
    alg, grid, xi, coarse, w = setup()
    from nilquant.coherent import projector
    P = projector(alg, w, PhasePoint([0.2], [0.3]))
    rep = norm_bound_check(P, alg, w, xi, 1.0)
    assert abs(rep["ratio"] - 1.0) < 5e-2


def test_c0_decay_and_negative_control():
    alg, grid, xi, coarse, w = setup()
    T, _ = berezin_op(alg, w, grid, xi, seed=11)
    rep = c0_decay_check(T, alg, w, coarse)
    assert rep["decays"]
    ident = OperatorMatrix.identity(grid)
    rep_id = c0_decay_check(ident, alg, w, coarse)
    assert not rep_id["decays"]  # Cov(Id) = 1 everywhere


def test_c0_decay_rank_one():
    alg, grid, xi, coarse, w = setup()
    from nilquant.coherent import projector
    P = projector(alg, w, PhasePoint.origin(1))
    rep = c0_decay_check(P, alg, w, coarse)
    assert rep["decays"]
    # explicit radius sequence works too
    rep2 = c0_decay_check(P, alg, w, coarse, shells=[0.25, 0.5, 0.75, 1.0])
    assert rep2["decays"] and len(rep2["shell_maxima"]) == 4


def test_kernel_from_cov_zero_and_guard():
    alg, grid, xi, coarse, w = setup(N=32, xiN=12)
    small = Grid.box(1, 10.0, 32)
    C = cov_full(OperatorMatrix(small, np.zeros((32, 32))), alg, w, coarse)
    rec = kernel_from_cov(C, alg, small)
    assert np.max(np.abs(rec.kernel)) < 1e-12
    big = XiGrid.box(1, 10.0, 64)
    with pytest.raises(CovariantError):
        cov_full(OperatorMatrix(small, np.zeros((32, 32))), alg, w, big)


def test_kernel_from_cov_rank_one():
    # the coarse dual box must sit inside the operator grid's Nyquist band
    # (pi / h ~ 5 here), or the high-modulation states alias on the grid
    alg = abelian(1)
    small = Grid.box(1, 10.0, 32)
    coarse = XiGrid.box(1, 10.0, 16, dual_half_width=5.0)
    w = make_window(alg, small)
    from nilquant.coherent import projector
    P = projector(alg, w, PhasePoint.origin(1))
    C = cov_full(P, alg, w, coarse)
    rec = kernel_from_cov(C, alg, small)
    assert rec.frobenius_distance(P) < 1e-1


def test_kernel_from_cov_berezin_operator():
    alg = abelian(1)
    small = Grid.box(1, 10.0, 32)
    coarse = XiGrid.box(1, 10.0, 16, dual_half_width=5.0)
    xi = XiGrid.box(1, 10.0, 32, dual_half_width=5.0)
    w = make_window(alg, small)
    sym = GaussianSymbol.make(1)
    T = berezin_matrix(BerezinConfig(alg, w, small, xi, sym))
    C = cov_full(T, alg, w, coarse)
    rec = kernel_from_cov(C, alg, small)
    assert rec.frobenius_distance(T) < 1e-1
