"""Grids, quadrature, Fourier transforms and discretized operators."""

import math

import numpy as np
import pytest

from nilquant.fields import Field, gaussian, gridded_field
from nilquant.grids import Grid, GridError, XiGrid
from nilquant.operators import OperatorError, OperatorMatrix
from nilquant.transforms import (fourier, inner, integrate, inverse_fourier, l2_norm,
                                 script_fourier, script_fourier_inv)


def test_grid_geometry():
    g = Grid.box(1, 1.0, 10)
    assert g.spacing == (0.2,)
    assert g.cell_volume == pytest.approx(0.2)
    nodes = g.nodes()
    assert len(nodes) == 10
    assert np.all(np.abs(nodes) < 1.0)  # strictly inside the box
    assert nodes[0, 0] == pytest.approx(-0.9)


def test_dual_grid_weight():
    d = Grid.box(2, 3.0, 12, dual=True)
    assert d.weight == pytest.approx(d.cell_volume / (2 * math.pi) ** 2)
    xi = XiGrid.box(1, 10.0, 16)
    assert xi.weight == pytest.approx(xi.g_grid.cell_volume
                                      * xi.dual_grid.cell_volume / (2 * math.pi))


def test_grid_validation():
    with pytest.raises(GridError):
        Grid.box(1, -1.0, 10)
    with pytest.raises(GridError):
        XiGrid(Grid.box(1, 1.0, 4), Grid.box(1, 1.0, 4))  # dual flag missing
    for bad in (math.nan, math.inf):
        with pytest.raises(GridError):
            Grid.box(2, (1.0, bad), 4)
        with pytest.raises(GridError):
            Grid.box(1, 1.0, bad)
    with pytest.raises(GridError):
        Grid.box(1, 1.0, 32.7)  # a fractional count is not truncated
    for whole in (32, 32.0, np.int64(32)):
        assert Grid.box(1, 1.0, whole).counts == (32,)


def test_grid_axes_cached_read_only():
    g = Grid.box(2, (1.0, 2.0), (4, 3))
    first, again = g.axes(), g.axes()
    assert all(a is b for a, b in zip(first, again))
    assert [a.shape for a in first] == [(4,), (3,)]
    for a in first:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_integrate_constant_box():
    g = Grid.box(1, 1.0, 10)
    one = Field(lambda p: np.ones(p.shape[:-1]), 1)
    assert integrate(one, g) == pytest.approx(2.0)


def test_integrate_gaussian_density_vs_erf():
    # oracle: the standard normal mass on [-8, 8] via the error function
    g = Grid.box(1, 8.0, 128)
    density = Field(lambda p: np.exp(-0.5 * p[..., 0] ** 2) / math.sqrt(2 * math.pi), 1)
    ref = math.erf(8.0 / math.sqrt(2.0))
    assert abs(integrate(density, g).real - ref) < 1e-6


def test_integrate_odd_function():
    g = Grid.box(1, 5.0, 64)
    odd = Field(lambda p: p[..., 0] ** 3 * np.exp(-p[..., 0] ** 2), 1)
    assert abs(integrate(odd, g)) < 1e-14


def test_integrate_phase_space():
    from nilquant.symbols import GaussianSymbol
    xi = XiGrid.box(1, 10.0, 64)
    sym = GaussianSymbol.make(1, amplitude=1.5)
    assert abs(integrate(sym, xi) - sym.integral()) < 1e-8


def test_midpoint_halving_trend():
    # start coarse enough that the error is quadrature-limited
    density = Field(lambda p: np.exp(-0.5 * p[..., 0] ** 2) / math.sqrt(2 * math.pi), 1)
    ref = math.erf(8.0 / math.sqrt(2.0))
    errs = [abs(integrate(density, Grid.box(1, 8.0, N)).real - ref) for N in (8, 16)]
    assert errs[1] <= errs[0] / 4.0


def test_fourier_gaussian_closed_form():
    g = Grid.box(1, 10.0, 256)
    h = gaussian(1, amplitude=1.0)  # exp(-x^2/2)
    w = fourier(h, g)
    xi = np.linspace(-3, 3, 11)[:, None]
    ref = math.sqrt(2 * math.pi) * np.exp(-0.5 * xi[:, 0] ** 2)
    assert np.max(np.abs(w(xi) - ref)) < 1e-4


def test_fourier_even_real_is_real():
    g = Grid.box(1, 10.0, 128)
    h = gaussian(1, amplitude=1.0)
    vals = fourier(h, g)(np.linspace(-2, 2, 9)[:, None])
    assert np.max(np.abs(vals.imag)) < 1e-10


def test_fourier_shift_phase():
    g = Grid.box(1, 10.0, 256)
    x0 = 0.7
    h0 = gaussian(1, amplitude=1.0)
    h1 = gaussian(1, center=[x0], amplitude=1.0)
    xi = np.linspace(-2, 2, 7)[:, None]
    ref = np.exp(-1j * x0 * xi[:, 0]) * fourier(h0, g)(xi)
    assert np.max(np.abs(fourier(h1, g)(xi) - ref)) < 1e-8


def test_inverse_fourier_round_trip():
    g = Grid.box(1, 10.0, 256)
    d = g.as_dual()
    h = gaussian(1, center=[0.4], modulation=[0.8])
    w = fourier(h, g)
    back = inverse_fourier(w, d)
    nodes = g.nodes()
    err = np.linalg.norm(back(nodes) - h(nodes)) / np.linalg.norm(h(nodes))
    assert err < 1e-4


def test_inverse_fourier_narrow_to_constant():
    d = Grid.box(1, 10.0, 256, dual=True)
    narrow = gaussian(1, sigma=0.05, amplitude=1.0, domain="dual")
    back = inverse_fourier(narrow, d)
    pts = np.linspace(-1, 1, 9)[:, None]
    vals = back(pts)
    # spatial variation of the transform is O(sigma^2) over the window
    assert np.max(np.abs(vals - vals[0])) < 2e-3 * abs(vals[0])


def test_script_aliases_and_parseval():
    assert script_fourier is fourier and script_fourier_inv is inverse_fourier
    g = Grid.box(1, 10.0, 128)
    d = g.as_dual()
    h = gaussian(1, center=[0.3], modulation=[0.5])
    w = fourier(h, g)
    wf = Field(lambda p: w(p), 1, "dual")
    ratio = l2_norm(wf, d) / l2_norm(h, g)
    assert abs(ratio - 1.0) < 1e-4


def test_fourier_modulation_becomes_translation():
    g = Grid.box(1, 10.0, 256)
    zeta0 = 0.9
    h0 = gaussian(1, amplitude=1.0)
    h1 = gaussian(1, modulation=[zeta0], amplitude=1.0)
    xi = np.linspace(-2, 2, 7)[:, None]
    assert np.max(np.abs(fourier(h1, g)(xi) - fourier(h0, g)(xi - zeta0))) < 1e-8


def test_gridded_field_interpolation():
    g = Grid.box(1, 5.0, 64)
    h = gaussian(1)
    gf = gridded_field(g, h(g.nodes()))
    assert gf.interpolated
    pts = np.array([[0.1], [1.3]])
    assert np.max(np.abs(gf(pts) - h(pts))) < 1e-2
    assert gf(np.array([[7.0]])) == 0.0  # outside the box


# -- operators ---------------------------------------------------------------

def _rank_one(grid):
    w = gaussian(grid.n)
    return OperatorMatrix.rank_one(grid, w), w


def test_compose_with_identity():
    g = Grid.box(1, 6.0, 32)
    K, _ = _rank_one(g)
    ident = OperatorMatrix.identity(g)
    assert np.allclose(K.compose(ident).kernel, K.kernel, atol=1e-12)
    assert np.allclose(ident.compose(K).kernel, K.kernel, atol=1e-12)


def test_rank_one_trace():
    g = Grid.box(1, 10.0, 128)
    K, w = _rank_one(g)
    assert abs(K.trace() - 1.0) < 2e-2


def test_adjoint_involution():
    g = Grid.box(1, 6.0, 24)
    rng = np.random.default_rng(0)
    K = OperatorMatrix(g, rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24)))
    assert np.array_equal(K.adjoint().adjoint().kernel, K.kernel)


def test_trace_cyclicity():
    g = Grid.box(1, 6.0, 24)
    rng = np.random.default_rng(1)
    A = OperatorMatrix(g, rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24)))
    B = OperatorMatrix(g, rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24)))
    t1 = A.compose(B).trace()
    t2 = B.compose(A).trace()
    assert abs(t1 - t2) / abs(t1) < 1e-10


def test_schatten_rank_one_all_p():
    g = Grid.box(1, 10.0, 128)
    K, _ = _rank_one(g)
    for p in (1.0, 1.7, 2.0, 5.0, math.inf):
        assert abs(K.schatten(p) - 1.0) < 2e-2


def test_schatten_zero_and_frobenius():
    g = Grid.box(1, 6.0, 16)
    Z = OperatorMatrix(g, np.zeros((16, 16)))
    assert Z.schatten(2.0) == 0.0
    rng = np.random.default_rng(2)
    K = OperatorMatrix(g, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    assert abs(K.schatten(2.0) - K.hs_norm()) < 1e-12 * K.hs_norm()


def test_schatten_monotone_in_p():
    g = Grid.box(1, 6.0, 16)
    rng = np.random.default_rng(3)
    K = OperatorMatrix(g, rng.normal(size=(16, 16)))
    values = [K.schatten(p) for p in (1.0, 1.5, 2.0, 4.0, math.inf)]
    assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))


def test_schatten_rejects_small_p():
    g = Grid.box(1, 6.0, 8)
    K = OperatorMatrix(g, np.zeros((8, 8)))
    with pytest.raises(OperatorError):
        K.schatten(0.5)


def test_grid_mismatch_rejected():
    a = OperatorMatrix(Grid.box(1, 6.0, 8), np.zeros((8, 8)))
    b = OperatorMatrix(Grid.box(1, 5.0, 8), np.zeros((8, 8)))
    with pytest.raises(OperatorError):
        a.compose(b)


def test_apply_matches_quadrature():
    g = Grid.box(1, 8.0, 64)
    K, w = _rank_one(g)
    u = gaussian(1, center=[0.5])
    out = K.apply_samples(u(g.nodes()))
    ref = inner(u, w, g) * w(g.nodes())
    assert np.max(np.abs(out - ref)) < 1e-12
