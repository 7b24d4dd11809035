"""Pseudo-differential quantization and the Berezin bridge."""

import numpy as np
import pytest

from nilquant.algebra import LieAlgebra, abelian, heisenberg
from nilquant.berezin import BerezinConfig, berezin_matrix
from nilquant.coherent import PhasePoint, make_window, projector, weyl
from nilquant.covariant import cov_full
from nilquant.fields import Field, gaussian, random_gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.pseudodiff import (WeylOperator, berezin_symbol, hs_unitarity_ratio,
                                 op_quantize, op_quantize_samples, symbol_from_kernel,
                                 symbol_of_regularizing)
from nilquant.symbols import (GaussianSymbol, PhaseSymbol, SymbolError, XOnlySymbol,
                              XiOnlySymbol)
from nilquant.verify import line_setup as line

from oracles import bits, op_kernel_rows


def test_x_only_symbol_gives_multiplication():
    alg, grid, xi, w = line(N=64)
    phi = gaussian(1, amplitude=1.7, center=[0.4])
    op = op_quantize(alg, XOnlySymbol(phi, 1), grid)
    assert op.meta.get("multiplication")
    rng = np.random.default_rng(0)
    u = random_gaussian(rng, 1)
    got = op.apply_samples(u(grid.nodes()))
    ref = phi(grid.nodes()) * u(grid.nodes())
    assert np.max(np.abs(got - ref)) < 1e-12


def test_phase_symbol_gives_weyl_operator():
    alg, grid, xi, w = line(N=64)
    p = PhasePoint([0.7], [-1.2])
    op = op_quantize(alg, PhaseSymbol.at(p.zv, p.zetav), grid)
    assert isinstance(op, WeylOperator) and op.unitary
    rng = np.random.default_rng(1)
    u = random_gaussian(rng, 1)
    pts = rng.uniform(-2, 2, (30, 1))
    assert np.max(np.abs(op.apply(u)(pts) - weyl(alg, p, u)(pts))) < 1e-12


def test_xi_only_symbol_gives_convolution():
    alg, grid, xi, w = line(N=64)
    sym = XiOnlySymbol.gaussian(1, sigma=1.2)
    op = op_quantize(alg, sym, grid)
    K = op.kernel
    diag = np.diagonal(K, offset=5)
    assert np.max(np.abs(diag - diag[0])) < 1e-8 * np.max(np.abs(K))


def profile_kernel(alg, symbol, grid, dual_grid):
    """The Op kernel of a symbol sampled on the dual grid at every x node,
    one row at a time."""
    x, zeta = grid.nodes(), dual_grid.nodes()
    samples = np.stack([symbol(np.broadcast_to(xi, zeta.shape), zeta) for xi in x])
    return op_kernel_rows(alg, samples, grid, dual_grid)


@pytest.mark.parametrize("alg", [abelian(1), heisenberg()], ids=lambda a: a.name)
def test_sampled_profile_takes_op_quantize_samples(alg):
    """A dual profile given only as a field is sampled once and quantized by
    `op_quantize_samples`; the kernel is bitwise the per-row loop's."""
    n = alg.dim
    grid = Grid.box(n, 3.0, 24 if n == 1 else 5)
    dual = Grid.box(n, 2.5, 20 if n == 1 else 4, dual=True)
    profile = Field(lambda z: np.exp(-np.sum(z ** 4, axis=-1)) * (1.0 + 0.3j * z[..., 0]),
                    n, "dual")
    sym = XiOnlySymbol(None, n, psi_field=profile)
    op = op_quantize(alg, sym, grid, dual)
    assert bits(op.kernel) == bits(profile_kernel(alg, sym, grid, dual))
    with pytest.raises(SymbolError):
        op_quantize(alg, sym, grid)


def test_dual_grid_fallback_builds_the_products_once(monkeypatch):
    """On H1 (m = 125) a profile given only as a field falls back to the
    dual grid after check2 fails; log(x y^{-1}) is built once for both."""
    alg = heisenberg()
    grid = Grid.box(3, 3.0, 5)
    dual = Grid.box(3, 2.5, 4, dual=True)
    sym = XiOnlySymbol(None, 3, psi_field=gaussian(3, 0.8, [0.2, -0.1, 0.3],
                                                   [0.5, 0.0, -0.4], domain="dual"))
    want = profile_kernel(alg, sym, grid, dual)
    shapes = []
    bch = LieAlgebra.bch

    def counting_bch(self, X, Y):
        out = bch(self, X, Y)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(LieAlgebra, "bch", counting_bch)
    op = op_quantize(alg, sym, grid, dual)
    assert shapes.count((125, 125, 3)) == 1
    assert bits(op.kernel) == bits(want)


def test_hs_unitarity():
    alg, grid, xi, w = line()
    sym = GaussianSymbol.make(1, x_center=[0.2], xi_center=[-0.1])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    assert abs(hs_unitarity_ratio(cfg) - 1.0) < 2e-2


def _analytic_kernel(alg, sym):
    # kernel evaluator with the (K, m) matrix contract, from the closed form
    def kernel(xp, args):
        V = alg.bch(xp[:, None, :], -args[None, :, :])
        return sym.check2(xp[:, None, :], V)
    return kernel


def test_symbol_from_own_kernel():
    alg, grid, xi, w = line(N=64)
    sym = GaussianSymbol.make(1, xi_sigma=3.0, x_sigma=3.0)
    rec = symbol_from_kernel(alg, _analytic_kernel(alg, sym), grid,
                             np.zeros((1, 1)), np.zeros((1, 1)))
    assert abs(rec.values[0, 0] - sym(np.zeros(1), np.zeros(1))) < 1e-6


def test_symbol_round_trip():
    alg, grid, xi, w = line()
    sym = GaussianSymbol.make(1, amplitude=1.1, x_center=[0.3], x_sigma=1.2,
                              xi_center=[-0.4], xi_sigma=0.9)
    xs = np.linspace(-1.5, 1.5, 7)[:, None]
    xis = np.linspace(-1.5, 1.5, 7)[:, None]
    rec = symbol_from_kernel(alg, _analytic_kernel(alg, sym), grid, xs, xis)
    ref = sym(xs[:, None, :], xis[None, :, :])
    assert np.max(np.abs(rec.values - ref)) < 5e-2 * np.max(np.abs(ref))
    assert not rec.approximate


def test_symbol_from_sampled_kernel_is_flagged():
    alg, grid, xi, w = line(N=64)
    sym = GaussianSymbol.make(1, xi_sigma=1.0)
    op = op_quantize(alg, sym, grid)
    x0 = grid.nodes()[32:33]
    rec = symbol_from_kernel(alg, op, grid, x0, np.zeros((1, 1)))
    assert rec.approximate
    ref = sym(x0[0], np.zeros(1))
    assert abs(rec.values[0, 0] - ref) < 5e-2 * abs(ref)


def test_symbol_of_multiplication_operator():
    # a near-delta multiplication kernel K(x, y) = phi(x) d_h(x - y) recovers
    # a symbol ~ phi(x), flat in xi across a band well below the 1/h scale
    alg, grid, xi, w = line()
    phi = gaussian(1, amplitude=1.3, center=[0.2])
    h = 0.08

    def kernel(xp, args):
        diff = xp[:, None, :] - args[None, :, :]
        delta_h = np.exp(-0.5 * (diff[..., 0] / h) ** 2) / (h * np.sqrt(2 * np.pi))
        return phi(xp)[:, None] * delta_h

    xs = np.linspace(-1.0, 1.0, 5)[:, None]
    xis = np.linspace(-1.0, 1.0, 5)[:, None]
    rec = symbol_from_kernel(alg, kernel, grid, xs, xis)
    spread = np.max(np.abs(rec.values - rec.values[:, :1]))
    assert spread < 2e-2 * np.max(np.abs(rec.values))
    assert np.max(np.abs(rec.values[:, 2] - phi(xs))) < 2e-2 * np.max(np.abs(phi(xs)))


def test_op_of_berezin_symbol_reproduces_operator():
    alg, grid, xi, w = line()
    sym = GaussianSymbol.make(1, x_center=[0.1], xi_center=[0.2])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    ber = berezin_matrix(cfg)
    rec = berezin_symbol(cfg, grid.nodes(), xi.dual_grid.nodes(), route="kernel")
    op = op_quantize_samples(alg, rec.values, grid, xi.dual_grid)
    assert op.frobenius_distance(ber) < 5e-2


def test_berezin_symbol_routes_agree():
    alg, grid, xi, w = line(N=64)
    sym = GaussianSymbol.make(1, xi_center=[0.3])
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    xs = np.linspace(-1, 1, 4)[:, None]
    xis = np.linspace(-1, 1, 4)[:, None]
    a = berezin_symbol(cfg, xs, xis, route="kernel")
    b = berezin_symbol(cfg, xs, xis, route="direct")
    assert np.max(np.abs(a.values - b.values)) < 1e-6 * np.max(np.abs(a.values))
    with pytest.raises(ValueError):
        berezin_symbol(cfg, xs, xis, route="sideways")


def test_unit_symbol_identity_chain():
    # f === 1: Ber(1) = Id = Op(1); both quantizers take the multiplication
    # special path and their multipliers agree to quadrature error
    alg, grid, xi, w = line()
    one = XOnlySymbol(Field(lambda p: np.ones(p.shape[:-1]), 1), 1)
    op_side = op_quantize(alg, one, grid)
    ber_side = berezin_matrix(BerezinConfig(alg, w, grid, xi, one))
    assert op_side.meta.get("multiplication") and ber_side.meta.get("multiplication")
    d_op = np.diagonal(op_side.kernel) * grid.weight
    d_ber = np.diagonal(ber_side.kernel) * grid.weight
    assert np.max(np.abs(d_op - 1.0)) < 1e-12
    # away from the box edge, where the window average is not truncated
    inner_band = np.abs(grid.nodes()[:, 0]) < 6.0
    assert np.max(np.abs(d_ber[inner_band] - 1.0)) < 2e-2


def test_symbol_of_regularizing_rank_one():
    alg = abelian(1)
    grid = Grid.box(1, 10.0, 48)
    coarse = XiGrid.box(1, 10.0, 16, dual_half_width=5.0)
    w = make_window(alg, grid)
    P = projector(alg, w, PhasePoint.origin(1))
    C = cov_full(P, alg, w, coarse)
    xs = np.linspace(-0.8, 0.8, 4)[:, None]
    xis = np.linspace(-0.8, 0.8, 4)[:, None]
    got = symbol_of_regularizing(C, alg, grid, xs, xis)
    # the projector at the origin has the rank-one kernel w(x) conj(w(y))
    ref = symbol_from_kernel(alg, lambda xp, args:
                             w.field(xp)[:, None] * np.conjugate(w.field(args))[None, :],
                             grid, xs, xis)
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(got.values - ref.values)) / scale < 1e-1


def test_symbol_of_regularizing_berezin():
    alg = abelian(1)
    grid = Grid.box(1, 10.0, 32)
    xi = XiGrid.box(1, 10.0, 32, dual_half_width=5.0)
    coarse = XiGrid.box(1, 10.0, 16, dual_half_width=5.0)
    w = make_window(alg, grid)
    sym = GaussianSymbol.make(1)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    T = berezin_matrix(cfg)
    C = cov_full(T, alg, w, coarse)
    xs = np.linspace(-0.8, 0.8, 4)[:, None]
    xis = np.linspace(-0.8, 0.8, 4)[:, None]
    got = symbol_of_regularizing(C, alg, grid, xs, xis)
    ref = berezin_symbol(cfg, xs, xis, route="kernel")
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(got.values - ref.values)) / scale < 1e-1

