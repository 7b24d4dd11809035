"""Kernel assembly: the real-exponential split against the fused complex-exp
loop it replaced, on H1 and the line, for the plain, tau-ordered and magnetic
quantizers, including off-centre, underflowing and vanishing windows."""

import numpy as np
import pytest

from nilquant import berezin, magnetic, tau
from nilquant.algebra import abelian, heisenberg
from nilquant.berezin import BerezinConfig, berezin_kernel_points, berezin_matrix
from nilquant.coherent import Window, make_window
from nilquant.fields import Field, gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import VectorPotential, linear3_potential, mag_berezin, zero_potential
from nilquant.symbols import (DeltaSymbol, GaussianSymbol, PhaseSymbol, SymbolError,
                              XOnlySymbol, XiOnlySymbol)
from nilquant.tau import berezin_tau, symmetric_tau, tau_e

TOL = 1e-12


def fused_complex_exp(symbol, z_nodes, z_weight, row_data, col_data=None):
    """The per-node loop assemble_kernel ran before the real-exponential
    split: exp(row_i + col_j - cross_ij) over one complex m x m buffer."""
    K = buf = None
    for z in z_nodes:
        P, G = row_data(z)
        Q, H = (P, G) if col_data is None else col_data(z)
        pref, row, col, cross = symbol.hat2_pair_exponent(z, P, Q)
        with np.errstate(divide="ignore"):
            row = row + np.log(np.asarray(G, dtype=complex))
            col = col + np.conjugate(np.log(np.asarray(H, dtype=complex)))
        if buf is None:
            buf = np.empty(cross.shape, dtype=complex)
            K = np.zeros(cross.shape, dtype=complex)
        np.multiply(cross, -1.0, out=buf)
        buf += row[:, None]
        buf += col[None, :]
        np.exp(buf, out=buf)
        buf *= pref
        K += buf
    K *= z_weight
    return K


# -- set-ups ----------------------------------------------------------------

def h1_grids():
    return heisenberg(), Grid.box(3, 3.0, 5), XiGrid.box(3, 3.0, 4)


def line_grids():
    return abelian(1), Grid.box(1, 8.0, 48), XiGrid.box(1, 8.0, 32)


GROUPS = {"heisenberg:1": h1_grids, "abelian:1": line_grids}

# the linear3 field on H1; on the line every potential is a gradient, but its
# circulation phases still dress the windows
POTENTIALS = {3: linear3_potential(0.6),
              1: VectorPotential(lambda p: 0.5 * p + 0.2 * p ** 2, name="quadratic")}


def off_centre_symbol(n):
    return GaussianSymbol.make(n, amplitude=0.8 - 0.3j, x_center=np.full(n, 1.1),
                               x_sigma=0.9, x_phase=np.full(n, 0.3),
                               xi_center=np.linspace(0.7, -0.4, n), xi_sigma=1.1,
                               xi_phase=np.linspace(-0.4, 0.5, n))


def off_centre(alg, grid):
    return make_window(alg, grid, sigma=0.8, center=np.linspace(0.9, -0.6, alg.dim))


# per dimension: nonzero at every grid node, but products of far-apart values
# underflow
NARROW_SIGMA = {3: 0.13, 1: 0.22}


def narrow(alg, grid):
    return make_window(alg, grid, sigma=NARROW_SIGMA[alg.dim])


def cut_off(alg, grid):
    """A Gaussian cut to zero for first coordinate above 0.8."""
    g = gaussian(alg.dim, 1.0)
    return Window.normalized(Field(lambda p: np.where(p[..., 0] > 0.8, 0.0, g(p)),
                                   alg.dim), grid)


WINDOWS = {"off_centre": off_centre, "narrow": narrow, "cut_off": cut_off}


def config(group, window):
    alg, grid, xi = GROUPS[group]()
    return BerezinConfig(alg, WINDOWS[window](alg, grid), grid, xi,
                         off_centre_symbol(alg.dim))


def quantize(cfg, scheme):
    if scheme == "plain":
        return berezin_matrix(cfg).kernel
    if scheme == "points":
        # distinct row and column points exercise the separate column data
        x = cfg.g_grid.nodes()
        return berezin_kernel_points(cfg, x, x[::-1] + 0.3)
    if scheme == "tau":
        return berezin_tau(cfg, symmetric_tau(cfg.algebra)).kernel
    return mag_berezin(cfg, POTENTIALS[cfg.algebra.dim]).kernel


def reference(cfg, scheme, monkeypatch):
    with monkeypatch.context() as m:
        for module in (berezin, tau, magnetic):
            m.setattr(module, "assemble_kernel", fused_complex_exp)
        return quantize(cfg, scheme)


def relative_gap(K, ref):
    return float(np.max(np.abs(K - ref))) / float(np.max(np.abs(ref)))


# -- the split against the fused route ----------------------------------------

@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("scheme", ["plain", "points", "tau", "magnetic"])
def test_split_matches_fused_complex_exp(group, window, scheme, monkeypatch):
    cfg = config(group, window)
    K = quantize(cfg, scheme)
    ref = reference(cfg, scheme, monkeypatch)
    assert np.all(np.isfinite(K))
    assert np.max(np.abs(ref)) > 0
    assert relative_gap(K, ref) <= TOL


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_narrow_window_underflows_to_zero(group, monkeypatch):
    cfg = config(group, "narrow")
    assert np.all(cfg.window(cfg.g_grid.nodes()) != 0)
    K = berezin_matrix(cfg).kernel
    ref = reference(cfg, "plain", monkeypatch)
    # the outer entries underflow on both routes, the rest agree
    assert np.any(K == 0) and np.any(ref == 0)
    assert np.all(np.isfinite(K))
    assert relative_gap(K, ref) <= TOL


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_vanishing_window_takes_log_zero_path(group, monkeypatch):
    cfg = config(group, "cut_off")
    x = cfg.g_grid.nodes()
    values = [cfg.window(cfg.algebra.bch(z, x)) for z in cfg.z_quadrature()[0]]
    assert any(np.any(v == 0) for v in values)
    K = berezin_matrix(cfg).kernel
    assert np.all(np.isfinite(K))
    assert relative_gap(K, reference(cfg, "plain", monkeypatch)) <= TOL


# -- reductions and rejected symbols -------------------------------------------

@pytest.mark.parametrize("group", sorted(GROUPS))
def test_trivial_tau_and_zero_field_stay_bitwise(group):
    cfg = config(group, "off_centre")
    plain = berezin_matrix(cfg).kernel
    n = cfg.algebra.dim
    assert np.array_equal(berezin_tau(cfg, tau_e(n)).kernel, plain)
    assert np.array_equal(mag_berezin(cfg, zero_potential(n)).kernel, plain)


@pytest.mark.parametrize("symbol", [
    DeltaSymbol.at([0.2], [0.1]),
    PhaseSymbol.at([0.2], [0.1]),
    XOnlySymbol(Field(lambda p: np.ones(p.shape[:-1]), 1), 1),
    XiOnlySymbol(None, 1, psi_field=Field(lambda p: np.ones(p.shape[:-1]), 1)),
], ids=lambda s: type(s).__name__)
def test_symbols_without_pair_exponent_raise_symbol_error(symbol):
    alg, grid, xi = line_grids()
    cfg = BerezinConfig(alg, make_window(alg, grid), grid, xi, symbol)
    with pytest.raises(SymbolError):
        berezin_kernel_points(cfg, grid.nodes())
