"""One Weyl system behind the plain, tau-ordered and magnetic quantizers.

The reference functions below are the per-variant bodies the shared routes
replaced (shift, coherent state, Fourier-Wigner transform and Berezin kernel
row).  The shared routes must match them at 1e-12 relative max-abs, be
bitwise equal to the plain bodies, and reduce bitwise for tau = e and A = 0.
"""

import importlib
import inspect
import re
import warnings

import numpy as np
import pytest

from nilquant.algebra import abelian, heisenberg
from nilquant.berezin import BerezinConfig, assemble_kernel, berezin_matrix, berezin_quantize
from nilquant.coherent import (NyquistWarning, PhasePoint, WeylSystem, coherent_state,
                               fourier_wigner, make_window, weyl, weyl_adjoint)
from nilquant.fields import gaussian, random_gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import (circulation, landau_potential, linear3_potential, mag_berezin,
                               mag_coherent, mag_translation, mag_weyl, mag_wigner,
                               magnetic_system, zero_potential)
from nilquant.operators import OperatorMatrix
from nilquant.symbols import (DeltaSymbol, GaussianSymbol, PhaseSymbol, SymbolError,
                              XOnlySymbol)
from nilquant.tau import (berezin_tau, coherent_tau, scaled_tau, symmetric_tau, tau_e,
                          tau_system, weyl_tau, wigner_tau)
from nilquant.transforms import dual_phase_grid

TOL = 1e-12


# -- the pre-change bodies ------------------------------------------------------

def einsum_phase(points, zeta):
    return np.einsum("...i,i->...", points, zeta)


def ref_weyl(alg, p, u):
    zinv, zeta = alg.inv(p.zv), p.zetav
    return lambda x: np.exp(1j * einsum_phase(x, zeta)) * u(alg.bch(zinv, x))


def ref_weyl_adjoint(alg, p, u):
    z, zeta = p.zv, p.zetav

    def fn(y):
        zy = alg.bch(z, y)
        return np.exp(-1j * einsum_phase(zy, zeta)) * u(zy)
    return fn


def ref_fourier_wigner(alg, u, v, g_grid, xi_grid):
    z_nodes, _ = xi_grid.node_pairs()
    y = g_grid.nodes()
    shifted = alg.bch(alg.inv(z_nodes)[:, None, :], y[None, :, :])
    g_zy = u(shifted) * np.conjugate(v(y))[None, :]
    return g_grid.weight * dual_phase_grid(g_zy, g_grid, xi_grid.dual_grid, 1)


def ref_plain_row(alg, window, x):
    def row(z):
        zx = alg.bch(z, x)
        return zx, window(zx)
    return row


def ref_weyl_tau(alg, tau, p, u):
    z, zeta = p.zv, p.zetav
    tz_inv, zinv = alg.inv(tau(z)), alg.inv(z)
    return lambda x: (np.exp(1j * einsum_phase(alg.bch(tz_inv, x), zeta))
                      * u(alg.bch(zinv, x)))


def ref_coherent_tau(alg, tau, w, p):
    z, zeta = p.zv, p.zetav
    tz_inv = alg.inv(tau(z))

    def fn(x):
        zx = alg.bch(z, x)
        return np.exp(-1j * einsum_phase(alg.bch(tz_inv, zx), zeta)) * w(zx)
    return fn


def ref_wigner_tau(alg, tau, u, v, g_grid, xi_grid):
    z_nodes, zeta_nodes = xi_grid.node_pairs()
    y = g_grid.nodes()
    vy = np.conjugate(v(y))
    vals = np.empty((len(z_nodes), len(zeta_nodes)), dtype=complex)
    for i, z in enumerate(z_nodes):
        uz = u(alg.bch(alg.inv(z), y)) * vy
        E = np.exp(1j * (alg.bch(alg.inv(tau(z)), y) @ zeta_nodes.T))
        vals[i] = g_grid.weight * (uz @ E)
    return vals


def ref_tau_row(alg, tau, window, x):
    def row(z):
        zx = alg.bch(z, x)
        return alg.bch(alg.inv(tau(z)), zx), window(zx)
    return row


def ref_mag_weyl(alg, A, p, u):
    zinv, zeta = alg.inv(p.zv), p.zetav

    def translated(x):
        shifted = alg.bch(zinv, x)
        return np.exp(1j * circulation(A, x, shifted)) * u(shifted)
    return lambda x: np.exp(1j * einsum_phase(x, zeta)) * translated(x)


def ref_mag_coherent(alg, A, w, p):
    z, zeta = p.zv, p.zetav

    def fn(x):
        zx = alg.bch(z, x)
        return np.exp(1j * (-einsum_phase(zx, zeta) - circulation(A, zx, x))) * w(zx)
    return fn


def ref_mag_wigner(alg, A, u, v, g_grid, xi_grid):
    z_nodes, _ = xi_grid.node_pairs()
    y = g_grid.nodes()
    shifted = alg.bch(alg.inv(z_nodes)[:, None, :], y[None, :, :])
    circ = np.empty(shifted.shape[:-1])
    for i in range(len(z_nodes)):
        circ[i] = circulation(A, y, shifted[i])
    g_zy = u(shifted) * np.conjugate(v(y))[None, :] * np.exp(1j * circ)
    return g_grid.weight * dual_phase_grid(g_zy, g_grid, xi_grid.dual_grid, 1)


def ref_mag_row(alg, A, window, x):
    def row(z):
        zx = alg.bch(z, x)
        return zx, window(zx) * np.exp(-1j * circulation(A, zx, x))
    return row


# -- set-ups -----------------------------------------------------------------------

def plane():
    # pi/h = 3.14 on every axis, above the dual half-width 3: no aliasing
    return abelian(2), Grid.box(2, 4.0, 8), XiGrid.box(2, 4.0, 6, dual_half_width=3.0,
                                                        dual_count=5)


def h1():
    # pi/h = 2.62 on every axis, above the dual half-width 2: no aliasing
    return heisenberg(), Grid.box(3, 3.0, 5), XiGrid.box(3, 3.0, 4, dual_half_width=2.0,
                                                          dual_count=3)


# (set-up, tau map or potential on the algebra, kind)
CASES = {
    "landau-abelian2": (plane, lambda alg: landau_potential(0.5), "magnetic"),
    "linear3-h1": (h1, lambda alg: linear3_potential(0.6), "magnetic"),
    "symmetric-h1": (h1, symmetric_tau, "tau"),
    "scaled-h1": (h1, lambda alg: scaled_tau(0.3), "tau"),
}


def case(name):
    setup, param, kind = CASES[name]
    alg, grid, xi = setup()
    return alg, grid, xi, param(alg), kind


def symbol(n):
    return GaussianSymbol.make(n, amplitude=0.9 - 0.2j, x_center=np.full(n, 0.3),
                               x_sigma=1.1, xi_center=np.linspace(0.4, -0.3, n),
                               xi_sigma=0.9, xi_phase=np.linspace(-0.2, 0.3, n))


def inputs(alg, seed):
    rng = np.random.default_rng(seed)
    u = random_gaussian(rng, alg.dim, 0.5, 0.5)
    v = random_gaussian(rng, alg.dim, 0.5, 0.5)
    p = PhasePoint(rng.uniform(-1, 1, alg.dim), rng.uniform(-1, 1, alg.dim))
    pts = rng.uniform(-2, 2, (25, alg.dim))
    return u, v, p, pts


def rel_max(got, ref):
    return float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref)))


# -- the shared routes against the replaced bodies ---------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
def test_shift_and_coherent_state_match_replaced_bodies(name):
    alg, grid, xi, param, kind = case(name)
    u, _, p, pts = inputs(alg, 1)
    w = make_window(alg, grid)
    if kind == "tau":
        pairs = [(weyl_tau(alg, param, p, u), ref_weyl_tau(alg, param, p, u)),
                 (coherent_tau(alg, param, w, p), ref_coherent_tau(alg, param, w, p))]
    else:
        pairs = [(mag_weyl(alg, param, p, u), ref_mag_weyl(alg, param, p, u)),
                 (mag_coherent(alg, param, w, p), ref_mag_coherent(alg, param, w, p))]
    for got, ref in pairs:
        assert rel_max(got(pts), ref(pts)) <= TOL


@pytest.mark.parametrize("name", sorted(CASES))
def test_wigner_matches_replaced_bodies(name):
    alg, grid, xi, param, kind = case(name)
    u, v, _, _ = inputs(alg, 2)
    if kind == "tau":
        got = wigner_tau(alg, param, u, v, grid, xi).values
        ref = ref_wigner_tau(alg, param, u, v, grid, xi)
    else:
        got = mag_wigner(alg, param, u, v, grid, xi).values
        ref = ref_mag_wigner(alg, param, u, v, grid, xi)
    assert rel_max(got, ref) <= TOL


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_replaced_bodies(name):
    alg, grid, xi, param, kind = case(name)
    w = make_window(alg, grid, sigma=0.9, center=np.linspace(0.2, -0.3, alg.dim))
    cfg = BerezinConfig(alg, w, grid, xi, symbol(alg.dim))
    z_nodes, z_w = cfg.z_quadrature()
    x = grid.nodes()
    if kind == "tau":
        got = berezin_tau(cfg, param).kernel
        ref = assemble_kernel(cfg.symbol, z_nodes, z_w, ref_tau_row(alg, param, w, x))
    else:
        got = mag_berezin(cfg, param).kernel
        ref = assemble_kernel(cfg.symbol, z_nodes, z_w, ref_mag_row(alg, param, w, x))
    assert rel_max(got, ref) <= TOL


@pytest.mark.parametrize("setup", [plane, h1])
def test_plain_routes_bitwise_equal_replaced_bodies(setup):
    alg, grid, xi = setup()
    u, v, p, pts = inputs(alg, 3)
    w = make_window(alg, grid, sigma=0.9)
    assert np.array_equal(weyl(alg, p, u)(pts), ref_weyl(alg, p, u)(pts))
    assert np.array_equal(weyl_adjoint(alg, p, u)(pts), ref_weyl_adjoint(alg, p, u)(pts))
    assert np.array_equal(coherent_state(alg, w, p)(pts),
                          ref_weyl_adjoint(alg, p, w.field)(pts))
    assert np.array_equal(fourier_wigner(alg, u, v, grid, xi).values,
                          ref_fourier_wigner(alg, u, v, grid, xi))
    cfg = BerezinConfig(alg, w, grid, xi, symbol(alg.dim))
    # the same groups of z nodes as the plain system takes
    z_nodes, z_w = cfg.z_groups(WeylSystem(alg))
    ref = assemble_kernel(cfg.symbol, z_nodes, z_w, ref_plain_row(alg, w, grid.nodes()))
    assert np.array_equal(berezin_matrix(cfg).kernel, ref)


@pytest.mark.parametrize("setup", [plane, h1])
def test_trivial_tau_and_zero_field_build_the_plain_system(setup):
    alg, grid, xi = setup()
    n = alg.dim
    assert type(tau_system(alg, tau_e(n))) is WeylSystem
    assert type(magnetic_system(alg, zero_potential(n))) is WeylSystem
    u, v, p, pts = inputs(alg, 4)
    w = make_window(alg, grid)
    cfg = BerezinConfig(alg, w, grid, xi, symbol(n))
    plain_shift = weyl(alg, p, u)(pts)
    plain_state = coherent_state(alg, w, p)(pts)
    plain_fw = fourier_wigner(alg, u, v, grid, xi).values
    plain_K = berezin_matrix(cfg).kernel
    for got, ref in ((weyl_tau(alg, tau_e(n), p, u)(pts), plain_shift),
                     (mag_weyl(alg, zero_potential(n), p, u)(pts), plain_shift),
                     (coherent_tau(alg, tau_e(n), w, p)(pts), plain_state),
                     (mag_coherent(alg, zero_potential(n), w, p)(pts), plain_state),
                     (wigner_tau(alg, tau_e(n), u, v, grid, xi).values, plain_fw),
                     (mag_wigner(alg, zero_potential(n), u, v, grid, xi).values, plain_fw),
                     (berezin_tau(cfg, tau_e(n)).kernel, plain_K),
                     (mag_berezin(cfg, zero_potential(n)).kernel, plain_K)):
        assert np.array_equal(got, ref)


def test_mag_translation_is_the_shift_without_modulation():
    alg = heisenberg()
    A = linear3_potential(0.6)
    u, _, p, pts = inputs(alg, 5)
    zinv = alg.inv(p.zv)
    shifted = alg.bch(zinv, pts)
    ref = np.exp(1j * circulation(A, pts, shifted)) * u(shifted)
    assert rel_max(mag_translation(alg, A, p.zv, u)(pts), ref) <= TOL


# -- one special-symbol dispatch ---------------------------------------------------

def all_systems(alg, n):
    return {"plain": WeylSystem(alg), "tau_e": tau_system(alg, tau_e(n)),
            "scaled": tau_system(alg, scaled_tau(0.3)),
            "landau": magnetic_system(alg, landau_potential(0.5))}


def test_delta_symbol_projector_lives_on_the_config_grid():
    alg = abelian(2)
    w = make_window(alg, Grid.box(2, 4.0, 10))       # window on 10 x 10
    grid = Grid.box(2, 4.0, 8)                        # operator grid 8 x 8
    xi = XiGrid.box(2, 4.0, 6, dual_half_width=3.0, dual_count=5)
    p = PhasePoint([0.3, -0.2], [0.5, 0.1])
    cfg = BerezinConfig(alg, w, grid, xi, DeltaSymbol.at(p.zv, p.zetav, mass=0.7))
    for name, system in all_systems(alg, 2).items():
        op = berezin_quantize(cfg, system)
        assert op.kernel.shape == (64, 64), name
        assert op.meta.get("delta_symbol")
        ref = OperatorMatrix.rank_one(grid, system.adjoint_shift(p, w.field)).kernel
        assert np.max(np.abs(op.kernel - 0.7 * ref)) <= 1e-15
    assert berezin_matrix(cfg).kernel.shape == (64, 64)
    assert berezin_tau(cfg, scaled_tau(0.3)).kernel.shape == (64, 64)
    assert mag_berezin(cfg, landau_potential(0.5)).kernel.shape == (64, 64)


def test_x_only_and_phase_symbols_take_one_dispatch():
    alg, grid, xi = plane()
    w = make_window(alg, grid)
    one = BerezinConfig(alg, w, grid, xi, XOnlySymbol(gaussian(2, 1.3), 2))
    phase = BerezinConfig(alg, w, grid, xi, PhaseSymbol.at([0.1, 0.0], [0.2, 0.3]))
    plain = berezin_matrix(one)
    for name, system in all_systems(alg, 2).items():
        op = berezin_quantize(one, system)
        assert op.meta.get("multiplication"), name
        assert np.array_equal(op.kernel, plain.kernel)
        with pytest.raises(SymbolError):
            berezin_quantize(phase, system)


# -- Nyquist warning on every Wigner route -----------------------------------------

def warned_axes(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return sorted(int(m.group(1)) for c in caught if issubclass(c.category, NyquistWarning)
                  for m in [re.search(r"on axis (\d+)", str(c.message))])


def test_dressed_and_moved_wigner_routes_warn_past_nyquist():
    alg = heisenberg()
    grid = Grid.box(3, 4.0, 7)                        # pi/h = 2.749 < 4
    xi = XiGrid.box(3, 4.0, 3, dual_half_width=4.0, dual_count=3)
    w = make_window(alg, grid)
    u = gaussian(3, 1.0)
    assert warned_axes(lambda: mag_wigner(alg, linear3_potential(0.6), u, w.field,
                                          grid, xi)) == [0, 1, 2]
    assert warned_axes(lambda: wigner_tau(alg, symmetric_tau(alg), u, w.field,
                                          grid, xi)) == [0, 1, 2]
    inside = XiGrid.box(3, 4.0, 3, dual_half_width=2.0, dual_count=3)
    assert warned_axes(lambda: mag_wigner(alg, linear3_potential(0.6), u, w.field,
                                          grid, inside)) == []


# -- no Gauss-Legendre order anywhere -------------------------------------------------

def test_no_signature_takes_an_order():
    offenders = []
    for mod_name in ("algebra", "berezin", "ccr", "cli", "coherent", "config", "covariant",
                     "exports", "fields", "grids", "magnetic", "operators", "pseudodiff",
                     "report", "symbols", "tau", "transforms", "verify"):
        mod = importlib.import_module(f"nilquant.{mod_name}")
        for name, obj in vars(mod).items():
            members = [obj] + (list(vars(obj).values()) if inspect.isclass(obj) else [])
            for fn in members:
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    if "order" in inspect.signature(fn).parameters:
                        offenders.append(f"{mod_name}.{name}")
    assert offenders == []
