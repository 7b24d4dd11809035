"""The Weyl system's one dressing route (`WeylSystem.dress`) and its one
coherent-state row (`WeylSystem.coherent_rows`), against the routes they
replaced: the magnetic Fourier-Wigner transform dressed row by row, the
coherent-state bank built node by node, and the coherent state taken as
(phase * u) * dressing.  The first two must stay bitwise for every block
budget; the coherent state reassociates one unit-modulus product, so a
dressed state matches within `STATE_TOL` relative, while the plain system
(so tau = e and A = 0) stays bitwise."""

from collections import OrderedDict

import numpy as np
import pytest

from nilquant import coherent
from nilquant.algebra import abelian, heisenberg
from nilquant.coherent import PhasePoint, WeylSystem, coherent_state, make_window
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import (VectorPotential, linear3_potential, mag_coherent, mag_weyl,
                               mag_wigner, magnetic_system, zero_potential)
from nilquant.tau import tau_e, tau_system

from test_blocked_bargmann import bits, case, ref_field, ref_wigner

#: a dressed coherent state against the (phase * u) * dressing order,
#: relative max-abs
STATE_TOL = 1e-15

POTENTIALS = {
    "linear3": linear3_potential(0.6),
    "degree-unknown": VectorPotential(linear3_potential(0.6).fn, degree=None),
    "quadratic": VectorPotential(lambda p: 0.2 * p[..., ::-1] ** 2 - 0.3 * p, degree=2),
}

# BLOCK_ENTRIES: dressing blocks of one node, of a few, and one of every node
BUDGETS = [1, 5000, 10 ** 9]


# -- the routes the two methods replaced --------------------------------------

def ref_adjoint_shift(system, p, u, y):
    """W(z, zeta)* u at y as (phase * u(zy)) * dressing, one dressing call."""
    z, zeta = p.zv, p.zetav
    zy = system.alg.bch(z, y)
    out = np.exp(-1j * np.einsum("...i,i->...", system.phase_points(z, zy), zeta)) * u(zy)
    if system.dressed:
        out = out * np.exp(-1j * system.dressing(zy, y))
    return out


def ref_shift(system, p, u, x):
    """W(z, zeta) u at x with one dressing call on every point."""
    z, zeta = p.zv, p.zetav
    back = system.alg.bch(system.alg.inv(z), x)
    out = np.exp(1j * np.einsum("...i,i->...", system.phase_points(z, x), zeta)) * u(back)
    if system.dressed:
        out = out * np.exp(1j * system.dressing(x, back))
    return out


def per_node_bank(alg, w, xi_grid, targets):
    """The coherent-state bank one z node at a time."""
    z_nodes, zeta_nodes = xi_grid.node_pairs()
    out = np.empty((len(z_nodes) * len(zeta_nodes), len(targets)), dtype=complex)
    for i, z in enumerate(z_nodes):
        zx = alg.bch(z, targets)
        base = w(zx)
        phases = np.exp(-1j * (zx @ zeta_nodes.T))
        out[i * len(zeta_nodes):(i + 1) * len(zeta_nodes), :] = (base[:, None] * phases).T
    return out


# -- the magnetic Fourier-Wigner transform --------------------------------------

@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("potential", POTENTIALS)
def test_mag_wigner_is_bitwise_the_row_by_row_dressing(potential, budget, monkeypatch):
    alg, y_grid, xi, u, v = case("heisenberg:1", BUDGETS.index(budget))
    A = POTENTIALS[potential]
    want = ref_wigner(magnetic_system(alg, A), ref_field(u), ref_field(v), y_grid, xi)
    monkeypatch.setattr(coherent, "BLOCK_ENTRIES", budget)
    assert bits(mag_wigner(alg, A, u, v, y_grid, xi).values) == bits(want)


@pytest.mark.parametrize("budget", BUDGETS)
def test_quadratic_mag_wigner_is_bitwise_on_engel(budget, monkeypatch):
    alg, y_grid, xi, u, v = case("engel", BUDGETS.index(budget))
    A = POTENTIALS["quadratic"]
    want = ref_wigner(magnetic_system(alg, A), ref_field(u), ref_field(v), y_grid, xi)
    monkeypatch.setattr(coherent, "BLOCK_ENTRIES", budget)
    assert bits(mag_wigner(alg, A, u, v, y_grid, xi).values) == bits(want)


# -- the coherent-state bank --------------------------------------------------------

BANK_CASES = {
    "abelian:1": (lambda: abelian(1), Grid((6.0,), (24,)),
                  XiGrid(Grid((5.0,), (13,)), Grid((1.8,), (7,), dual=True))),
    "abelian:2": (lambda: abelian(2), Grid((3.0, 3.5), (8, 7)),
                  XiGrid(Grid((2.0, 1.5), (4, 3)), Grid((2.2, 1.9), (4, 5), dual=True))),
    "heisenberg:1": (heisenberg, Grid((3.0, 2.5, 3.5), (4, 3, 5)),
                     XiGrid(Grid((2.0, 1.5, 2.5), (3, 2, 4)),
                            Grid((2.4, 2.1, 1.9), (4, 5, 3), dual=True))),
}


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", BANK_CASES)
def test_bank_is_bitwise_per_node(name, budget, monkeypatch):
    """At arbitrary points and on a grid (memoized, so the memo starts
    empty), for blocks of two nodes, a few and all."""
    make_alg, grid, xi = BANK_CASES[name]
    alg = make_alg()
    w = make_window(alg, grid)
    points = np.random.default_rng(5).uniform(-2.0, 2.0, (17, alg.dim))
    monkeypatch.setattr(coherent, "BLOCK_ENTRIES", budget)
    monkeypatch.setattr(coherent, "_BANKS", OrderedDict())
    for targets, nodes in ((points, points), (grid, grid.nodes())):
        got = coherent.coherent_state_bank(alg, w, xi, targets)
        assert bits(got) == bits(per_node_bank(alg, w, xi, nodes))


@pytest.mark.parametrize("name", BANK_CASES)
def test_bank_on_one_z_node_and_at_no_targets(name):
    make_alg, grid, xi = BANK_CASES[name]
    alg = make_alg()
    w = make_window(alg, grid)
    one = XiGrid(Grid((1.0,) * alg.dim, (1,) * alg.dim), xi.dual_grid)
    assert bits(coherent.coherent_state_bank(alg, w, one, grid.nodes())) == \
        bits(per_node_bank(alg, w, one, grid.nodes()))
    empty = np.empty((0, alg.dim))
    assert coherent.coherent_state_bank(alg, w, xi, empty).shape == (xi.size, 0)


# -- coherent states and shifts -----------------------------------------------------

def state_setup():
    alg = heisenberg()
    grid = Grid((3.0, 2.5, 3.5), (6, 5, 7))
    w = make_window(alg, grid)
    p = PhasePoint([0.3, -0.2, 0.4], [0.5, 0.1, -0.3])
    return alg, grid, w, p


@pytest.mark.parametrize("potential", POTENTIALS)
def test_dressed_coherent_state_reassociates_one_unit_product(potential):
    alg, grid, w, p = state_setup()
    system = magnetic_system(alg, POTENTIALS[potential])
    y = grid.nodes()
    got = mag_coherent(alg, POTENTIALS[potential], w, p)(y)
    want = ref_adjoint_shift(system, p, w.field, y)
    assert np.max(np.abs(got - want)) <= STATE_TOL * np.max(np.abs(want))


def test_undressed_coherent_states_stay_bitwise():
    alg, grid, w, p = state_setup()
    y = grid.nodes()
    want = bits(ref_adjoint_shift(WeylSystem(alg), p, w.field, y))
    assert bits(coherent_state(alg, w, p)(y)) == want
    assert bits(mag_coherent(alg, zero_potential(3), w, p)(y)) == want
    assert bits(tau_system(alg, tau_e(3)).adjoint_shift(p, w.field)(y)) == want


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("potential", POTENTIALS)
def test_dressed_shift_is_bitwise_one_dressing_call(potential, budget, monkeypatch):
    """One point, a list of points and a stack of lists."""
    alg, grid, w, p = state_setup()
    A = POTENTIALS[potential]
    system = magnetic_system(alg, A)
    x = grid.nodes()
    monkeypatch.setattr(coherent, "BLOCK_ENTRIES", budget)
    for points in (x[7], x, x.reshape(6, 35, 3)):
        got = mag_weyl(alg, A, p, w.field)(points)
        assert bits(got) == bits(ref_shift(system, p, w.field, points))


def test_dress_returns_the_values_of_an_undressed_system():
    alg, grid, w, _ = state_setup()
    values = w(grid.nodes())
    x = grid.nodes()
    assert WeylSystem(alg).dress(values, x, x, 1) is values
    assert magnetic_system(alg, zero_potential(3)).dress(values, x, x, -1) is values


def test_coherent_rows_are_the_dressed_coherent_state_values():
    """(P(z, zx), u(zx) conj G(zx, x)) at a stack of nodes z, node by node."""
    alg, grid, w, _ = state_setup()
    system = magnetic_system(alg, POTENTIALS["quadratic"])
    x = grid.nodes()
    z = np.random.default_rng(6).uniform(-1.0, 1.0, (2, 3, 1, 3))
    points, values = system.coherent_rows(w, z, x)
    assert points.shape == (2, 3, len(x), 3) and values.shape == (2, 3, len(x))
    for zi, p_row, v_row in zip(z.reshape(-1, 3), points.reshape(-1, len(x), 3),
                                values.reshape(-1, len(x))):
        zx = alg.bch(zi, x)
        assert bits(p_row) == bits(zx)
        assert bits(v_row) == bits(w(zx) * np.exp(-1j * system.dressing(zx, x)))
