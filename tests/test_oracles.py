"""Dense oracles of `oracles` against closed forms.  Each map's tolerance
comparisons rest on one oracle, so the Fourier-Wigner transform, the Op
kernel and the dual-side phase sum are checked here on their own."""

import math

import numpy as np
import pytest

from nilquant.algebra import abelian, heisenberg
from nilquant.coherent import WeylSystem
from nilquant.fields import gaussian
from nilquant.grids import Grid
from nilquant.symbols import GaussianSymbol

import oracles


def test_wigner_of_the_unit_gaussian_is_the_closed_form():
    """FW[w, w](z, zeta) = exp(-(z^2 + zeta^2) / 4) e^{i z zeta / 2} for the
    unit Gaussian w on the line."""
    w = gaussian(1)
    grid = Grid.box(1, 12.0, 256)
    z = np.array([[-1.3], [0.0], [0.4], [2.1]])
    zeta = np.array([[-1.7], [0.0], [0.9], [2.5]])
    got = oracles.wigner(WeylSystem(abelian(1)), w, w, grid, z, zeta)
    Z, Zeta = z[:, None, 0], zeta[None, :, 0]
    want = np.exp(-(Z ** 2 + Zeta ** 2) / 4.0) * np.exp(0.5j * Z * Zeta)
    assert np.max(np.abs(got - want)) <= 1e-13


# (algebra, operator grid, dual grid): |log(x y^{-1})| stays inside the dual
# grid's Nyquist band pi/h on every axis
OP_CASES = {"abelian:1": (abelian(1), Grid.box(1, 2.0, 12), Grid.box(1, 10.0, 128, dual=True)),
            "abelian:2": (abelian(2), Grid.box(2, 2.0, 5), Grid.box(2, 10.0, 48, dual=True)),
            "heisenberg:1": (heisenberg(), Grid.box(3, 1.0, 3), Grid.box(3, 8.0, 32, dual=True))}


@pytest.mark.parametrize("name", OP_CASES)
def test_op_kernel_of_a_gaussian_symbol_is_check2(name):
    """Op(a)(x, y) = check2(x, log(x y^{-1})), the closed-form dual-side
    transform of a Gaussian symbol, once the dual grid resolves a."""
    alg, grid, dual = OP_CASES[name]
    n = alg.dim
    sym = GaussianSymbol.make(n, amplitude=0.9 - 0.3j, x_center=np.full(n, 0.2),
                              x_sigma=1.2, x_phase=np.full(n, 0.4),
                              xi_center=np.linspace(-0.3, 0.5, n), xi_sigma=0.8,
                              xi_phase=np.linspace(0.2, -0.1, n))
    x, zeta = grid.nodes(), dual.nodes()
    a = sym(x[:, None, :], zeta[None, :, :])
    got = oracles.op_kernel(alg, a, grid, dual)
    want = sym.check2(x[:, None, :], alg.bch(x[:, None, :], -x[None, :, :]))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_phase_sums_take_the_hand_values():
    """Dual nodes +-pi/2 per axis, in C order: at x = (1, 0) the phases
    e^{i <x | zeta>} are (-i, -i, i, i), so h = (1, 2, 3, 4) sums to 4i."""
    dual = Grid((math.pi, math.pi), (2, 2), dual=True)
    x = np.array([[1.0, 0.0]])
    h = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    E = oracles.phase_matrix(x, dual, 1)
    assert np.max(np.abs(E - [[-1j, -1j, 1j, 1j]])) <= 1e-15
    assert np.max(np.abs(oracles.phase_matrix(x, dual, -1) - np.conjugate(E))) <= 1e-15
    assert abs((E @ h)[0] - 4j) <= 1e-15
    assert abs(oracles.dual_phase_rows(h, x, dual, 1)[0] - 4j) <= 1e-15
    # at x = (1, 1) the phases are (-1, 1, 1, -1)
    E = oracles.phase_matrix(np.ones((1, 2)), dual, 1)
    assert np.max(np.abs(E - [[-1, 1, 1, -1]])) <= 1e-15
