"""`fields.GaussianFactor`, the one Gaussian, against copies of the five
routes it replaced: the evaluator of `fields.gaussian`, the row + col -
cross split, the dual transform of `GaussianSymbol.hat2` and of
`XiOnlySymbol`, and the closed-form symbol integral.  Values, pair
exponents, transforms and the kernels assembled from them are bitwise equal
to those routes; the integral of a phased symbol multiplies the same numbers
in another order and agrees to 1e-15 relative."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilquant.algebra import heisenberg
from nilquant.berezin import BerezinConfig, berezin_matrix
from nilquant.coherent import Window, make_window
from nilquant.config import ConfigError, parse_config
from nilquant.fields import Field, GaussianFactor, gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import linear3_potential, mag_berezin
from nilquant.pseudodiff import op_quantize
from nilquant.symbols import GaussianSymbol, SymbolError, XiOnlySymbol
from nilquant.tau import berezin_tau, symmetric_tau

TWO_PI = 2.0 * math.pi
INTEGRAL_TOL = 1e-15
TINY = np.finfo(float).smallest_subnormal


# ---------------------------------------------------------------------------
# the replaced routes, as they were written
# ---------------------------------------------------------------------------

def ref_gaussian_values(amplitude, center, sigma, modulation, p):
    """The closure `fields.gaussian` returned."""
    d = (p - center) / sigma
    quad = -0.5 * np.einsum("...i,...i->...", d, d)
    if not np.any(modulation):
        return np.multiply(amplitude, np.exp(quad), dtype=complex)
    phase = np.einsum("...i,i->...", p, modulation)
    return amplitude * np.exp(quad + 1j * phase)


def ref_pair_exponent(sigma, center, phase, P, Q):
    """`symbols._pair_exponent`."""
    s2 = sigma ** 2
    A = phase - np.asarray(P, float)
    Q = np.asarray(Q, float)
    row = -0.5 * np.einsum("...k,k,...k->...", A, s2, A) + 1j * (A @ center)
    col = -0.5 * np.einsum("...k,k,...k->...", Q, s2, Q) + 1j * (Q @ center)
    return row, col, A * s2, Q


def ref_prefactor(sym):
    """`GaussianSymbol._prefactor`."""
    return sym.amplitude * float(np.prod(sym.gxi.sigma / math.sqrt(TWO_PI)))


def ref_hat2(sym, x, V):
    """`GaussianSymbol.hat2`."""
    V = np.asarray(V, float)
    w = sym.gxi.phase - V
    quad = -0.5 * np.einsum("...i,i,...i->...", w, sym.gxi.sigma ** 2, w)
    ph = np.einsum("...i,i->...", w, sym.gxi.center)
    return ref_prefactor(sym) * sym.gx(x) * np.exp(quad + 1j * ph)


def ref_hat2_pair_exponent(sym, x, P, Q):
    """`GaussianSymbol.hat2_pair_exponent`."""
    pref = np.multiply(ref_prefactor(sym), sym.gx(np.asarray(x, float)))
    return (complex(pref) if np.ndim(pref) == 0 else pref,) + ref_pair_exponent(
        sym.gxi.sigma, sym.gxi.center, sym.gxi.phase, P, Q)


def ref_xi_only_transform(psi, w):
    """`XiOnlySymbol._transform`, which `hat2` called at w = phase - V."""
    pref = float(np.prod(psi.sigma / math.sqrt(TWO_PI)))
    quad = -0.5 * np.einsum("...i,i,...i->...", w, psi.sigma ** 2, w)
    ph = np.einsum("...i,i->...", w, psi.center)
    return pref * np.exp(quad + 1j * ph)


def ref_xi_only_pair_exponent(psi, P, Q):
    """`XiOnlySymbol.hat2_pair_exponent`."""
    pref = complex(np.prod(psi.sigma / math.sqrt(TWO_PI)))
    return (pref,) + ref_pair_exponent(psi.sigma, psi.center, psi.phase, P, Q)


def ref_integral(sym):
    """`GaussianSymbol.integral`."""
    gx, gxi = sym.gx, sym.gxi
    if np.any(gx.phase) or np.any(gxi.phase):
        ax = np.exp(1j * (gx.phase @ gx.center) - 0.5 * np.sum(gx.sigma ** 2 * gx.phase ** 2))
        bx = np.exp(1j * (gxi.phase @ gxi.center)
                    - 0.5 * np.sum(gxi.sigma ** 2 * gxi.phase ** 2))
    else:
        ax = bx = 1.0
    return (sym.amplitude * ax * bx * gx.abs_power_integral(1.0)
            * gxi.abs_power_integral(1.0) / TWO_PI ** sym.n)


class RefGaussianSymbol(GaussianSymbol):
    """A Gaussian symbol whose transforms take the replaced routes."""

    hat2 = ref_hat2
    hat2_pair_exponent = ref_hat2_pair_exponent


class RefXiOnlySymbol(XiOnlySymbol):
    def hat2(self, x, V):
        return ref_xi_only_transform(self.psi, self.psi.phase - np.asarray(V, float))

    def hat2_pair_exponent(self, x, P, Q):
        return ref_xi_only_pair_exponent(self.psi, P, Q)


def bitwise(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(np.atleast_1d(a).view(np.uint64),
                               np.atleast_1d(b).view(np.uint64)))


# ---------------------------------------------------------------------------
# random Gaussians (the strategy of test_phase_free_and_reuse.py, with phases)
# ---------------------------------------------------------------------------

gaussian_cases = dict(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    sigma_scale=st.floats(0.05, 5.0),
    amplitude=st.floats(-1e3, 1e3, allow_nan=False).filter(lambda a: a != 0),
    phased=st.booleans(),
)


def draw(n, seed, sigma_scale, phased):
    rng = np.random.default_rng(seed)
    sigma = sigma_scale * rng.uniform(0.5, 2.0, n)
    center = rng.uniform(-3.0, 3.0, n)
    phase = rng.uniform(-2.0, 2.0, n) if phased else np.zeros(n)
    return rng, sigma, center, phase


def random_symbol(rng, n, amplitude, phased):
    def part():
        return dict(center=rng.uniform(-1.0, 1.0, n), sigma=rng.uniform(0.6, 1.4, n),
                    phase=rng.uniform(-1.0, 1.0, n) if phased else None)
    x, xi = part(), part()
    return GaussianSymbol.make(n, amplitude, x["center"], x["sigma"], x["phase"],
                               xi["center"], xi["sigma"], xi["phase"])


@settings(max_examples=60, deadline=None)
@given(**gaussian_cases)
def test_values_equal_the_replaced_evaluator(n, seed, sigma_scale, amplitude, phased):
    rng, sigma, center, phase = draw(n, seed, sigma_scale, phased)
    p = center + 8.0 * sigma * rng.uniform(-1.0, 1.0, (6, 5, n))
    f = gaussian(n, sigma, center, phase, amplitude)
    assert bitwise(f(p), ref_gaussian_values(amplitude, center, sigma, phase, p))
    unit = math.pi ** (-n / 4.0) / math.sqrt(float(np.prod(sigma)))
    assert bitwise(gaussian(n, sigma, center, phase)(p),
                   ref_gaussian_values(unit, center, sigma, phase, p))
    g = GaussianFactor.make(n, center, sigma, phase)
    assert bitwise(g(p), ref_gaussian_values(1.0, center, sigma, phase, p))
    assert bitwise(g(p[0, 0]), ref_gaussian_values(1.0, center, sigma, phase, p[0, 0]))


@settings(max_examples=60, deadline=None)
@given(**gaussian_cases)
def test_transforms_and_pair_exponents_equal_the_replaced_routes(n, seed, sigma_scale,
                                                                 amplitude, phased):
    rng, sigma, center, phase = draw(n, seed, sigma_scale, phased)
    sym = random_symbol(rng, n, complex(amplitude, amplitude / 3), phased)
    psi = GaussianFactor.make(n, center, sigma, phase)
    xi_only = XiOnlySymbol(psi, n)
    x = rng.uniform(-1.0, 1.0, (4, 1, n))
    V = rng.uniform(-2.0, 2.0, (4, 3, n))
    assert bitwise(sym.hat2(x, V), ref_hat2(sym, x, V))
    assert bitwise(sym.check2(x, V), ref_hat2(sym, x, -V))
    assert bitwise(xi_only.hat2(x, V), ref_xi_only_transform(psi, phase - V))
    assert bitwise(psi.transform(V), ref_xi_only_transform(psi, phase - V))
    # one node (n,) and a chunk of c nodes (c, 1, n)
    for z, P, Q in ((x[0, 0], V[0], V[1]), (x, V, rng.uniform(-2.0, 2.0, (4, 5, n)))):
        for got, want in ((sym.hat2_pair_exponent(z, P, Q), ref_hat2_pair_exponent(sym, z, P, Q)),
                          (xi_only.hat2_pair_exponent(z, P, Q),
                           ref_xi_only_pair_exponent(psi, P, Q))):
            assert type(got[0]) is type(want[0])
            assert all(bitwise(a, b) for a, b in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(**gaussian_cases)
def test_integral_equals_the_replaced_closed_form(n, seed, sigma_scale, amplitude, phased):
    """Bitwise without phases; with them the factors multiply
    amplitude * (a_x I_x) * (b_xi I_xi) instead of amplitude * a_x * b_xi * I_x * I_xi."""
    rng = np.random.default_rng(seed)
    sym = random_symbol(rng, n, complex(amplitude, -amplitude / 5) * sigma_scale, phased)
    got, want = sym.integral(), ref_integral(sym)
    if phased:
        # a subnormal amplitude keeps fewer digits: each order may round it by
        # half a unit of the subnormal grid, then scaled by the two integrals
        spread = sym.gx.abs_power_integral(1.0) * sym.gxi.abs_power_integral(1.0)
        assert abs(got - want) <= INTEGRAL_TOL * abs(want) + spread * TINY
    else:
        assert bitwise(np.complex128(got), np.complex128(want))


def test_factor_integral_is_the_quadrature():
    g = GaussianFactor.make(2, [0.3, -0.2], [0.8, 1.1], [0.7, -0.4], 1.5 - 0.5j)
    grid = Grid.box(2, 12.0, 240)
    quad = grid.weight * np.sum(g(grid.nodes()))
    assert abs(g.integral() - quad) < 1e-10 * abs(quad)
    assert abs(g.conjugate().integral() - np.conjugate(g.integral())) < 1e-15


# ---------------------------------------------------------------------------
# kernels from the factors against kernels from the replaced routes
# ---------------------------------------------------------------------------

def h1_case():
    alg = heisenberg()
    grid = Grid.box(3, 3.0, 5)
    xi = XiGrid(Grid.box(3, 3.0, 4), Grid.box(3, 2.0, 4, dual=True))
    return alg, grid, xi


QUANTIZERS = {
    "berezin": lambda cfg: berezin_matrix(cfg).kernel,
    "tau": lambda cfg: berezin_tau(cfg, symmetric_tau(cfg.algebra)).kernel,
    "magnetic": lambda cfg: mag_berezin(cfg, linear3_potential(0.5)).kernel,
    "op": lambda cfg: op_quantize(cfg.algebra, cfg.symbol, cfg.g_grid).kernel,
}


@pytest.mark.parametrize("scheme", sorted(QUANTIZERS))
@pytest.mark.parametrize("phased", [False, True])
def test_kernels_equal_those_of_the_replaced_routes(scheme, phased):
    alg, grid, xi = h1_case()
    center, sigma = np.array([0.2, -0.1, 0.3]), 0.9
    w = make_window(alg, grid, sigma, center)
    ref_window = Window.normalized(
        Field(lambda p: ref_gaussian_values(
            math.pi ** (-3 / 4.0) / math.sqrt(float(np.prod(np.full(3, sigma)))), center,
            np.full(3, sigma),
            np.zeros(3), p), 3), grid)
    assert bitwise(w(grid.nodes()), ref_window(grid.nodes()))
    rng = np.random.default_rng(11 + phased)
    sym = random_symbol(rng, 3, 0.9 - 0.4j, phased)
    ref = RefGaussianSymbol(sym.amplitude, sym.gx, sym.gxi)
    psi = GaussianFactor.make(3, [0.3, -0.2, 0.1], 0.8, [0.1, 0.0, -0.2] if phased else None)
    run = QUANTIZERS[scheme]
    for got_sym, ref_sym in ((sym, ref), (XiOnlySymbol(psi, 3), RefXiOnlySymbol(psi, 3))):
        got = run(BerezinConfig(alg, w, grid, xi, got_sym))
        want = run(BerezinConfig(alg, ref_window, grid, xi, ref_sym))
        assert bitwise(got, want)


# ---------------------------------------------------------------------------
# validation: one set of checks, each caller's error type
# ---------------------------------------------------------------------------

BAD = [
    dict(sigma=0.0), dict(sigma=-1.0), dict(sigma=math.inf), dict(sigma=math.nan),
    dict(center=math.nan), dict(phase=math.inf), dict(center=[0.0, 1.0, 2.0]),
    dict(sigma=[1.0, 1.0, 1.0]),
]


@pytest.mark.parametrize("bad", BAD, ids=lambda b: repr(b))
def test_bad_gaussians_raise_each_callers_error(bad):
    with pytest.raises(ValueError, match="Gaussian"):
        GaussianFactor.make(2, **bad)
    field_args = {("modulation" if k == "phase" else k): v for k, v in bad.items()}
    with pytest.raises(ValueError, match="Gaussian"):
        gaussian(2, **field_args)
    for key in ("x", "xi"):
        with pytest.raises(SymbolError, match="Gaussian"):
            GaussianSymbol.make(2, **{f"{key}_{k}": v for k, v in bad.items()})
    with pytest.raises(SymbolError, match="Gaussian"):
        XiOnlySymbol.gaussian(2, **bad)


@pytest.mark.parametrize("amplitude", [math.inf, math.nan, complex(1.0, math.inf)])
def test_non_finite_amplitudes_raise(amplitude):
    with pytest.raises(ValueError, match="amplitude"):
        GaussianFactor.make(1, amplitude=amplitude)
    with pytest.raises(ValueError, match="amplitude"):
        gaussian(1, amplitude=amplitude)


def test_zero_width_is_a_bad_window_not_a_division_by_zero():
    """The default unit-norm amplitude divides by the widths, so the checks
    come first."""
    with pytest.raises(ValueError, match="widths must be finite and positive"):
        gaussian(3, sigma=0)
    with pytest.raises(ConfigError, match="bad window"):
        parse_config({"window": {"sigma": 0}})
