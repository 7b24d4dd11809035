"""Weyl system, Fourier-Wigner transform, coherent states, Bargmann maps."""

import math
import warnings

import numpy as np
import pytest

from nilquant.algebra import abelian, heisenberg
from nilquant.coherent import (NyquistWarning, PhasePoint, bargmann, bargmann_adjoint,
                               coherent_state, fourier_wigner, fourier_wigner_at,
                               make_window, projector, reproducing_apply,
                               reproducing_kernel, weyl, weyl_adjoint,
                               weyl_compose_factor)
from nilquant.fields import gaussian, random_gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.transforms import inner, l2_norm


def line():
    alg = abelian(1)
    grid = Grid.box(1, 10.0, 128)
    xi = XiGrid.box(1, 10.0, 128)
    return alg, grid, xi, make_window(alg, grid)


def test_weyl_identity_point():
    alg, grid, xi, w = line()
    rng = np.random.default_rng(0)
    u = random_gaussian(rng, 1)
    pts = rng.uniform(-2, 2, (10, 1))
    p0 = PhasePoint.origin(1)
    assert np.allclose(weyl(alg, p0, u)(pts), u(pts))
    assert np.allclose(weyl_adjoint(alg, p0, u)(pts), u(pts))


def test_weyl_abelian_time_frequency_shift():
    alg, grid, xi, w = line()
    rng = np.random.default_rng(1)
    u = random_gaussian(rng, 1)
    z, zeta = 0.8, -1.1
    p = PhasePoint([z], [zeta])
    pts = rng.uniform(-2, 2, (10, 1))
    ref = np.exp(1j * zeta * pts[:, 0]) * u(pts - z)
    assert np.max(np.abs(weyl(alg, p, u)(pts) - ref)) < 1e-14


def test_weyl_unitary():
    alg, grid, xi, w = line()
    u = gaussian(1, center=[0.3], modulation=[0.7])
    p = PhasePoint([0.5], [1.2])
    assert abs(l2_norm(weyl(alg, p, u), grid) / l2_norm(u, grid) - 1) < 1e-10


def test_weyl_adjoint_round_trip_h1():
    alg = heisenberg()
    rng = np.random.default_rng(2)
    u = random_gaussian(rng, 3)
    pts = rng.uniform(-1, 1, (10, 3))
    for _ in range(5):
        p = PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        back = weyl_adjoint(alg, p, weyl(alg, p, u))(pts)
        assert np.max(np.abs(back - u(pts))) < 1e-12
        fwd = weyl(alg, p, weyl_adjoint(alg, p, u))(pts)
        assert np.max(np.abs(fwd - u(pts))) < 1e-12


def test_compose_factor_trivial_eta():
    alg = heisenberg()
    rng = np.random.default_rng(3)
    p = PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    q = PhasePoint(rng.uniform(-1, 1, 3), np.zeros(3))
    x = rng.uniform(-1, 1, (7, 3))
    assert np.allclose(weyl_compose_factor(alg, p, q, x), 1.0)


def test_compose_factor_abelian_constant():
    alg = abelian(1)
    p = PhasePoint([0.6], [0.2])
    q = PhasePoint([-0.3], [0.9])
    x = np.linspace(-2, 2, 9)[:, None]
    vals = weyl_compose_factor(alg, p, q, x)
    assert np.max(np.abs(vals - vals[0])) < 1e-14
    assert abs(vals[0] - np.exp(-1j * 0.6 * 0.9)) < 1e-14


def test_weyl_composition_h1():
    alg = heisenberg()
    rng = np.random.default_rng(4)
    u = random_gaussian(rng, 3)
    for _ in range(20):
        p = PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        q = PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        x = rng.uniform(-1.5, 1.5, (5, 3))
        lhs = weyl(alg, p, weyl(alg, q, u))(x)
        comp = PhasePoint(alg.mul(p.zv, q.zv), p.zetav + q.zetav)
        rhs = weyl_compose_factor(alg, p, q, x) * weyl(alg, comp, u)(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_fourier_wigner_at_origin_is_inner_product():
    alg, grid, xi, w = line()
    rng = np.random.default_rng(5)
    u, v = random_gaussian(rng, 1), random_gaussian(rng, 1)
    got = fourier_wigner_at(alg, u, v, grid, PhasePoint.origin(1))
    assert abs(got - inner(u, v, grid)) < 1e-12


def test_fourier_wigner_gaussian_closed_form():
    # FW[w, w](z, zeta) = exp(-(z^2 + zeta^2)/4) exp(i z zeta / 2) for the
    # unit Gaussian window (direct Gaussian integral)
    alg, grid, xi, w = line()
    vals = fourier_wigner(alg, w.field, w.field, grid, xi)
    zn, dn = xi.node_pairs()
    rng = np.random.default_rng(6)
    for _ in range(20):
        i = rng.integers(40, 88)
        j = rng.integers(40, 88)
        z, zeta = zn[i][0], dn[j][0]
        ref = math.exp(-(z * z + zeta * zeta) / 4.0) * np.exp(1j * z * zeta / 2.0)
        assert abs(vals.values[i, j] - ref) < 1e-4


def test_fourier_wigner_factored_vs_direct():
    alg = abelian(1)
    grid = Grid.box(1, 8.0, 48)
    xi = XiGrid.box(1, 8.0, 12)
    rng = np.random.default_rng(7)
    u, v = random_gaussian(rng, 1), random_gaussian(rng, 1)
    fast = fourier_wigner(alg, u, v, grid, xi, method="factored")
    slow = fourier_wigner(alg, u, v, grid, xi, method="direct")
    assert np.max(np.abs(fast.values - slow.values)) < 1e-8
    with pytest.raises(ValueError):
        fourier_wigner(alg, u, v, grid, xi, method="bogus")


def test_fourier_wigner_pointwise_bound():
    alg, grid, xi, w = line()
    rng = np.random.default_rng(8)
    u, v = random_gaussian(rng, 1), random_gaussian(rng, 1)
    vals = fourier_wigner(alg, u, v, grid, xi)
    bound = l2_norm(u, grid) * l2_norm(v, grid)
    assert np.max(np.abs(vals.values)) <= bound * (1 + 1e-10)


def test_orthogonality_relations_abelian():
    alg, grid, xi, w = line()
    rng = np.random.default_rng(9)
    u, up, v, vp = (random_gaussian(rng, 1) for _ in range(4))
    lhs = fourier_wigner(alg, u, v, grid, xi).inner(fourier_wigner(alg, up, vp, grid, xi))
    rhs = inner(u, up, grid) * inner(vp, v, grid)
    assert abs(lhs - rhs) / abs(rhs) < 2e-2


def test_coherent_state_formulas():
    alg, grid, xi, w = line()
    p0 = PhasePoint.origin(1)
    pts = np.linspace(-2, 2, 9)[:, None]
    assert np.allclose(coherent_state(alg, w, p0)(pts), w(pts))
    z, zeta = 0.4, -0.9
    p = PhasePoint([z], [zeta])
    ref = np.exp(-1j * zeta * (z + pts[:, 0])) * w(pts + z)
    assert np.max(np.abs(coherent_state(alg, w, p)(pts) - ref)) < 1e-14
    assert abs(inner(coherent_state(alg, w, p), coherent_state(alg, w, p), grid)
               - 1.0) < 1e-10


def test_projector_properties():
    alg, grid, xi, w = line()
    p = PhasePoint([0.5], [0.8])
    P = projector(alg, w, p)
    assert abs(P.trace() - 1.0) < 2e-2
    assert P.compose(P).frobenius_distance(P) < 5e-2
    state = coherent_state(alg, w, p)(grid.nodes())
    out = P.apply_samples(state)
    assert np.linalg.norm(out - state) / np.linalg.norm(state) < 5e-2


def test_bargmann_isometry_and_inversion():
    alg, grid, xi, w = line()
    rng = np.random.default_rng(10)
    u = random_gaussian(rng, 1)
    bu = bargmann(alg, w, u, xi, grid)
    assert abs(bu.norm() / l2_norm(u, grid) - 1.0) < 2e-2
    rec = bargmann_adjoint(alg, w, bu, grid.nodes())
    ref = u(grid.nodes())
    assert np.linalg.norm(rec - ref) / np.linalg.norm(ref) < 5e-2


def test_bargmann_orthogonal_window_vanishes_at_origin():
    # an odd function is orthogonal to the even window, so B(u)(e, 0) = 0
    alg, grid, xi, w = line()
    from nilquant.fields import Field
    odd = Field(lambda p: p[..., 0] * np.exp(-0.5 * p[..., 0] ** 2), 1)
    val = fourier_wigner_at(alg, odd, w.field, grid, PhasePoint.origin(1))
    assert abs(val) < 1e-12


def test_reproducing_kernel_properties():
    alg, grid, xi, w = line()
    rng = np.random.default_rng(11)
    p = PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
    q = PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
    assert abs(reproducing_kernel(alg, w, p, p) - 1.0) < 1e-10
    assert abs(reproducing_kernel(alg, w, p, q)
               - np.conjugate(reproducing_kernel(alg, w, q, p))) < 1e-12
    assert abs(reproducing_kernel(alg, w, p, q)) <= 1 + 1e-10


def test_reproducing_identity():
    alg, grid, xi, w = line()
    rng = np.random.default_rng(12)
    u = random_gaussian(rng, 1)
    bu = bargmann(alg, w, u, xi, grid)
    scale = float(np.max(np.abs(bu.values)))
    for _ in range(4):
        p = PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        got = reproducing_apply(alg, w, bu, p, grid)
        ref = fourier_wigner_at(alg, u, w.field, grid, p)
        assert abs(got - ref) / scale < 5e-2


def test_resolution_of_identity_mass():
    # integral over Xi of |<w_X, w_Z>|^2 equals 1 for each Z
    alg, grid, xi, w = line()
    p = PhasePoint([0.3], [0.5])
    state = coherent_state(alg, w, p)
    overlaps = bargmann(alg, w, state, xi, grid)
    total = xi.weight * float(np.sum(np.abs(overlaps.values) ** 2))
    assert abs(total - 1.0) < 5e-2


def _h1_nyquist_case(dual_half_width):
    """H1 with half-width 4, 7 operator nodes and a 7-per-axis Xi grid;
    pi/h = 7 pi / 8 = 2.75 on every axis."""
    alg = heisenberg()
    grid = Grid.box(3, 4.0, 7)
    xi = XiGrid.box(3, 4.0, 7, dual_half_width, 7)
    return alg, grid, xi, make_window(alg, grid), gaussian(3, 0.9, [0.1, 0.0, 0.2])


def _nyquist_messages(record):
    return {str(r.message) for r in record if issubclass(r.category, NyquistWarning)}


def test_dual_box_past_nyquist_band_warns():
    alg, grid, xi, w, u = _h1_nyquist_case(4.0)
    with pytest.warns(NyquistWarning) as analysis:
        bu = bargmann(alg, w, u, xi, grid)
    with pytest.warns(NyquistWarning) as synthesis:
        bargmann_adjoint(alg, w, bu, grid.nodes())
    for record in (analysis, synthesis):
        messages = _nyquist_messages(record)
        for axis in range(3):
            assert any(f"axis {axis}" in m and "half-width 4" in m and "2.749" in m
                       for m in messages)
    assert issubclass(NyquistWarning, UserWarning)


def test_dual_box_inside_nyquist_band_is_silent():
    alg, grid, xi, w, u = _h1_nyquist_case(2.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NyquistWarning)
        bu = bargmann(alg, w, u, xi, grid)
        bargmann_adjoint(alg, w, bu, grid.nodes())


@pytest.mark.parametrize("setup", ["line_setup", "plane_setup", "heisenberg_setup"])
def test_default_verify_grids_are_inside_the_nyquist_band(setup):
    from nilquant import verify
    _, grid, xi, _ = getattr(verify, setup)()
    for half, h in zip(xi.dual_grid.half_width, grid.spacing):
        assert half <= math.pi / h


def test_parse_config_accepts_dual_box_past_nyquist_band():
    from nilquant.config import parse_config
    cfg = parse_config({"group": "heisenberg:1",
                        "grid": {"half_width": 4.0, "count": 7},
                        "xi_grid": {"g": {"half_width": 4.0, "count": 7},
                                    "dual": {"half_width": 4.0, "count": 7}}})
    assert cfg.xi_grid.dual_grid.half_width == (4.0, 4.0, 4.0)
