"""Verification suites: every identity the library implements, run at desk
scale with pinned tolerances.

Each suite returns a list of CheckResult; the registry maps stable names
(also the acceptance-criteria numbering) to suite functions.  All randomness
is drawn from a seed recorded in the report; reductions are numpy pairwise
sums over fixed node orders, so reports are reproducible bit-for-bit on a
given platform.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .algebra import abelian, engel, heisenberg
from .berezin import (BerezinConfig, berezin_matrix, berezin_weak, conv_example_kernel,
                      covariance_residual_L, multiplier_field, schatten_bound_check,
                      symbol_integral)
from .ccr import CcrContext, verify_ccr
from .config import DESK_GRIDS
from .coherent import (PhasePoint, bargmann, bargmann_adjoint, fourier_wigner,
                       make_window, projector, reproducing_apply, weyl,
                       weyl_compose_factor)
from .covariant import (berezin_transform, berezin_transform_nodes, cov_full,
                        kernel_from_cov, norm_bound_checks, square_compose)
from .fields import Field, gaussian, random_gaussian
from .grids import Grid, XiGrid
from .magnetic import (circulation, cocycle_residual, gauge_berezin_residual,
                       gauge_translation_residual, grad_potential, landau_potential,
                       linear3_potential, mag_berezin, mag_wigner, stokes_residual,
                       zero_potential)
from .pseudodiff import (berezin_symbol, hs_unitarity_ratio, op_quantize,
                         op_quantize_samples)
from .report import CheckResult, Timer, VerificationReport, tolerance_scale
from .symbols import DeltaSymbol, GaussianSymbol, PhaseSymbol, XOnlySymbol, XiOnlySymbol
from .tau import (berezin_tau, covariance_residual_M, op_quantize_tau, resolve_tau,
                  scaled_tau, symmetric_tau, tau_tilde, weyl_tau)
from .transforms import inner


# ---------------------------------------------------------------------------
# Shared setups
# ---------------------------------------------------------------------------

def line_setup(L: float = DESK_GRIDS[1][0], N: int = DESK_GRIDS[1][1]):
    """Abelian n=1 desk defaults (`config.DESK_GRIDS`)."""
    alg = abelian(1)
    grid = Grid.box(1, L, N)
    xi = XiGrid.box(1, L, N)
    return alg, grid, xi, make_window(alg, grid)


def plane_setup(L: float = DESK_GRIDS[2][0], N: int = DESK_GRIDS[2][1]):
    """Abelian n=2 desk defaults (`config.DESK_GRIDS`)."""
    alg = abelian(2)
    grid = Grid.box(2, L, N)
    xi = XiGrid.box(2, L, N)
    return alg, grid, xi, make_window(alg, grid)


def heisenberg_setup(L: float = DESK_GRIDS[3][0], N_xi: int = DESK_GRIDS[3][1],
                     N_op: int = DESK_GRIDS[3][2]):
    """H1 desk defaults (`config.DESK_GRIDS`): N_xi per axis for Xi
    quadrature, N_op for kernels."""
    alg = heisenberg()
    grid = Grid.box(3, L, N_op)
    xi = XiGrid.box(3, L, N_xi)
    return alg, grid, xi, make_window(alg, grid)


def standard_symbol(n: int, amp: float = 1.0, seed=None) -> GaussianSymbol:
    if seed is None:
        return GaussianSymbol.make(n, amplitude=amp)
    rng = np.random.default_rng(seed)
    return GaussianSymbol.make(
        n, amplitude=amp,
        x_center=rng.uniform(-0.4, 0.4, n), x_sigma=rng.uniform(0.9, 1.2),
        xi_center=rng.uniform(-0.4, 0.4, n), xi_sigma=rng.uniform(0.9, 1.2))


def _check(results, name, residual, tol, timer, tol_scale=1.0, **detail):
    results.append(CheckResult(name, float(residual), tol * tol_scale,
                               getattr(timer, "seconds", 0.0), detail=detail))


# ---------------------------------------------------------------------------
# Matrix-exponential oracles for BCH
# ---------------------------------------------------------------------------

def _nilpotent_expm(M: np.ndarray) -> np.ndarray:
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, M.shape[0]):
        term = term @ M / k
        out = out + term
    return out


def _nilpotent_logm(G: np.ndarray) -> np.ndarray:
    N = G - np.eye(G.shape[0])
    out = np.zeros_like(N)
    term = np.eye(G.shape[0])
    for k in range(1, G.shape[0]):
        term = term @ N
        out = out + ((-1) ** (k + 1) / k) * term
    return out


def h1_matrix(x) -> np.ndarray:
    a, b, c = x
    return np.array([[0.0, a, c], [0.0, 0.0, b], [0.0, 0.0, 0.0]])


def h1_coords(L) -> np.ndarray:
    return np.array([L[0, 1], L[1, 2], L[0, 2]])


_ENGEL_BASIS = None


def engel_matrix(x) -> np.ndarray:
    # e1 = E12+E23+E34, e2 = E23, e3 = E13-E24, e4 = -2 E14: a faithful
    # strictly-upper realization of [e1,e2]=e3, [e1,e3]=e4.
    global _ENGEL_BASIS
    if _ENGEL_BASIS is None:
        E = [np.zeros((4, 4)) for _ in range(4)]
        E[0][0, 1] = E[0][1, 2] = E[0][2, 3] = 1.0
        E[1][1, 2] = 1.0
        E[2][0, 2], E[2][1, 3] = 1.0, -1.0
        E[3][0, 3] = -2.0
        _ENGEL_BASIS = E
    return sum(float(c) * M for c, M in zip(x, _ENGEL_BASIS))


def engel_coords(L) -> np.ndarray:
    x1 = L[0, 1]
    return np.array([x1, L[1, 2] - x1, L[0, 2], -L[0, 3] / 2.0])


def bch_matrix_oracle(to_matrix, to_coords, x, y) -> np.ndarray:
    G = _nilpotent_expm(to_matrix(x)) @ _nilpotent_expm(to_matrix(y))
    return to_coords(_nilpotent_logm(G))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_bch(seed: int = 0, tol_scale: float = 1.0) -> list[CheckResult]:
    """1. BCH vs matrix-exponential oracles and associativity."""
    results = []
    rng = np.random.default_rng(seed)
    cases = [("h1", heisenberg(), h1_matrix, h1_coords),
             ("engel", engel(), engel_matrix, engel_coords)]
    for tag, alg, to_m, to_c in cases:
        with Timer() as t:
            worst = 0.0
            for _ in range(100):
                x = rng.uniform(-1, 1, alg.dim)
                y = rng.uniform(-1, 1, alg.dim)
                worst = max(worst, float(np.max(np.abs(
                    alg.bch(x, y) - bch_matrix_oracle(to_m, to_c, x, y)))))
        _check(results, f"bch_oracle_{tag}", worst, 1e-10, t, tol_scale)
    for tag, alg, *_ in cases:
        with Timer() as t:
            worst = 0.0
            for _ in range(100):
                x, y, z = rng.uniform(-1, 1, (3, alg.dim))
                worst = max(worst, float(np.max(np.abs(
                    alg.bch(alg.bch(x, y), z) - alg.bch(x, alg.bch(y, z))))))
        _check(results, f"bch_associativity_{tag}", worst, 1e-10, t, tol_scale)
    return results


def suite_ccr(seed: int = 1, tol_scale: float = 1.0) -> list[CheckResult]:
    """2. Multiplication and commutation relations on abelian:1 and H1."""
    results = []
    for tag, alg in [("abelian", abelian(1)), ("h1", heisenberg())]:
        grid = Grid.box(alg.dim, 10.0 if alg.dim == 1 else 4.0,
                        128 if alg.dim == 1 else 11)
        for res in verify_ccr(CcrContext(alg, grid), samples=3, seed=seed,
                              tol_scale=tol_scale):
            res.name = f"{tag}_{res.name}"
            results.append(res)
    return results


def suite_weyl(seed: int = 2, tol_scale: float = 1.0) -> list[CheckResult]:
    """3. The composition law of the Weyl system, pointwise on H1."""
    results = []
    alg = heisenberg()
    rng = np.random.default_rng(seed)
    u = random_gaussian(rng, 3)
    with Timer() as t:
        worst = 0.0
        for _ in range(20):
            p = PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
            q = PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
            x = rng.uniform(-1.5, 1.5, (5, 3))
            lhs = weyl(alg, p, weyl(alg, q, u))(x)
            comp = PhasePoint(alg.mul(p.zv, q.zv), p.zetav + q.zetav)
            rhs = weyl_compose_factor(alg, p, q, x) * weyl(alg, comp, u)(x)
            scale = max(float(np.max(np.abs(rhs))), 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    _check(results, "weyl_composition_h1", worst, 1e-12, t, tol_scale)
    return results


def _orthogonality_residual(alg, grid, xi, rng, n, scale_c, scale_m) -> float:
    fields = [random_gaussian(rng, n, scale_c, scale_m) for _ in range(4)]
    u, up, v, vp = fields
    wu = fourier_wigner(alg, u, v, grid, xi)
    wup = fourier_wigner(alg, up, vp, grid, xi)
    lhs = wu.inner(wup)
    rhs = inner(u, up, grid) * inner(vp, v, grid)
    return abs(lhs - rhs) / abs(rhs)


def suite_orthogonality(seed: int = 3, tol_scale: float = 1.0) -> list[CheckResult]:
    """4. Orthogonality relations of the Fourier-Wigner transform."""
    results = []
    rng = np.random.default_rng(seed)
    alg, grid, xi, _ = line_setup()
    with Timer() as t:
        worst = max(_orthogonality_residual(alg, grid, xi, rng, 1, 1.0, 1.0)
                    for _ in range(3))
    _check(results, "orthogonality_abelian", worst, 2e-2, t, tol_scale)
    alg, grid, xi, _ = heisenberg_setup()
    with Timer() as t:
        worst = max(_orthogonality_residual(alg, grid, xi, rng, 3, 0.3, 0.3)
                    for _ in range(2))
    _check(results, "orthogonality_h1", worst, 5e-2, t, tol_scale)
    return results


def _inversion_residual(alg, grid, xi, w, u) -> float:
    bu = bargmann(alg, w, u, xi, grid)
    nodes = grid.nodes()
    rec = bargmann_adjoint(alg, w, bu, nodes)
    ref = u(nodes)
    return float(np.linalg.norm(rec - ref) / np.linalg.norm(ref))


def suite_inversion(seed: int = 4, tol_scale: float = 1.0) -> list[CheckResult]:
    """5. Inversion formula and the reproducing identity."""
    results = []
    rng = np.random.default_rng(seed)

    alg, grid, xi, w = line_setup()
    u = random_gaussian(rng, 1)
    with Timer() as t:
        res = _inversion_residual(alg, grid, xi, w, u)
    _check(results, "inversion_abelian", res, 5e-2, t, tol_scale)
    with Timer() as t:
        bu = bargmann(alg, w, u, xi, grid)
        scale = float(np.max(np.abs(bu.values)))
        worst = 0.0
        for _ in range(6):
            p = PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
            worst = max(worst, abs(reproducing_apply(alg, w, bu, p, grid)
                                   - inner(weyl(alg, p, u), w.field, grid)) / scale)
    _check(results, "reproducing_abelian", worst, 5e-2, t, tol_scale)

    alg, grid, xi, w = heisenberg_setup()
    u = random_gaussian(rng, 3, 0.3, 0.3)
    with Timer() as t:
        res = _inversion_residual(alg, grid, xi, w, u)
    _check(results, "inversion_h1", res, 5e-2, t, tol_scale)
    with Timer() as t:
        bu = bargmann(alg, w, u, xi, grid)
        scale = float(np.max(np.abs(bu.values)))
        worst = 0.0
        for _ in range(3):
            p = PhasePoint(rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3))
            worst = max(worst, abs(reproducing_apply(alg, w, bu, p, grid)
                                   - inner(weyl(alg, p, u), w.field, grid)) / scale)
    _check(results, "reproducing_h1", worst, 5e-2, t, tol_scale)
    return results


def suite_berezin_core(seed: int = 5, tol_scale: float = 1.0) -> list[CheckResult]:
    """6. Ber(1) = Id, trace formula, hermiticity, positivity, Schatten bounds."""
    results = []
    rng = np.random.default_rng(seed)
    alg, grid, xi, w = line_setup()
    one = XOnlySymbol(Field(lambda p: np.ones(p.shape[:-1]), 1), 1)
    cfg_one = BerezinConfig(alg, w, grid, xi, one)

    with Timer() as t:
        op_one = berezin_matrix(cfg_one)
        worst = 0.0
        for _ in range(5):
            u = random_gaussian(rng, 1)
            uv = u(grid.nodes())
            worst = max(worst, float(np.linalg.norm(op_one.apply_samples(uv) - uv)
                                     / np.linalg.norm(uv)))
    _check(results, "berezin_identity", worst, 5e-2, t, tol_scale)

    with Timer() as t:
        worst = 0.0
        for _ in range(3):
            u = random_gaussian(rng, 1)
            v = random_gaussian(rng, 1)
            got = berezin_weak(cfg_one, u, v)
            ref = inner(u, v, grid)
            worst = max(worst, abs(got - ref) / abs(ref))
    _check(results, "berezin_identity_weak", worst, 5e-2, t, tol_scale)

    sym = standard_symbol(1, amp=1.0, seed=seed)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    with Timer() as t:
        op = berezin_matrix(cfg)
        tr = op.trace()
        ref = symbol_integral(cfg)
    _check(results, "berezin_trace_formula", abs(tr - ref) / abs(ref), 2e-2, t, tol_scale)

    with Timer() as t:
        herm = op.hermiticity_residual()
    _check(results, "berezin_hermiticity", herm, 1e-10, t, tol_scale)

    with Timer() as t:
        mineig = op.min_eigenvalue()
        res = max(0.0, -mineig) / sym.lp_norm(math.inf)
    _check(results, "berezin_positivity", res, 1e-8, t, tol_scale)

    with Timer() as t:
        worst = 0.0
        for s in (1.0, 2.0, math.inf):
            rep = schatten_bound_check(cfg, s, matrix=op)
            worst = max(worst, max(0.0, rep["ratio"] - rep["bound"]) / rep["bound"])
    _check(results, "berezin_schatten_bounds", worst, 5e-2, t, tol_scale)

    with Timer() as t:
        worst = 0.0
        vol = grid.weight
        for _ in range(10):
            u = random_gaussian(rng, 1)
            v = random_gaussian(rng, 1)
            weak = berezin_weak(cfg, u, v)
            mat = complex(vol * np.vdot(v(grid.nodes()),
                                        op.apply_samples(u(grid.nodes()))))
            worst = max(worst, abs(weak - mat) / abs(mat))
    _check(results, "berezin_weak_vs_matrix", worst, 1e-8, t, tol_scale)

    with Timer() as t:
        sv = op.singular_values()
        k = max(1, int(0.1 * len(sv)))
        ratio = float(sv[k] / sv[0])
    _check(results, "berezin_compactness_decay", ratio, 1e-3, t, tol_scale)
    return results


def suite_berezin_examples(seed: int = 6, tol_scale: float = 1.0) -> list[CheckResult]:
    """7. The multiplication, convolution and point-mass examples."""
    results = []
    rng = np.random.default_rng(seed)
    alg, grid, xi, w = line_setup()

    phi = gaussian(1, sigma=1.3, amplitude=1.0)
    mult_sym = XOnlySymbol(phi, 1)
    cfg = BerezinConfig(alg, w, grid, xi, mult_sym)
    with Timer() as t:
        m = multiplier_field(alg, w, phi, xi.g_grid)
        worst = 0.0
        for _ in range(3):
            u = random_gaussian(rng, 1)
            v = random_gaussian(rng, 1)
            weak = berezin_weak(cfg, u, v)
            ref = inner(m * u, v, grid)
            worst = max(worst, abs(weak - ref) / abs(ref))
    _check(results, "example_multiplier", worst, 5e-2, t, tol_scale)

    psi_sym = XiOnlySymbol.gaussian(1, sigma=1.1)
    cfg_psi = BerezinConfig(alg, w, grid, xi, psi_sym)
    with Timer() as t:
        closed = berezin_matrix(cfg_psi)
        numeric = conv_example_kernel(cfg_psi, Field(psi_sym.psi, 1, "dual"))
        res = closed.frobenius_distance(numeric)
    _check(results, "example_convolution", res, 5e-2, t, tol_scale)

    with Timer() as t:
        p = PhasePoint([0.4], [-0.7])
        delta = DeltaSymbol.at(p.zv, p.zetav)
        op = berezin_matrix(BerezinConfig(alg, w, grid, xi, delta))
        ref = projector(alg, w, p)
        res = float(np.max(np.abs(op.kernel - ref.kernel)))
        special = bool(op.meta.get("delta_symbol"))
    _check(results, "example_delta_projector", res if special else math.inf,
           1e-14, t, tol_scale, special_path=special)
    return results


def suite_covariance(seed: int = 7, tol_scale: float = 1.0) -> list[CheckResult]:
    """8. Translation covariance of Ber and modulation covariance of Ber_id."""
    results = []
    alg, grid, xi, w = line_setup()
    sym = standard_symbol(1, seed=seed)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    with Timer() as t:
        res = covariance_residual_L(cfg, np.array([1.0]))
    _check(results, "covariance_L_abelian", res, 5e-2, t, tol_scale)
    with Timer() as t:
        res = covariance_residual_M(cfg, np.array([1.0]))
    _check(results, "covariance_M_abelian", res, 5e-2, t, tol_scale)

    alg, grid, xi, w = heisenberg_setup(N_op=9)
    sym = standard_symbol(3)
    cfg = BerezinConfig(alg, w, grid, xi, sym)
    with Timer() as t:
        res = covariance_residual_L(cfg, np.array([0.5, 0.0, 0.0]))
    _check(results, "covariance_L_h1", res, 5e-2, t, tol_scale)
    with Timer() as t:
        res = covariance_residual_M(cfg, np.array([0.0, 0.0, 0.5]))
    _check(results, "covariance_M_h1", res, 5e-2, t, tol_scale)
    return results


def suite_covariant(seed: int = 8, tol_scale: float = 1.0) -> list[CheckResult]:
    """9. Covariant symbols: box composition, norm bounds, Berezin transform,
    kernel reconstruction."""
    results = []
    rng = np.random.default_rng(seed)
    alg, grid, xi, w = line_setup()
    coarse = XiGrid.box(1, 10.0, 24)
    symS = standard_symbol(1, seed=seed)
    symT = standard_symbol(1, seed=seed + 1)
    S = berezin_matrix(BerezinConfig(alg, w, grid, xi, symS))
    T = berezin_matrix(BerezinConfig(alg, w, grid, xi, symT))

    with Timer() as t:
        covS = cov_full(S, alg, w, coarse)
        covT = cov_full(T, alg, w, coarse)
        covST = cov_full(S.compose(T), alg, w, coarse)
        box = square_compose(covT, covS)
        scale = float(np.max(np.abs(covST.values)))
        res = float(np.max(np.abs(covST.values - box.values))) / scale
    _check(results, "covariant_box_composition", res, 5e-2, t, tol_scale)

    with Timer() as t:
        worst = 0.0
        for rep in norm_bound_checks(T, alg, w, xi, (1.0, 2.0, math.inf)):
            worst = max(worst, max(0.0, rep["ratio"] - 1.0))
    _check(results, "covariant_norm_bounds", worst, 5e-2, t, tol_scale)

    cfg = BerezinConfig(alg, w, grid, xi, symT)
    with Timer() as t:
        p0 = PhasePoint([0.3], [-0.2])
        one = XOnlySymbol(Field(lambda q: np.ones(q.shape[:-1]), 1), 1)
        bt_one = berezin_transform(BerezinConfig(alg, w, grid, xi, one), p0)
        res = abs(bt_one - 1.0)
    _check(results, "berezin_transform_unit", res, 5e-2, t, tol_scale)

    with Timer() as t:
        coarse_bt = XiGrid.box(1, 10.0, 16)
        bt_vals = berezin_transform_nodes(cfg, coarse_bt)
        mass = coarse_bt.weight * float(np.sum(np.real(bt_vals)))
        ref = symbol_integral(cfg).real
        res = abs(mass - ref) / abs(ref)
    _check(results, "berezin_transform_mass", res, 2e-2, t, tol_scale)

    with Timer() as t:
        # coarse Xi grid; dual box capped at the small grid's Nyquist band
        small_grid = Grid.box(1, 10.0, 32)
        assembly_xi = XiGrid.box(1, 10.0, 32, dual_half_width=5.0)
        coarse_xi = XiGrid.box(1, 10.0, 16, dual_half_width=5.0)
        w32 = make_window(alg, small_grid)
        cfg32 = BerezinConfig(alg, w32, small_grid, assembly_xi, symT)
        T32 = berezin_matrix(cfg32)
        C = cov_full(T32, alg, w32, coarse_xi)
        rec = kernel_from_cov(C, alg, small_grid)
        res = rec.frobenius_distance(T32)
    _check(results, "covariant_kernel_reconstruction", res, 1e-1, t, tol_scale)
    return results


def suite_pseudodiff(seed: int = 9, tol_scale: float = 1.0) -> list[CheckResult]:
    """10. HS unitarity, Op(eps) = W, Ber = Op(a(f)), Abelian convolution form."""
    results = []
    rng = np.random.default_rng(seed)
    alg, grid, xi, w = line_setup()
    sym = standard_symbol(1, seed=seed)
    cfg = BerezinConfig(alg, w, grid, xi, sym)

    with Timer() as t:
        ratio = hs_unitarity_ratio(cfg)
    _check(results, "op_hs_unitarity", abs(ratio - 1.0), 2e-2, t, tol_scale)

    with Timer() as t:
        p = PhasePoint([0.6], [-1.1])
        eps = PhaseSymbol.at(p.zv, p.zetav)
        special = op_quantize(alg, eps, grid)
        u = random_gaussian(rng, 1)
        pts = rng.uniform(-2, 2, (40, 1))
        lhs = special.apply(u)(pts)
        rhs = weyl(alg, p, u)(pts)
        res = float(np.max(np.abs(lhs - rhs))) / float(np.max(np.abs(rhs)))
    _check(results, "op_weyl_phase_symbol", res, 1e-8, t, tol_scale)

    with Timer() as t:
        ber = berezin_matrix(cfg)
        dual = xi.dual_grid
        rec = berezin_symbol(cfg, grid.nodes(), dual.nodes(), route="kernel")
        op = op_quantize_samples(alg, rec.values, grid, dual)
        res = op.frobenius_distance(ber)
    _check(results, "op_of_berezin_symbol", res, 5e-2, t, tol_scale)

    with Timer() as t:
        xs = np.linspace(-1.0, 1.0, 5)[:, None]
        xis = np.linspace(-1.0, 1.0, 5)[:, None]
        direct = berezin_symbol(cfg, xs, xis, route="direct")
        kern = berezin_symbol(cfg, xs, xis, route="kernel")
        scale = float(np.max(np.abs(kern.values)))
        res = float(np.max(np.abs(direct.values - kern.values))) / scale
    _check(results, "berezin_symbol_two_routes", res, 1e-6, t, tol_scale)

    with Timer() as t:
        res = _eren_convolution_residual(cfg, kern, xs, xis)
    _check(results, "abelian_convolution_form", res, 5e-2, t, tol_scale)
    return results


def _eren_convolution_residual(cfg, recovered, xs, xis) -> float:
    """Abelian-only oracle: the symbol of Ber(f) is a convolution

        a(x, xi) = integral integral Lam(s, eta) f(s - x, eta - xi) ds d(eta),
        Lam(s, eta) = integral e^{-i<y|eta>} omega(s) conj(omega(s - y)) dy,

    evaluated by quadrature independent of the kernel machinery.
    """
    alg, w, grid, xi = cfg.algebra, cfg.window, cfg.g_grid, cfg.xi_grid
    s_nodes = grid.nodes()
    eta_nodes = xi.dual_grid.nodes()
    y = grid.nodes()
    ws = w(s_nodes)
    # Lam[s, eta] = omega(s) * transform_y[conj(omega(s - y))](eta)
    kern = np.conjugate(w(s_nodes[:, None, :] - y[None, :, :]))
    phases = np.exp(-1j * (y @ eta_nodes.T))
    Lam = ws[:, None] * (grid.weight * (kern @ phases))
    worst = 0.0
    scale = float(np.max(np.abs(recovered.values)))
    for a, x in enumerate(xs):
        for b, xv in enumerate(xis):
            f_shift = cfg.symbol(s_nodes[:, None, :] - x[None, None, :],
                                 eta_nodes[None, :, :] - xv[None, None, :])
            val = grid.weight * xi.dual_grid.weight * np.sum(Lam * f_shift)
            worst = max(worst, abs(val - recovered.values[a, b]) / scale)
    return worst


def suite_tau(seed: int = 10, tol_scale: float = 1.0) -> list[CheckResult]:
    """11. Ordering maps: adjoint identity, symmetric fixed point, reductions."""
    results = []
    rng = np.random.default_rng(seed)

    alg = heisenberg()
    tau_s = symmetric_tau(alg)
    with Timer() as t:
        pts = rng.uniform(-2, 2, (100, 3))
        res = float(np.max(np.abs(tau_tilde(alg, tau_s)(pts) - tau_s(pts))))
    _check(results, "tau_symmetric_fixed_point", res, 1e-12, t, tol_scale)

    with Timer() as t:
        tau_half = scaled_tau(0.35)
        twice = tau_tilde(alg, tau_tilde(alg, tau_half))
        res = float(np.max(np.abs(twice(pts) - tau_half(pts))))
    _check(results, "tau_tilde_involution", res, 1e-12, t, tol_scale)

    alg1, grid1, xi1, w1 = line_setup(N=64)
    sym_c = GaussianSymbol.make(1, amplitude=0.8 + 0.4j, x_center=[0.2],
                                x_phase=[0.5], xi_center=[-0.3], xi_phase=[0.3])
    with Timer() as t:
        tau = scaled_tau(0.5)
        lhs = op_quantize_tau(alg1, sym_c, tau, grid1).adjoint()
        rhs = op_quantize_tau(alg1, sym_c.conjugate(), tau_tilde(alg1, tau), grid1)
        res = lhs.frobenius_distance(rhs)
    _check(results, "tau_adjoint_identity_abelian", res, 1e-10, t, tol_scale)

    algH = heisenberg()
    gridH = Grid.box(3, 4.0, 7)
    sym_cH = GaussianSymbol.make(3, amplitude=1.0 - 0.2j, x_phase=[0.3, 0.0, 0.1],
                                 xi_phase=[0.0, 0.4, 0.0])
    with Timer() as t:
        tauH = symmetric_tau(algH)
        lhs = op_quantize_tau(algH, sym_cH, tauH, gridH).adjoint()
        rhs = op_quantize_tau(algH, sym_cH.conjugate(), tau_tilde(algH, tauH), gridH)
        res = lhs.frobenius_distance(rhs)
    _check(results, "tau_adjoint_identity_h1", res, 1e-10, t, tol_scale)

    symH = standard_symbol(3)
    with Timer() as t:
        herm = op_quantize_tau(algH, symH, tauH, gridH).hermiticity_residual()
    _check(results, "tau_symmetric_hermitian", herm, 1e-10, t, tol_scale)

    with Timer() as t:
        cfg1 = BerezinConfig(alg1, w1, grid1, xi1, standard_symbol(1, seed=seed))
        tau_e = resolve_tau(alg1, "e")
        plain = berezin_matrix(cfg1)
        via_tau = berezin_tau(cfg1, tau_e)
        bitwise = bool(np.array_equal(plain.kernel, via_tau.kernel))
        u = random_gaussian(rng, 1)
        p = PhasePoint([0.3], [0.4])
        pts = rng.uniform(-2, 2, (20, 1))
        bitwise &= bool(np.array_equal(weyl_tau(alg1, tau_e, p, u)(pts),
                                       weyl(alg1, p, u)(pts)))
    _check(results, "tau_trivial_reduction_bitwise", 0.0 if bitwise else math.inf,
           0.0, t, tol_scale, bitwise=bitwise)
    return results


def suite_magnetic(seed: int = 11, tol_scale: float = 1.0) -> list[CheckResult]:
    """12. Cocycle, Stokes, zero-field reductions, gauge covariance and the
    circulation rule sized to each potential's degree."""
    results = []
    rng = np.random.default_rng(seed)

    alg2 = abelian(2)
    A2 = landau_potential(0.7)
    u2 = gaussian(2)
    with Timer() as t:
        res = cocycle_residual(alg2, A2, u2, rng.uniform(-1, 1, 2),
                               rng.uniform(-1, 1, 2), rng.uniform(-1.5, 1.5, (10, 2)))
    _check(results, "magnetic_cocycle_abelian", res, 1e-8, t, tol_scale)

    algH = heisenberg()
    AH = linear3_potential(0.5)
    uH = gaussian(3)
    with Timer() as t:
        res = cocycle_residual(algH, AH, uH, rng.uniform(-1, 1, 3),
                               rng.uniform(-1, 1, 3), rng.uniform(-1.5, 1.5, (10, 3)))
    _check(results, "magnetic_cocycle_h1", res, 1e-8, t, tol_scale)

    with Timer() as t:
        worst = 0.0
        for g, A in ((alg2, A2), (algH, AH)):
            for _ in range(5):
                worst = max(worst, stokes_residual(
                    g, A, rng.uniform(-1, 1, g.dim), rng.uniform(-1, 1, g.dim),
                    rng.uniform(-1, 1, g.dim)))
    _check(results, "magnetic_stokes", worst, 1e-8, t, tol_scale)

    alg2b, grid2, xi2, w2 = plane_setup()
    sym2 = standard_symbol(2)
    cfg2 = BerezinConfig(alg2b, w2, grid2, xi2, sym2)
    with Timer() as t:
        plain = berezin_matrix(cfg2)
        via_zero = mag_berezin(cfg2, zero_potential(2))
        bitwise = bool(np.array_equal(plain.kernel, via_zero.kernel))
    _check(results, "magnetic_zero_field_reduction", 0.0 if bitwise else math.inf,
           0.0, t, tol_scale, bitwise=bitwise)

    with Timer() as t:
        A2b = landau_potential(0.4)
        op = mag_berezin(cfg2, A2b)
        tr = op.trace()
        ref = symbol_integral(cfg2)
        res = abs(tr - ref) / abs(ref)
    _check(results, "magnetic_trace_formula", res, 2e-2, t, tol_scale)

    with Timer() as t:
        worst = 0.0
        for _ in range(2):
            u = random_gaussian(rng, 2, 0.5, 0.5)
            v = random_gaussian(rng, 2, 0.5, 0.5)
            wu = mag_wigner(alg2b, A2b, u, w2.field, grid2, xi2)
            wv = mag_wigner(alg2b, A2b, v, w2.field, grid2, xi2)
            got = wu.inner(wv)
            ref = inner(u, v, grid2)
            worst = max(worst, abs(got - ref) / abs(ref))
    _check(results, "magnetic_identity_weak", worst, 5e-2, t, tol_scale)

    psi2 = Field(lambda p: p[..., 0] * p[..., 1], 2)

    def grad2(p):
        return p[..., ::-1].copy()

    z2, points2 = rng.uniform(-1, 1, 2), rng.uniform(-1.5, 1.5, (10, 2))
    with Timer() as t:
        res = gauge_translation_residual(cfg2, A2b, psi2, z2, points2, analytic_grad=grad2,
                                         grad_degree=1)
    _check(results, "magnetic_gauge_translation", res, 1e-8, t, tol_scale)
    with Timer() as t:
        res = gauge_berezin_residual(cfg2, A2b, psi2, analytic_grad=grad2, grad_degree=1)
    _check(results, "magnetic_gauge_berezin_abelian", res, 5e-2, t, tol_scale)

    algH2, gridH, xiH, wH = heisenberg_setup(N_op=9)
    symH = standard_symbol(3)
    cfgH = BerezinConfig(algH2, wH, gridH, xiH, symH)
    AH2 = linear3_potential(0.4)
    psiH = Field(lambda p: 0.5 * p[..., 0] * p[..., 1] + 0.3 * p[..., 2], 3)

    def gradH(p):
        out = np.empty_like(p)
        out[..., 0] = 0.5 * p[..., 1]
        out[..., 1] = 0.5 * p[..., 0]
        out[..., 2] = 0.3
        return out

    zH, pointsH = rng.uniform(-0.8, 0.8, 3), rng.uniform(-1.5, 1.5, (10, 3))
    with Timer() as t:
        res = gauge_translation_residual(cfgH, AH2, psiH, zH, pointsH, analytic_grad=gradH,
                                         grad_degree=1)
    _check(results, "magnetic_gauge_translation_h1", res, 1e-8, t, tol_scale)
    with Timer() as t:
        res = gauge_berezin_residual(cfgH, AH2, psiH, analytic_grad=gradH, grad_degree=1)
    _check(results, "magnetic_gauge_berezin_h1", res, 5e-2, t, tol_scale)

    # the rule sized to each potential's degree against the GL_ORDER rule it
    # replaced, for every potential above, on segments across the grid boxes
    with Timer() as t:
        worst = 0.0
        for n, A in ((2, A2), (3, AH), (2, A2b), (3, AH2),
                     (2, A2b + grad_potential(psi2, analytic_grad=grad2, degree=1)),
                     (3, AH2 + grad_potential(psiH, analytic_grad=gradH, degree=1))):
            x, y = rng.uniform(-4.0, 4.0, (2, 200, n))
            full = circulation(dataclasses.replace(A, degree=None), x, y)
            gap = np.max(np.abs(circulation(A, x, y) - full)) / np.max(np.abs(full))
            worst = max(worst, float(gap))
    _check(results, "magnetic_circulation_rule", worst, 1e-12, t, tol_scale)
    return results


def suite_convergence(seed: int = 12, tol_scale: float = 1.0) -> list[CheckResult]:
    """13. Doubling N on a deliberately coarse abelian grid cuts the residuals
    of the orthogonality, inversion and Berezin-core checks by at least 2x.

    The default N=128 grids already sit at the roundoff floor, where halving
    is vacuous; the coarse start keeps the error quadrature-limited.  Each
    grid's dual box scales with it, at 0.95 of its Nyquist band pi/h, so the
    residuals measure quadrature error and not aliasing.
    """
    results = []

    def residuals(N):
        rng = np.random.default_rng(seed)
        alg, grid, _, w = line_setup(L=8.0, N=N)
        xi = XiGrid.box(1, 8.0, N, dual_half_width=0.95 * math.pi / grid.spacing[0])
        r4 = _orthogonality_residual(alg, grid, xi, rng, 1, 0.5, 0.5)
        u = random_gaussian(rng, 1, 0.5, 0.5)
        r5 = _inversion_residual(alg, grid, xi, w, u)
        sym = GaussianSymbol.make(1)
        cfg = BerezinConfig(alg, w, grid, xi, sym)
        op = berezin_matrix(cfg)
        tr_res = abs(op.trace() - symbol_integral(cfg)) / abs(symbol_integral(cfg))
        m = multiplier_field(alg, w, Field(lambda p: np.ones(p.shape[:-1]), 1), xi.g_grid)
        uv = u(grid.nodes())
        id_res = float(np.linalg.norm(m(grid.nodes()) * uv - uv) / np.linalg.norm(uv))
        return {"orthogonality": r4, "inversion": r5,
                "berezin": max(tr_res, id_res)}

    with Timer() as t:
        coarse = residuals(12)
        fine = residuals(24)
    for key in coarse:
        ratio = fine[key] / coarse[key] if coarse[key] > 0 else 0.0
        _check(results, f"convergence_{key}", ratio, 0.5, t, tol_scale,
               coarse=coarse[key], fine=fine[key])
    return results


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITES = {
    "bch": suite_bch,
    "ccr": suite_ccr,
    "weyl": suite_weyl,
    "orthogonality": suite_orthogonality,
    "inversion": suite_inversion,
    "berezin-core": suite_berezin_core,
    "berezin-examples": suite_berezin_examples,
    "covariance": suite_covariance,
    "covariant": suite_covariant,
    "pseudodiff": suite_pseudodiff,
    "tau": suite_tau,
    "magnetic": suite_magnetic,
    "convergence": suite_convergence,
}

CRITERIA = list(SUITES)  # acceptance numbering: 1-based index into this list


def run_suites(names, seed: int = 0, tol_scale: float = 1.0) -> VerificationReport:
    """Run named suites (or "all") and aggregate into one report; a bad
    tolerance scale raises ValueError (`report.tolerance_scale`)."""
    tol_scale = tolerance_scale(tol_scale)
    if isinstance(names, str):
        names = [names]
    if not names:
        raise ValueError("no suite names given")
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)} or 'all'")
    report = VerificationReport(suite="+".join(names), seed=seed, tol_scale=tol_scale)
    for name in expanded:
        base_seed = seed + CRITERIA.index(name)
        for res in SUITES[name](seed=base_seed, tol_scale=tol_scale):
            res.name = f"{name}/{res.name}"
            report.checks.append(res)
    return report
