"""The four benchmark workloads.

Each workload builds its inputs in `setup`, hands out one round of
operations at a time (`ops`), and checks every output (`check`) against the
independent computations in `reference.py` or against a property the method
must have.  `controls` feeds each checker a deliberately corrupted output and
reports whether the checker rejected it, so that no check passes vacuously.

Round r draws its inputs from numpy's generator seeded with (seed, r), so a
seed fixes every input of a run.  Every round performs the same operations
on inputs of the same sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

# Library entry points are called through their modules, so that the traced
# run's wrappers (installed as module attributes) see every call.
from nilquant import algebra, berezin, cli, coherent, covariant, magnetic, pseudodiff, tau
from nilquant.algebra import abelian, heisenberg
from nilquant.berezin import BerezinConfig
from nilquant.coherent import PhasePoint, make_window
from nilquant.fields import gaussian
from nilquant.grids import Grid, XiGrid
from nilquant.magnetic import linear3_potential, zero_potential
from nilquant.symbols import GaussianSymbol
from nilquant.tau import symmetric_tau, tau_e

import reference as ref


@dataclass
class Check:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.residual) and self.residual <= self.tol)


def _gaussian_symbol_params(rng, n, center, sigma) -> dict:
    return {"amplitude": float(rng.uniform(0.5, 2.0)),
            "x_center": rng.uniform(-center, center, n), "x_sigma": float(rng.uniform(*sigma)),
            "xi_center": rng.uniform(-center, center, n), "xi_sigma": float(rng.uniform(*sigma))}


def _library_symbol(p: dict, n: int) -> GaussianSymbol:
    return GaussianSymbol.make(n, amplitude=p["amplitude"], x_center=p["x_center"],
                               x_sigma=p["x_sigma"], xi_center=p["xi_center"],
                               xi_sigma=p["xi_sigma"])


def _rel_max(a, b, scale) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.inputs = {}
        self.last = {}

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r])

    def setup(self):
        raise NotImplementedError

    def ops(self, r: int):
        """[(label, callable)] for round r; the callables do only library work."""
        raise NotImplementedError

    def check(self, label: str, out, r: int) -> list[Check]:
        raise NotImplementedError

    def final_checks(self) -> list[Check]:
        return []

    def controls(self) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# berezin-h1: kernel assembly for Ber, Ber_tau and Ber^A on H1
# ---------------------------------------------------------------------------

class BerezinH1(Workload):
    name = "berezin-h1"
    X = (4.5, 7)     # operator grid: half-width, nodes per axis (m = 343)
    Z = (3.5, 5)     # z-quadrature of the kernel assembly (125 nodes)
    ENTRIES = 6      # sampled kernel entries checked per operation

    def setup(self):
        self.alg = heisenberg()
        algebra.bch_terms()
        self.grid = Grid.box(3, *self.X)
        self.xi = XiGrid.box(3, *self.Z)
        self.window = make_window(self.alg, self.grid)
        self.tau = symmetric_tau(self.alg)
        self.x_nodes, self.x_vol = ref.midpoint_nodes(3, *self.X)
        self.z_nodes, self.z_vol = ref.midpoint_nodes(3, *self.Z)
        self.c = ref.window_constant(self.x_nodes, self.x_vol)
        self.central = np.flatnonzero(np.max(np.abs(self.x_nodes), axis=1) < 1.5)

    def ops(self, r):
        rng = self.rng(r)
        sym = _gaussian_symbol_params(rng, 3, 0.3, (0.9, 1.1))
        b = float(rng.uniform(0.3, 0.7))
        pairs = rng.choice(self.central, size=(self.ENTRIES, 2))
        cfg = BerezinConfig(self.alg, self.window, self.grid, self.xi, _library_symbol(sym, 3))
        A = linear3_potential(b)
        self.inputs = {"sym": sym, "b": b, "pairs": pairs, "cfg": cfg}
        return [("ber", lambda: berezin.berezin_matrix(cfg)),
                ("ber_tau", lambda: tau.berezin_tau(cfg, self.tau)),
                ("ber_mag", lambda: magnetic.mag_berezin(cfg, A))]

    def check(self, label, out, r):
        self.last[label] = (out, self.inputs)
        return self._check(label, out.kernel, self.inputs)

    def _check(self, label, K, inp):
        sym = inp["sym"]
        scale = float(np.max(np.abs(K)))
        herm = float(np.max(np.abs(K - K.conj().T))) / scale
        M = self.x_vol * K
        lam_min = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0])
        trace = self.x_vol * np.trace(K)
        mass = ref.symbol_integral(sym, 3)
        variant = {"ber": "plain", "ber_tau": "symmetric", "ber_mag": "magnetic"}[label]
        got = [K[i, j] for i, j in inp["pairs"]]
        want = [ref.berezin_entry_h1(sym, self.x_nodes[i], self.x_nodes[j], self.z_nodes,
                                     self.z_vol, self.c, variant, inp["b"])
                for i, j in inp["pairs"]]
        return [Check(f"{label}.hermiticity", herm, 1e-10),
                Check(f"{label}.positivity", max(0.0, -lam_min) / sym["amplitude"], 1e-8),
                Check(f"{label}.trace_formula", abs(trace - mass) / mass, 2e-2),
                Check(f"{label}.kernel_entries", _rel_max(got, want, scale), 1e-9)]

    def final_checks(self):
        # tau = e and A = 0 must reproduce the plain assembly bit for bit
        plain, inp = self.last["ber"]
        cfg = inp["cfg"]
        via_tau = tau.berezin_tau(cfg, tau_e(3)).kernel
        via_mag = magnetic.mag_berezin(cfg, zero_potential(3)).kernel
        return [Check(name, 0.0 if np.array_equal(K, plain.kernel) else math.inf, 0.0)
                for name, K in (("tau_e_bitwise", via_tau), ("zero_field_bitwise", via_mag))]

    def controls(self):
        out = []
        for label, (op, inp) in sorted(self.last.items()):
            K = op.kernel.copy()
            i, j = inp["pairs"][0]
            K[i, j] = -K[i, j]
            out.append((f"{label}.one_entry_sign_flipped",
                        not all(c.passed for c in self._check(label, K, inp))))
        return out

    def sizes(self):
        return {"group": "heisenberg:1",
                "operator_grid": {"half_width": self.X[0], "count": self.X[1]},
                "m": len(self.x_nodes), "z_grid": {"half_width": self.Z[0], "count": self.Z[1]},
                "z_nodes": len(self.z_nodes), "ops_per_round": ["ber", "ber_tau", "ber_mag"],
                "sampled_entries": self.ENTRIES}


# ---------------------------------------------------------------------------
# bargmann-h1: analysis, synthesis and the reproducing projection on H1
# ---------------------------------------------------------------------------

class BargmannH1(Workload):
    name = "bargmann-h1"
    X = (3.5, 10)         # operator grid (y-quadrature), h = 0.7
    XI_G = (4.0, 6)       # phase-space grid, group side
    XI_D = (4.4, 7)       # dual side; half-width below the Nyquist band pi/h = 4.49
    TARGETS = 100         # synthesis targets, a random subset of the operator grid
    SAMPLES = 6           # Bu values checked against the per-point quadrature

    def setup(self):
        self.alg = heisenberg()
        algebra.bch_terms()
        self.grid = Grid.box(3, *self.X)
        self.xi = XiGrid.box(3, self.XI_G[0], self.XI_G[1], self.XI_D[0], self.XI_D[1])
        if self.XI_D[0] >= math.pi / self.grid.spacing[0]:
            raise ValueError("dual box outside the operator grid's Nyquist band")
        self.window = make_window(self.alg, self.grid)
        self.y_nodes, self.y_vol = ref.midpoint_nodes(3, *self.X)
        self.c = ref.window_constant(self.y_nodes, self.y_vol)
        self.z_nodes, _ = ref.midpoint_nodes(3, *self.XI_G)
        self.zeta_nodes, _ = ref.midpoint_nodes(3, *self.XI_D)
        self.xi_weight = (self.xi.g_grid.cell_volume * self.xi.dual_grid.cell_volume
                          / (2 * math.pi) ** 3)
        self.central_z = np.flatnonzero(np.max(np.abs(self.z_nodes), axis=1) < 1.5)
        self.central_zeta = np.flatnonzero(np.max(np.abs(self.zeta_nodes), axis=1) < 1.5)

    def _field(self, rng):
        p = {"sigma": float(rng.uniform(0.8, 1.25)), "center": rng.uniform(-0.3, 0.3, 3),
             "modulation": rng.uniform(-0.3, 0.3, 3)}
        return p, gaussian(3, p["sigma"], p["center"], p["modulation"])

    def ops(self, r):
        rng = self.rng(r)
        pu, u = self._field(rng)
        pv, v = self._field(rng)
        targets = self.y_nodes[rng.choice(len(self.y_nodes), self.TARGETS, replace=False)]
        point = (rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3))
        samples = np.stack([rng.choice(self.central_z, self.SAMPLES),
                            rng.choice(self.central_zeta, self.SAMPLES)], axis=1)
        self.inputs = {"u": pu, "v": pv, "targets": targets, "point": point, "samples": samples}
        alg, w, grid, xi = self.alg, self.window, self.grid, self.xi
        p = PhasePoint(*point)

        def transform_pass():
            bu = coherent.bargmann(alg, w, u, xi, grid)
            bv = coherent.bargmann(alg, w, v, xi, grid)
            synth = coherent.bargmann_adjoint(alg, w, bu, targets)
            repro = coherent.reproducing_apply(alg, w, bu, p, grid)
            return bu.values, bv.values, synth, repro

        return [("transform_pass", transform_pass)]

    def check(self, label, out, r):
        self.last[label] = (out, self.inputs)
        return self._check(out, self.inputs)

    def _check(self, out, inp):
        bu, bv, synth, repro = out
        pu = inp["u"]

        def u_ref(p):
            return ref.unit_gaussian(p, pu["sigma"], pu["center"], pu["modulation"])

        want_u = u_ref(inp["targets"])
        inversion = float(np.linalg.norm(synth - want_u) / np.linalg.norm(want_u))
        norm_u = self.xi_weight * float(np.sum(np.abs(bu) ** 2))
        cross = self.xi_weight * complex(np.sum(bu * np.conjugate(bv)))
        isometry = max(abs(norm_u - 1.0), abs(cross - ref.gaussian_inner(pu, inp["v"])))
        scale = float(np.max(np.abs(bu)))
        got = [bu[i, j] for i, j in inp["samples"]]
        want = [ref.fourier_wigner_point_h1(u_ref, self.z_nodes[i], self.zeta_nodes[j],
                                            self.y_nodes, self.y_vol, self.c)
                for i, j in inp["samples"]]
        z, zeta = inp["point"]
        at_p = ref.fourier_wigner_point_h1(u_ref, z, zeta, self.y_nodes, self.y_vol, self.c)
        return [Check("inversion", inversion, 5e-2),
                Check("isometry", isometry, 5e-2),
                Check("sampled_values", _rel_max(got, want, scale), 1e-9),
                Check("reproducing", abs(repro - at_p) / scale, 5e-2)]

    def controls(self):
        (bu, bv, synth, repro), inp = self.last["transform_pass"]
        bad = (1.01 * bu, bv, synth, repro)
        return [("window_scaled_1.01", not all(c.passed for c in self._check(bad, inp)))]

    def sizes(self):
        return {"group": "heisenberg:1",
                "operator_grid": {"half_width": self.X[0], "count": self.X[1]},
                "xi_grid": {"g": {"half_width": self.XI_G[0], "count": self.XI_G[1]},
                            "dual": {"half_width": self.XI_D[0], "count": self.XI_D[1]}},
                "targets": self.TARGETS, "sampled_values": self.SAMPLES,
                "ops_per_round": ["transform_pass"]}


# ---------------------------------------------------------------------------
# symbols-line: covariant symbols and the Berezin symbol on the line
# ---------------------------------------------------------------------------

class SymbolsLine(Workload):
    name = "symbols-line"
    L, N = 10.0, 128        # desk grid for n = 1
    COV = 24                # Xi nodes per axis of the full covariant symbols
    NORM = 64               # Xi nodes per axis for the Cov(T) L^p norms
    BT = 12                 # Xi nodes per axis of the Berezin-transform samples
    REC = (32, 16, 5.0)     # small grid: operator nodes, Xi nodes, dual half-width
    SYMBOL_X = 16           # x-points of the Berezin symbol (times all 128 dual nodes)
    CONV = 4                # symbol values checked against the convolution form

    def setup(self):
        alg = self.alg = abelian(1)
        algebra.bch_terms()
        L, N = self.L, self.N
        self.grid = Grid.box(1, L, N)
        self.xi = XiGrid.box(1, L, N)
        self.window = make_window(alg, self.grid)
        self.cov_xi = XiGrid.box(1, L, self.COV)
        self.norm_xi = XiGrid.box(1, L, self.NORM)
        self.bt_xi = XiGrid.box(1, L, self.BT)
        n_op, n_xi, dual = self.REC
        self.small = Grid.box(1, L, n_op)
        self.small_xi = XiGrid.box(1, L, n_op, dual_half_width=dual)
        self.small_dual = self.small_xi.dual_grid
        self.rec_xi = XiGrid.box(1, L, n_xi, dual_half_width=dual)
        self.small_window = make_window(alg, self.small)
        self.dual_nodes = self.xi.dual_grid.nodes()
        self.lam = None

    def ops(self, r):
        rng = self.rng(r)
        ps = _gaussian_symbol_params(rng, 1, 0.4, (0.9, 1.2))
        pt = _gaussian_symbol_params(rng, 1, 0.4, (0.9, 1.2))
        xs = rng.uniform(-2.0, 2.0, (self.SYMBOL_X, 1))
        conv = np.stack([rng.integers(0, self.SYMBOL_X, self.CONV),
                         rng.integers(self.N // 4, 3 * self.N // 4, self.CONV)], axis=1)
        self.inputs = {"S": ps, "T": pt, "xs": xs, "conv": conv}
        alg, w = self.alg, self.window
        cfg_s = BerezinConfig(alg, w, self.grid, self.xi, _library_symbol(ps, 1))
        cfg_t = BerezinConfig(alg, w, self.grid, self.xi, _library_symbol(pt, 1))
        cfg_small = BerezinConfig(alg, self.small_window, self.small, self.small_xi,
                                  _library_symbol(pt, 1))

        def calculus_pass():
            S = berezin.berezin_matrix(cfg_s)
            T = berezin.berezin_matrix(cfg_t)
            cov_s = covariant.cov_full(S, alg, w, self.cov_xi)
            cov_t = covariant.cov_full(T, alg, w, self.cov_xi)
            cov_st = covariant.cov_full(S.compose(T), alg, w, self.cov_xi)
            box = covariant.square_compose(cov_t, cov_s)
            norms = [covariant.norm_bound_check(T, alg, w, self.norm_xi, p)
                     for p in (1.0, 2.0, math.inf)]
            bt = covariant.berezin_transform_nodes(cfg_t, self.bt_xi)
            T_small = berezin.berezin_matrix(cfg_small)
            C = covariant.cov_full(T_small, alg, self.small_window, self.rec_xi)
            rec = covariant.kernel_from_cov(C, alg, self.small)
            small_symbol = pseudodiff.berezin_symbol(cfg_small, self.small.nodes(),
                                                     self.small_dual.nodes(), route="kernel")
            requant = pseudodiff.op_quantize_samples(alg, small_symbol.values, self.small,
                                                     self.small_dual)
            symbol = pseudodiff.berezin_symbol(cfg_t, xs, self.dual_nodes, route="kernel")
            return {"T": T.kernel, "cov_st": cov_st.values, "box": box.values, "norms": norms,
                    "bt": bt, "T_small": T_small.kernel, "rec": rec.kernel,
                    "requant": requant.kernel, "symbol": symbol.values}

        return [("calculus_pass", calculus_pass)]

    def check(self, label, out, r):
        self.last[label] = (out, self.inputs)
        return self._check(out, self.inputs)

    def _check(self, out, inp):
        box = _rel_max(out["cov_st"], out["box"], float(np.max(np.abs(out["cov_st"]))))
        sv = np.linalg.svd(self.grid.weight * out["T"], compute_uv=False)
        worst_norm = worst_ratio = 0.0
        for rep, p in zip(out["norms"], (1.0, 2.0, math.inf)):
            mine = float(sv[0]) if math.isinf(p) else float(np.sum(sv ** p) ** (1.0 / p))
            worst_norm = max(worst_norm, abs(rep["schatten_norm"] - mine) / mine)
            worst_ratio = max(worst_ratio, rep["cov_norm"] / mine - 1.0)
        mass = ref.symbol_integral(inp["T"], 1)
        bt_mass = self.bt_xi.weight * float(np.sum(np.real(out["bt"])))
        small_norm = np.linalg.norm(out["T_small"])
        rec = float(np.linalg.norm(out["rec"] - out["T_small"]) / small_norm)
        requant = float(np.linalg.norm(out["requant"] - out["T_small"]) / small_norm)
        if self.lam is None:
            s = self.grid.nodes()[:, 0]
            self.lam = ref.lambda_table(s, self.dual_nodes[:, 0], s, self.grid.cell_volume,
                                        ref.window_constant(s[:, None], self.grid.cell_volume))
        s = self.grid.nodes()[:, 0]
        eta = self.dual_nodes[:, 0]
        got = [out["symbol"][k, l] for k, l in inp["conv"]]
        want = [ref.convolution_symbol(inp["T"], self.lam, s, self.grid.cell_volume, eta,
                                       self.xi.dual_grid.cell_volume, inp["xs"][k, 0], eta[l])
                for k, l in inp["conv"]]
        return [Check("box_composition", box, 1e-6),
                Check("schatten_norms", worst_norm, 1e-9),
                Check("cov_norm_bound", max(0.0, worst_ratio), 1e-6),
                Check("berezin_transform_mass", abs(bt_mass - mass) / mass, 1e-3),
                Check("kernel_reconstruction", rec, 1e-2),
                Check("op_of_berezin_symbol", requant, 1e-2),
                Check("convolution_form", _rel_max(got, want, float(np.max(np.abs(out["symbol"])))),
                      1e-8)]

    def controls(self):
        out, inp = self.last["calculus_pass"]
        bad = dict(out, box=1.01 * out["box"])
        return [("box_scaled_1.01", not all(c.passed for c in self._check(bad, inp)))]

    def sizes(self):
        return {"group": "abelian:1", "grid": {"half_width": self.L, "count": self.N},
                "cov_xi_per_axis": self.COV, "norm_xi_per_axis": self.NORM,
                "bt_xi_per_axis": self.BT,
                "reconstruction": {"operator_nodes": self.REC[0], "xi_per_axis": self.REC[1],
                                   "dual_half_width": self.REC[2]},
                "symbol_points": [self.SYMBOL_X, self.N], "conv_checks": self.CONV,
                "ops_per_round": ["calculus_pass"]}


# ---------------------------------------------------------------------------
# quantize-cli: `nilquant quantize` with scheme op, in-process
# ---------------------------------------------------------------------------

class QuantizeCli(Workload):
    name = "quantize-cli"
    X = (4.0, 7)       # operator grid (m = 343)
    XI = (4.0, 5)      # Xi grid of the exported symbol samples (125 x 125 nodes)
    ENTRIES = 6

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.alg = heisenberg()
        algebra.bch_terms()
        self.x_nodes, self.x_vol = ref.midpoint_nodes(3, *self.X)
        self.base = {"group": "heisenberg:1",
                     "grid": {"half_width": self.X[0], "count": self.X[1]},
                     "xi_grid": {"g": {"half_width": self.XI[0], "count": self.XI[1]},
                                 "dual": {"half_width": self.XI[0], "count": self.XI[1]}},
                     "window": {"sigma": 1.0}, "scheme": "op"}

    def ops(self, r):
        rng = self.rng(r)
        sym = _gaussian_symbol_params(rng, 3, 0.3, (0.9, 1.1))
        entries = rng.integers(0, len(self.x_nodes), (self.ENTRIES, 2))
        cfg = dict(self.base, seed=r, symbol={
            "kind": "gaussian", "amplitude": sym["amplitude"],
            "x_center": sym["x_center"].tolist(), "x_sigma": sym["x_sigma"],
            "xi_center": sym["xi_center"].tolist(), "xi_sigma": sym["xi_sigma"]})
        path = os.path.join(self.workdir, f"cfg-{r}.json")
        outdir = os.path.join(self.workdir, f"out-{r}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.inputs = {"sym": sym, "entries": entries, "cfg": path, "out": outdir}

        def quantize():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["quantize", "--config", path, "--out", outdir])
            if rc != 0:
                raise RuntimeError(f"nilquant quantize exited with code {rc}")
            return outdir

        return [("quantize", quantize)]

    def check(self, label, outdir, r):
        inp = self.inputs
        checks = self._check(inp)
        previous = self.last.get(label)
        if previous is not None:
            self._remove(previous)
        self.last[label] = inp
        return checks

    def _remove(self, inp):
        shutil.rmtree(inp["out"], ignore_errors=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(inp["cfg"])

    def _check(self, inp):
        base = os.path.join(inp["out"], "matrix")
        with open(base + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(os.path.join(inp["out"], "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        shape = tuple(meta["shape"])
        K = np.fromfile(base + ".bin", dtype="<c16").reshape(shape)
        with open(base + ".csv", encoding="utf-8") as fh:
            cells = np.array(fh.read().replace("\n", ",").split(",")[:-1], dtype=float)
        same = cells.size == 2 * K.size and np.array_equal(
            (cells[0::2] + 1j * cells[1::2]).reshape(shape), K)
        checks = [Check("bin_csv_agree", 0.0 if same else math.inf, 0.0)]

        sym = inp["sym"]
        mass = ref.symbol_integral(sym, 3)
        trace = complex(*summary["trace"])
        checks.append(Check("trace_formula", abs(trace - mass) / mass, 1e-2))
        s1, s2, sinf = (summary["schatten"][k] for k in ("1", "2", "inf"))
        frob = self.x_vol * float(np.linalg.norm(K))
        checks.append(Check("schatten2_frobenius", abs(s2 - frob) / frob, 1e-10))
        l2 = ref.symbol_l2_norm(sym, 3)
        checks.append(Check("schatten2_symbol_l2", abs(s2 - l2) / l2, 2e-2))
        checks.append(Check("schatten_order", max(0.0, sinf - s2, s2 - s1) / s2, 1e-12))
        # Op(a) has kernel check2(x, log(x y^{-1})) = fhat2(x, -log(x y^{-1}))
        x = self.x_nodes
        got = [K[i, j] for i, j in inp["entries"]]
        want = [complex(ref.fibre_transform(sym, x[i], -ref.h1_mul(x[i], -x[j])))
                for i, j in inp["entries"]]
        checks.append(Check("kernel_entries", _rel_max(got, want, float(np.max(np.abs(K)))),
                            1e-12))
        return checks

    def controls(self):
        inp = self.last["quantize"]
        path = os.path.join(inp["out"], "matrix.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
        return [("matrix_csv_truncated", not all(c.passed for c in self._check(inp)))]

    def sizes(self):
        return {"group": "heisenberg:1", "scheme": "op",
                "operator_grid": {"half_width": self.X[0], "count": self.X[1]},
                "m": len(self.x_nodes),
                "xi_grid_per_axis": {"half_width": self.XI[0], "count": self.XI[1]},
                "sampled_entries": self.ENTRIES, "ops_per_round": ["quantize"]}

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (BerezinH1, BargmannH1, SymbolsLine, QuantizeCli)}
