"""Experiment configuration: JSON parsing, validation, defaults, guards.

A config names a group (preset or inline structure constants), grids, a
window, a symbol and a quantization scheme.  Validation is all-at-once: every
violation is collected and reported together.  Inline structure constants are
raw tensor entries and are *not* symmetrized — c[1][2][3] = 1 without its
antisymmetric partner is an error, not a shorthand.  Their dimension, step
and 1-based indices are JSON integers (a float or a bool is refused, not
truncated), and their values are finite.

Cost guards reject grids whose phase-space node count or kernel sample count
would be quadratically expensive, unless "allow_large_grids" is set.  They
are the only size checks: the quantizers behind every scheme assemble
whatever grid they are given.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import operators
from .algebra import MAX_BCH_DEPTH, AlgebraError, LieAlgebra, preset, validate_algebra
from .coherent import Window
from .fields import Field, gaussian
from .grids import Grid, XiGrid
from .magnetic import potential_preset
from .report import tolerance_scale
from .symbols import (DeltaSymbol, GaussianSymbol, PhaseSymbol, XOnlySymbol,
                      XiOnlySymbol, XiSymbol)
from .tau import resolve_tau

XI_NODE_GUARD = 2_000_000

_TOP_KEYS = {"group", "grid", "dual_grid", "xi_grid", "window", "symbol", "scheme",
             "tau", "potential", "seed", "tolerance_scale", "allow_large_grids",
             "suite", "out"}
_SCHEMES = {"berezin", "op", "tau", "magnetic"}


class ConfigError(ValueError):
    """Carries every violation found while validating a config."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"- {p}" for p in self.problems))


@dataclass
class ExperimentConfig:
    algebra: LieAlgebra
    g_grid: Grid
    xi_grid: XiGrid
    window: Window
    symbol: XiSymbol
    scheme: str = "berezin"
    tau_name: str = "e"
    potential_name: str = "zero"
    seed: int = 0
    tolerance_scale: float = 1.0
    suite: list = field(default_factory=lambda: ["all"])
    out: str | None = None
    raw: dict = field(default_factory=dict)


#: Desk grids by group dimension: (half-width, Xi nodes, operator nodes)
#: per axis, the defaults of a config and of the `verify` set-ups; any other
#: dimension takes the entry of 2.
DESK_GRIDS = {1: (10.0, 128, 128), 2: (6.0, 24, 24), 3: (4.0, 9, 11)}


def _is_int(value) -> bool:
    """An integer as JSON writes it: not a float (2.7 or 2.0) nor a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_bracket(entry, dim: int) -> bool:
    """[i, j, k, value]: 1-based indices i, j, k <= dim and a finite real value."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 4:
        return False
    *indices, val = entry
    return (all(_is_int(i) and 1 <= i <= dim for i in indices)
            and isinstance(val, numbers.Real) and not isinstance(val, bool)
            and math.isfinite(val))


def _build_algebra(spec, problems) -> LieAlgebra | None:
    if spec is None:
        spec = "heisenberg:1"
    if isinstance(spec, str):
        try:
            return preset(spec)
        except AlgebraError as exc:
            problems.append(str(exc))
            return None
    if not isinstance(spec, dict):
        problems.append("group must be a preset name or an object")
        return None
    unknown = set(spec) - {"dim", "step", "brackets"}
    if unknown:
        problems.append(f"unknown group keys: {sorted(unknown)}")
    dim, step = spec.get("dim"), spec.get("step")
    if not (_is_int(dim) and _is_int(step) and dim >= 1 and step >= 1):
        problems.append(f"inline group needs integer 'dim' and 'step' >= 1, "
                        f"got dim={dim!r}, step={step!r}")
        return None
    if step > MAX_BCH_DEPTH:
        problems.append(f"step {step} exceeds the supported BCH depth {MAX_BCH_DEPTH}")
        return None
    brackets = spec.get("brackets", [])
    if not isinstance(brackets, list):
        problems.append("group 'brackets' must be a list of [i, j, k, value] entries")
        return None
    bad = [entry for entry in brackets if not _is_bracket(entry, dim)]
    for entry in bad:
        problems.append(f"bad bracket entry {entry!r} (want [i, j, k, value]: integer "
                        f"indices from 1 to {dim} and a finite value)")
    if bad:
        return None
    c = np.zeros((dim, dim, dim))
    for i, j, k, val in brackets:
        c[i - 1, j - 1, k - 1] = val
    alg = LieAlgebra(dim, c, step, name="custom")
    rep = validate_algebra(alg)
    if rep.antisymmetry_residual > 1e-12:
        problems.append(f"structure constants are not antisymmetric "
                        f"(residual {rep.antisymmetry_residual:.2e}); declare both "
                        f"c[i][j][k] and c[j][i][k] = -c[i][j][k]")
    if rep.jacobi_residual > 1e-12:
        problems.append(f"Jacobi identity fails (residual {rep.jacobi_residual:.2e})")
    if rep.certified_step != step:
        problems.append(f"declared step {step} but the lower central series "
                        f"certifies {rep.certified_step}")
    return alg


def _build_grid(spec, n, problems, default, dual=False, label="grid") -> Grid | None:
    if spec is None:
        L, N = default
        return Grid.box(n, L, N, dual=dual)
    if not isinstance(spec, dict):
        problems.append(f"{label} must be an object")
        return None
    unknown = set(spec) - {"half_width", "count"}
    if unknown:
        problems.append(f"unknown {label} keys: {sorted(unknown)}")
    try:
        return Grid.box(n, spec.get("half_width", default[0]),
                        spec.get("count", default[1]), dual=dual)
    except (ValueError, TypeError) as exc:  # GridError is a ValueError
        problems.append(f"bad {label}: {exc}")
        return None


def _build_symbol(spec, n, problems) -> XiSymbol | None:
    if spec is None:
        spec = {"kind": "gaussian"}
    if not isinstance(spec, dict):
        problems.append("symbol must be an object")
        return None
    kind = spec.get("kind", "gaussian")
    keys = set(spec) - {"kind"}
    try:
        if kind == "gaussian":
            allowed = {"amplitude", "x_center", "x_sigma", "x_phase",
                       "xi_center", "xi_sigma", "xi_phase"}
            if keys - allowed:
                problems.append(f"unknown symbol keys: {sorted(keys - allowed)}")
            return GaussianSymbol.make(n, **{k: spec[k] for k in keys & allowed})
        if kind in ("delta", "phase"):
            point = (spec.get("z", [0.0] * n), spec.get("zeta", [0.0] * n))
            symbol = (DeltaSymbol.at(*point, spec.get("mass", 1.0)) if kind == "delta"
                      else PhaseSymbol.at(*point))
            if symbol.n != n:
                problems.append(f"bad symbol: z and zeta have {symbol.n} components, "
                                f"the group has dimension {n}")
                return None
            return symbol
        if kind == "one":
            return XOnlySymbol(Field(lambda p: np.ones(p.shape[:-1]), n), n)
        if kind == "x_gaussian":
            return XOnlySymbol(gaussian(n, spec.get("sigma", 1.0), spec.get("center"),
                                        amplitude=spec.get("amplitude", 1.0)), n)
        if kind == "xi_gaussian":
            return XiOnlySymbol.gaussian(n, spec.get("center"), spec.get("sigma", 1.0))
    except (ValueError, TypeError) as exc:  # SymbolError is a ValueError
        problems.append(f"bad symbol: {exc}")
        return None
    problems.append(f"unknown symbol kind {kind!r}")
    return None


def parse_config(text: str | dict) -> ExperimentConfig:
    """Parse and validate a JSON config; raises ConfigError listing every problem."""
    problems = []
    if isinstance(text, str):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"]) from None
    else:
        raw = dict(text)
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown keys: {sorted(unknown)}")

    alg = _build_algebra(raw.get("group"), problems)
    if alg is None:
        raise ConfigError(problems)
    n = alg.dim

    half_width, xi_count, op_count = DESK_GRIDS.get(n, DESK_GRIDS[2])
    g_grid = _build_grid(raw.get("grid"), n, problems, (half_width, op_count))
    xi_spec = raw.get("xi_grid") or {}
    if not isinstance(xi_spec, dict):
        problems.append("xi_grid must be an object")
        xi_spec = {}
    xi_default = half_width, xi_count
    xi_g = _build_grid(xi_spec.get("g"), n, problems, xi_default, label="xi_grid.g")
    xi_d = _build_grid(xi_spec.get("dual", raw.get("dual_grid")), n, problems,
                       xi_default, dual=True, label="xi_grid.dual")

    allow_large = bool(raw.get("allow_large_grids", False))
    guard = operators.KERNEL_SAMPLE_GUARD
    if g_grid is not None and g_grid.size ** 2 > guard and not allow_large:
        problems.append(
            f"operator kernel would hold {g_grid.size ** 2:.2e} samples "
            f"(guard {guard:.0e}); set allow_large_grids to override")
    if xi_g is not None and xi_d is not None:
        xi_nodes = xi_g.size * xi_d.size
        if xi_nodes > XI_NODE_GUARD and not allow_large:
            problems.append(
                f"phase-space grid would hold {xi_nodes:.2e} nodes "
                f"(guard {XI_NODE_GUARD:.0e}); set allow_large_grids to override")

    window_spec = raw.get("window") or {}
    if not isinstance(window_spec, dict):
        problems.append("window must be an object")
        window_spec = {}
    unknown = set(window_spec) - {"sigma", "center"}
    if unknown:
        problems.append(f"unknown window keys: {sorted(unknown)}")
    try:
        window_field = gaussian(n, window_spec.get("sigma", 1.0), window_spec.get("center"))
    except (ValueError, TypeError) as exc:
        problems.append(f"bad window: {exc}")

    symbol = _build_symbol(raw.get("symbol"), n, problems)

    scheme = raw.get("scheme", "berezin")
    if scheme not in _SCHEMES:
        problems.append(f"unknown scheme {scheme!r}; choose from {sorted(_SCHEMES)}")
    tau_name = raw.get("tau", "e")
    try:
        resolve_tau(alg, tau_name)
    except ValueError as exc:
        problems.append(f"bad tau: {exc}")
    potential_name = raw.get("potential", "zero")
    try:
        potential_preset(potential_name, n)
    except ValueError as exc:
        problems.append(f"bad potential: {exc}")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        problems.append("seed must be a nonnegative integer")
    try:
        tol_scale = tolerance_scale(raw.get("tolerance_scale", 1.0))
    except ValueError as exc:
        problems.append(f"bad tolerance_scale: {exc}")

    suite = raw.get("suite", ["all"])
    if isinstance(suite, str):
        suite = [suite]

    if problems:
        raise ConfigError(problems)

    try:
        window = Window.normalized(window_field, g_grid)
    except ValueError as exc:  # the window vanishes at every grid node
        raise ConfigError([f"bad window: {exc}"]) from None
    xi_grid = XiGrid(xi_g, xi_d)
    return ExperimentConfig(alg, g_grid, xi_grid, window, symbol, scheme,
                            tau_name, potential_name, int(seed), tol_scale,
                            list(suite), raw.get("out"), raw)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
