"""Command-line driver.

Verbs:
  algebra validate   check structure constants and certify the nilpotency step
  quantize           assemble the configured operator and export artifacts
  verify             run named verification suites; exit 1 on any failure
  export             convert a saved binary matrix to CSV

Exit codes: 0 all good, 1 a check failed, 2 configuration error.
"""

import argparse
import json
import os
import sys

import numpy as np

from .algebra import AlgebraError, preset, validate_algebra
from .berezin import BerezinConfig, berezin_quantize
from .coherent import WeylSystem, nyquist_axes
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .exports import (field_to_csv, load_matrix, matrix_to_csv, save_matrix,
                      write_json, xi_field_to_csv)
from .fields import random_gaussian, sample_xi
from .magnetic import VectorPotential, magnetic_system, potential_preset
from .operators import schatten_norm
from .pseudodiff import WeylOperator, op_quantize
from .symbols import SymbolError
from .tau import resolve_tau, tau_system
from .transforms import l2_norm
from .verify import run_suites

EXIT_OK, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2


def _load(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return parse_config({})


def cmd_algebra_validate(args) -> int:
    try:
        if args.config:
            cfg = load_config(args.config)
            alg = cfg.algebra
        else:
            alg = preset(args.preset)
    except (ConfigError, AlgebraError, ValueError, OSError) as exc:
        # ValueError: a preset size that is not an integer ("abelian:x")
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rep = validate_algebra(alg)
    print(json.dumps({"algebra": alg.name or "custom", **rep.summary()}, indent=2))
    return EXIT_OK if rep.passed else EXIT_FAIL


def _potential(cfg: ExperimentConfig) -> VectorPotential:
    return potential_preset(cfg.potential_name, cfg.algebra.dim)


def _weyl_system(cfg: ExperimentConfig) -> WeylSystem:
    """The Weyl system behind a Berezin scheme."""
    if cfg.scheme == "tau":
        return tau_system(cfg.algebra, resolve_tau(cfg.algebra, cfg.tau_name))
    if cfg.scheme == "magnetic":
        return magnetic_system(cfg.algebra, _potential(cfg))
    if cfg.scheme == "berezin":
        return WeylSystem(cfg.algebra)
    raise ValueError(f"unknown scheme {cfg.scheme!r}")


def _berezin_config(cfg: ExperimentConfig) -> BerezinConfig:
    return BerezinConfig(cfg.algebra, cfg.window, cfg.g_grid, cfg.xi_grid, cfg.symbol)


def _build_operator(cfg: ExperimentConfig):
    if cfg.scheme == "op":
        return op_quantize(cfg.algebra, cfg.symbol, cfg.g_grid, cfg.xi_grid.dual_grid)
    return berezin_quantize(_berezin_config(cfg), _weyl_system(cfg))


def _z_quadrature(cfg: ExperimentConfig) -> dict:
    """The z nodes of a Berezin kernel and the groups they are summed in:
    nodes that differ only on the axes of `BerezinConfig.z_group_axes`."""
    system, berezin_cfg = _weyl_system(cfg), _berezin_config(cfg)
    groups = berezin_cfg.z_groups(system)[0]
    return {"nodes": groups.shape[0] * groups.shape[1], "groups": groups.shape[0],
            "central_axes": list(berezin_cfg.z_group_axes(system))}


def cmd_quantize(args) -> int:
    try:
        cfg = _load(args)
        if args.scheme:
            cfg.scheme = args.scheme
        if args.tau:
            cfg.tau_name = args.tau
        if args.potential:
            cfg.potential_name = args.potential
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out:
            cfg.out = args.out
        op = _build_operator(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = cfg.out or "."
    os.makedirs(outdir, exist_ok=True)
    # the dual box against the Nyquist band of the grid whose nodes carry
    # the phases; an aliasing box is recorded, not refused
    summary = {"scheme": cfg.scheme, "seed": cfg.seed, "group": cfg.algebra.name,
               "nyquist": nyquist_axes(cfg.g_grid, cfg.xi_grid.dual_grid)}
    if cfg.scheme != "op" and not (op.meta.get("delta_symbol") or op.meta.get("multiplication")):
        # an assembled Berezin kernel: its z nodes, summed in groups of one
        # matrix product each
        summary["z_quadrature"] = _z_quadrature(cfg)
    if cfg.scheme == "magnetic":
        # the rule each circulation took: sized to the potential's degree
        A = _potential(cfg)
        summary["potential"] = {"name": A.name, "degree": A.degree,
                                "circulation_points": A.circulation_points}

    if isinstance(op, WeylOperator):
        # Point-mass symbol: the operator is an exact unitary shift with no
        # samplable kernel; record a unitarity probe instead of a matrix.
        rng = np.random.default_rng(cfg.seed)
        worst = 0.0
        for _ in range(5):
            u = random_gaussian(rng, cfg.algebra.dim)
            worst = max(worst, abs(l2_norm(op.apply(u), cfg.g_grid)
                                   / l2_norm(u, cfg.g_grid) - 1.0))
        summary.update({"special_path": "weyl_shift", "unitary": worst <= 1e-6,
                        "unitary_residual": worst})
    else:
        base = os.path.join(outdir, "matrix")
        save_matrix(op, base, scheme=cfg.scheme)
        matrix_to_csv(op, base + ".csv")
        sv = op.singular_values()  # one SVD for all three norms
        summary.update({
            "matrix": base + ".bin",
            "trace": [op.trace().real, op.trace().imag],
            "schatten": {"1": schatten_norm(sv, 1), "2": schatten_norm(sv, 2),
                         "inf": schatten_norm(sv, float("inf"))},
            "hermiticity_residual": op.hermiticity_residual(),
        })
        field_to_csv(cfg.window(cfg.g_grid.nodes()), cfg.g_grid,
                     os.path.join(outdir, "window.csv"))
        try:
            samples = sample_xi(cfg.symbol, cfg.xi_grid)
            xi_field_to_csv(samples.values, cfg.xi_grid,
                            os.path.join(outdir, "symbol.csv"))
            summary["symbol_csv"] = os.path.join(outdir, "symbol.csv")
        except SymbolError:
            summary["symbol_csv"] = None  # point masses are not samplable
    write_json(summary, os.path.join(outdir, "summary.json"))
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        cfg = _load(args)
        seed = args.seed if args.seed is not None else cfg.seed
        tol_scale = args.tol_scale if args.tol_scale is not None else cfg.tolerance_scale
        suites = args.suite or cfg.suite
        report = run_suites(suites, seed=seed, tol_scale=tol_scale)
    except KeyError as exc:
        # str(KeyError) quotes its message; print the message itself
        print(f"config error: {exc.args[0]}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for line in report.lines():
        print(line)
    print(("all checks passed" if report.passed else "FAILURES present")
          + f"  ({len(report.checks)} checks)")
    if args.out:
        write_json(report.to_dict(), os.path.join(args.out, "report.json"))
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_export(args) -> int:
    try:
        op = load_matrix(args.matrix)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # a missing file, bad JSON or data size, a missing or mistyped sidecar key
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    matrix_to_csv(op, args.csv)
    print(f"wrote {args.csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nilquant",
                                 description="Quantization toolkit on nilpotent groups")
    sub = ap.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="algebra tools")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)
    val = alg_sub.add_parser("validate", help="check structure constants")
    val.add_argument("--preset", default="heisenberg:1")
    val.add_argument("--config")
    val.set_defaults(fn=cmd_algebra_validate)

    q = sub.add_parser("quantize", help="assemble and export an operator")
    q.add_argument("--config")
    q.add_argument("--scheme", choices=["berezin", "op", "tau", "magnetic"])
    q.add_argument("--tau", choices=["e", "id", "symmetric"])
    q.add_argument("--potential", help="zero | landau:b | linear3:b")
    q.add_argument("--seed", type=int)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_quantize)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", action="append",
                   help="suite name or 'all' (repeatable)")
    v.add_argument("--config")
    v.add_argument("--seed", type=int)
    v.add_argument("--tol-scale", type=float, dest="tol_scale")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("export", help="convert a saved matrix to CSV")
    e.add_argument("--matrix", required=True, help="base path (without .bin)")
    e.add_argument("--csv", required=True)
    e.set_defaults(fn=cmd_export)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
