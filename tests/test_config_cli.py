"""Configuration validation, CLI verbs, exports and determinism."""

import json
import math
import os
import re

import numpy as np
import pytest

from nilquant import config, operators, verify
from nilquant.cli import main
from nilquant.config import ConfigError, parse_config
from nilquant.exports import field_to_csv, load_matrix, matrix_to_csv, save_matrix
from nilquant.grids import Grid, GridError
from nilquant.operators import OperatorMatrix
from nilquant.verify import run_suites

SMALL = {
    "group": "abelian:1",
    "grid": {"half_width": 8.0, "count": 32},
    "xi_grid": {"g": {"half_width": 8.0, "count": 32},
                "dual": {"half_width": 8.0, "count": 32}},
}

H1_SMALL = {
    "group": "heisenberg:1",
    "grid": {"half_width": 3.0, "count": 5},
    "xi_grid": {"g": {"half_width": 3.0, "count": 4},
                "dual": {"half_width": 2.0, "count": 3}},
}


def test_parse_minimal_defaults():
    cfg = parse_config({})
    assert cfg.algebra.name == "heisenberg:1"
    assert cfg.g_grid.counts == (11, 11, 11)
    assert cfg.xi_grid.g_grid.counts == (9, 9, 9)
    assert cfg.scheme == "berezin"


@pytest.mark.parametrize("group, setup", [("abelian:1", "line_setup"),
                                          ("abelian:2", "plane_setup"),
                                          ("heisenberg:1", "heisenberg_setup")])
def test_config_defaults_are_the_desk_setups(group, setup):
    """Both read `config.DESK_GRIDS`."""
    cfg = parse_config({"group": group})
    _, grid, xi, _ = getattr(verify, setup)()
    assert (cfg.g_grid, cfg.xi_grid) == (grid, xi)


def test_parse_preset_group():
    cfg = parse_config({"group": "abelian:2"})
    assert cfg.algebra.dim == 2


def test_parse_inline_group():
    cfg = parse_config({"group": {"dim": 3, "step": 2,
                                  "brackets": [[1, 2, 3, 1.0], [2, 1, 3, -1.0]]},
                        "grid": {"half_width": 4.0, "count": 7},
                        "xi_grid": {"g": {"half_width": 4.0, "count": 7},
                                    "dual": {"half_width": 4.0, "count": 7}}})
    assert cfg.algebra.step == 2
    assert cfg.g_grid.counts == (7, 7, 7)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config({"grupo": "heisenberg:1"})


def test_parse_rejects_missing_antisymmetry():
    with pytest.raises(ConfigError, match="antisymmetric"):
        parse_config({"group": {"dim": 3, "step": 2, "brackets": [[1, 2, 3, 1.0]]}})


def test_parse_rejects_jacobi_failure():
    bad = {"dim": 3, "step": 2,
           "brackets": [[1, 2, 3, 1.0], [2, 1, 3, -1.0], [2, 3, 2, 1.0], [3, 2, 2, -1.0]]}
    with pytest.raises(ConfigError, match="Jacobi"):
        parse_config({"group": bad})


def test_parse_rejects_large_step():
    with pytest.raises(ConfigError, match="step"):
        parse_config({"group": {"dim": 2, "step": 7, "brackets": []}})


def test_parse_rejects_wrong_declared_step():
    with pytest.raises(ConfigError, match="certifies"):
        parse_config({"group": {"dim": 3, "step": 1,
                                "brackets": [[1, 2, 3, 1.0], [2, 1, 3, -1.0]]}})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("group, problem", [
    # brackets are 1-based: index 0 used to wrap to the last axis, [e3, e1] = e2
    ({"dim": 3, "step": 2, "brackets": [[0, 1, 2, 1], [1, 0, 2, -1]]},
     "bad bracket entry [0, 1, 2, 1]"),
    ({"dim": 3, "step": 2, "brackets": [[1, 2, 4, 1], [2, 1, 4, -1]]},
     "bad bracket entry [1, 2, 4, 1]"),
    # fractional and boolean indices used to be truncated by int()
    ({"dim": 3, "step": 2, "brackets": [[1.5, 2, 3, 1], [2, 1, 3, -1]]},
     "bad bracket entry [1.5, 2, 3, 1]"),
    ({"dim": 3, "step": 2, "brackets": [[True, 2, 3, 1], [2, 1, 3, -1]]},
     "bad bracket entry [True, 2, 3, 1]"),
    # non-finite values used to crash the step certificate's SVD
    ({"dim": 3, "step": 2, "brackets": [[1, 2, 3, NAN], [2, 1, 3, -1]]},
     "bad bracket entry [1, 2, 3, nan]"),
    ({"dim": 3, "step": 2, "brackets": [[1, 2, 3, INF], [2, 1, 3, -1]]},
     "bad bracket entry [1, 2, 3, inf]"),
    ({"dim": 3, "step": 2, "brackets": [[1, 2, 3, True], [2, 1, 3, -1]]},
     "bad bracket entry [1, 2, 3, True]"),
    ({"dim": 3, "step": 2, "brackets": [[1, 2, 3]]}, "bad bracket entry [1, 2, 3]"),
    ({"dim": 2.7, "step": 1}, "integer 'dim' and 'step' >= 1, got dim=2.7, step=1"),
    ({"dim": True, "step": 1}, "got dim=True"),
    ({"dim": "3", "step": 2}, "got dim='3'"),
    ({"dim": 2, "step": 1.5}, "got dim=2, step=1.5"),
    ({"dim": 2, "step": True}, "step=True"),
    ({"dim": 2, "step": 0}, "step=0"),
    # a negative dimension used to escape as numpy's bare ValueError
    ({"dim": -1, "step": 1}, "got dim=-1"),
    ({"dim": 0, "step": 1}, "got dim=0"),
    ({"step": 2}, "got dim=None"),
])
def test_parse_rejects_bad_inline_groups(group, problem):
    with pytest.raises(ConfigError, match=re.escape(problem)):
        parse_config({"group": group})


def test_inline_group_problems_are_collected():
    with pytest.raises(ConfigError) as exc:
        parse_config({"grupo": 1, "group": {"dim": -1, "step": 1, "basis": []}})
    unknown, group_keys, dim = exc.value.problems
    assert unknown.startswith("unknown keys") and group_keys.startswith("unknown group keys")
    assert dim.endswith("got dim=-1, step=1")
    with pytest.raises(ConfigError) as exc:     # every bad entry, not the first alone
        parse_config({"group": {"dim": 3, "step": 2,
                                "brackets": [[0, 1, 2, 1], [1, 2, 3, 1], [2, 1, 3, NAN]]}})
    assert len(exc.value.problems) == 2


@pytest.mark.parametrize("brackets", [[[0, 1, 2, 1], [1, 0, 2, -1]],
                                      [[1, 2, 3, NAN], [2, 1, 3, -1]],
                                      [[1, 2, 3, INF], [2, 1, 3, -INF]]])
def test_cli_bad_inline_group_exits_2(tmp_path, capsys, brackets):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": {"dim": 3, "step": 2, "brackets": brackets}}))
    assert main(["algebra", "validate", "--config", str(path)]) == 2
    assert "bad bracket entry" in capsys.readouterr().err
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path / "q")]) == 2
    assert not (tmp_path / "q").exists()


def test_cost_guard_on_phase_space_grid():
    big = {"group": "heisenberg:1",
           "xi_grid": {"g": {"count": 64}, "dual": {"count": 64}}}
    with pytest.raises(ConfigError, match="guard"):
        parse_config(big)
    cfg = parse_config({**big, "allow_large_grids": True})
    assert cfg.xi_grid.g_grid.counts == (64, 64, 64)


@pytest.mark.parametrize("scheme", ["berezin", "op"])
def test_cli_kernel_guard_honors_allow_large_grids(tmp_path, monkeypatch, scheme):
    """One kernel size guard for every scheme: past it a config exits 2, and
    with allow_large_grids it runs; the string "false" is a config error."""
    monkeypatch.setattr(operators, "KERNEL_SAMPLE_GUARD", 32 ** 2 - 1)
    for allow, code in ((False, 2), ("false", 2), (True, 0)):
        path = tmp_path / f"allow-{allow}.json"
        path.write_text(json.dumps({**SMALL, "allow_large_grids": allow}))
        out = tmp_path / f"out-{allow}"
        assert main(["quantize", "--config", str(path), "--scheme", scheme,
                     "--out", str(out)]) == code


def test_parse_collects_multiple_problems():
    try:
        parse_config({"scheme": "fourier", "tau": "weyl", "seed": -3})
    except ConfigError as exc:
        text = str(exc)
        assert "scheme" in text and "tau" in text and "seed" in text
    else:
        raise AssertionError("expected ConfigError")


def test_symbol_kinds():
    for kind in ("gaussian", "delta", "phase", "one", "x_gaussian", "xi_gaussian"):
        cfg = parse_config({**SMALL, "symbol": {"kind": kind}})
        assert cfg.symbol is not None
    with pytest.raises(ConfigError, match="symbol"):
        parse_config({**SMALL, "symbol": {"kind": "chirp"}})


# -- exports -------------------------------------------------------------------

def test_matrix_binary_round_trip(tmp_path):
    g = Grid.box(1, 6.0, 16)
    rng = np.random.default_rng(0)
    op = OperatorMatrix(g, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    base = str(tmp_path / "m")
    bin_path, meta_path = save_matrix(op, base, scheme="berezin")
    assert os.path.exists(bin_path) and os.path.exists(meta_path)
    meta = json.loads(open(meta_path).read())
    assert meta["format_version"] == 1 and meta["scheme"] == "berezin"
    back = load_matrix(base)
    assert np.array_equal(back.kernel, op.kernel)
    assert back.grid == g


def test_matrix_csv_round_trip(tmp_path):
    g = Grid.box(1, 6.0, 8)
    rng = np.random.default_rng(1)
    op = OperatorMatrix(g, rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    path = str(tmp_path / "m.csv")
    matrix_to_csv(op, path)
    rows = [[float(v) for v in line.split(",")] for line in open(path).read().splitlines()]
    back = np.array(rows)[:, 0::2] + 1j * np.array(rows)[:, 1::2]
    assert np.max(np.abs(back - op.kernel)) < 1e-15


def test_field_csv(tmp_path):
    g = Grid.box(2, 2.0, 4)
    vals = np.arange(16, dtype=complex)
    path = str(tmp_path / "f.csv")
    field_to_csv(vals, g, path)
    rows = open(path).read().strip().splitlines()
    assert len(rows) == 16
    assert len(rows[0].split(",")) == 4  # two coordinates + re + im


# -- CLI -----------------------------------------------------------------------

def test_cli_algebra_validate():
    assert main(["algebra", "validate", "--preset", "heisenberg:1"]) == 0
    assert main(["algebra", "validate", "--preset", "engel"]) == 0
    assert main(["algebra", "validate", "--preset", "su2"]) == 2


def test_cli_verify_pass_and_fail(capsys):
    assert main(["verify", "--suite", "weyl", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "weyl" in out
    # an absurd tolerance scale forces a failure exit
    assert main(["verify", "--suite", "weyl", "--tol-scale", "1e-20"]) == 1
    assert main(["verify", "--suite", "nonexistent"]) == 2


def test_cli_verify_unknown_suite_message_is_unquoted(capsys):
    assert main(["verify", "--suite", "nonexistent"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: unknown suite 'nonexistent'; known: ")
    assert '"' not in err


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_cli_verify_rejects_a_scale_that_is_not_finite_and_positive(scale, capsys):
    """An infinite scale would pass every check; each of these is a
    configuration error, exit 2, and runs no check."""
    assert main(["verify", "--suite", "weyl", "--tol-scale", scale]) == 2
    captured = capsys.readouterr()
    assert "tolerance scale must be finite and positive" in captured.err
    assert "PASS" not in captured.out


def test_config_tolerance_scale_infinity_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"tolerance_scale": Infinity}')
    assert main(["verify", "--suite", "weyl", "--config", str(cfg_path)]) == 2
    assert "bad tolerance_scale" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_run_suites_rejects_a_scale_that_is_not_finite_and_positive(scale):
    with pytest.raises(ValueError, match="tolerance scale"):
        run_suites(["weyl"], tol_scale=scale)


def test_cli_quantize_and_export(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    cfg_path.write_text(json.dumps({**SMALL, "scheme": "berezin"}))
    assert main(["quantize", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["scheme"] == "berezin"
    assert {"trace", "schatten", "hermiticity_residual"} <= set(summary)
    for name in ("matrix.bin", "matrix.json", "matrix.csv", "window.csv", "symbol.csv"):
        assert (out_dir / name).exists()
    csv_out = tmp_path / "again.csv"
    assert main(["export", "--matrix", str(out_dir / "matrix"),
                 "--csv", str(csv_out)]) == 0
    assert csv_out.exists()


@pytest.mark.parametrize("dual_half_width, aliases", [(2.5, False), (4.0, True)])
def test_cli_quantize_records_the_nyquist_band_per_axis(tmp_path, dual_half_width, aliases):
    """H1 with half-width 4 and 7 nodes per axis: pi/h = 7 pi / 8 = 2.75.  A
    dual box past it is recorded as aliasing and still exits 0."""
    cfg = {"group": "heisenberg:1", "grid": {"half_width": 4.0, "count": 7},
           "xi_grid": {"g": {"half_width": 4.0, "count": 3},
                       "dual": {"half_width": dual_half_width, "count": 3}},
           "scheme": "op"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["quantize", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["nyquist"] == [{"dual_half_width": dual_half_width,
                                   "nyquist_band": 7 * np.pi / 8, "aliases": aliases}] * 3


def test_cli_verify_empty_suite_is_config_error(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**SMALL, "suite": []}))
    assert main(["verify", "--config", str(cfg)]) == 2


def test_cli_magnetic_zero_field_byte_identical(tmp_path):
    cfg_b = tmp_path / "b.json"
    cfg_m = tmp_path / "m.json"
    cfg_b.write_text(json.dumps({**SMALL, "scheme": "berezin"}))
    cfg_m.write_text(json.dumps({**SMALL, "scheme": "magnetic", "potential": "zero"}))
    out_b, out_m = tmp_path / "ob", tmp_path / "om"
    assert main(["quantize", "--config", str(cfg_b), "--out", str(out_b)]) == 0
    assert main(["quantize", "--config", str(cfg_m), "--out", str(out_m)]) == 0
    assert (out_b / "matrix.bin").read_bytes() == (out_m / "matrix.bin").read_bytes()


def test_cli_scheme_flags_override(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(SMALL))
    out_t = tmp_path / "ot"
    assert main(["quantize", "--config", str(cfg), "--scheme", "tau",
                 "--tau", "symmetric", "--out", str(out_t)]) == 0
    summary = json.loads((out_t / "summary.json").read_text())
    assert summary["scheme"] == "tau"
    # a magnetic run on a 1-d group must reject the landau preset cleanly
    assert main(["quantize", "--config", str(cfg), "--scheme", "magnetic",
                 "--potential", "landau:1.0", "--out", str(tmp_path / "bad")]) == 2


def test_cli_quantize_phase_symbol_special_path(tmp_path):
    cfg = {**SMALL, "scheme": "op", "symbol": {"kind": "phase", "z": [0.5], "zeta": [0.7]}}
    cfg_path = tmp_path / "p.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["quantize", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["special_path"] == "weyl_shift" and summary["unitary"]


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["quantize", "--config", str(bad)]) == 2


@pytest.mark.parametrize("spec, problem", [
    ({"grid": {"half_width": "wide", "count": 32}}, "bad grid"),
    ({"grid": {"half_width": None}}, "bad grid"),
    ({"grid": {"count": [8, 8]}}, "bad grid"),
    ({"grid": [8.0, 32]}, "grid must be an object"),
    ({"xi_grid": {"g": {"half_width": -1.0}}}, "bad xi_grid.g"),
    ({"symbol": {"kind": "gaussian", "amplitude": "big"}}, "bad symbol"),
    ({"symbol": {"kind": "gaussian", "x_sigma": [1.0, 2.0]}}, "bad symbol"),
    ({"symbol": {"kind": "delta", "mass": [1.0]}}, "bad symbol"),
    ({"symbol": "gaussian"}, "symbol must be an object"),
    ({"window": [1.0]}, "window must be an object"),
    ({"group": {"dim": 2, "step": 1, "brackets": 5}}, "'brackets' must be a list"),
    ({"grid": {"half_width": float("nan"), "count": 32}}, "bad grid"),
    ({"grid": {"half_width": float("inf"), "count": 32}}, "bad grid"),
    ({"grid": {"half_width": 8.0, "count": float("inf")}}, "bad grid"),
    ({"xi_grid": {"dual": {"half_width": float("nan")}}}, "bad xi_grid.dual"),
    ({"symbol": {"kind": "gaussian", "amplitude": float("nan")}}, "bad symbol"),
    ({"symbol": {"kind": "gaussian", "xi_sigma": float("inf")}}, "bad symbol"),
    ({"symbol": {"kind": "gaussian", "x_center": [float("nan")]}}, "bad symbol"),
    ({"tau": ["e"]}, "bad tau"),
    ({"potential": 5}, "bad potential"),
    ({**H1_SMALL, "potential": "linear3:nan"}, "bad potential"),
    ({**H1_SMALL, "potential": "landau:1"}, "bad potential"),
    ({"window": {"sigma": float("nan")}}, "bad window"),
    ({"window": {"sigma": 0}}, "bad window"),
    ({"window": {"sigma": -1}}, "bad window"),
    ({"window": {"sigma": "wide"}}, "bad window"),
    ({"group": "abelian:2", "window": {"center": [0, float("nan")]}}, "bad window"),
    ({"window": {"center": [0.0, 1.0]}}, "bad window"),
    ({"window": {"sigma": 1e-200}}, "bad window: window has zero quadrature norm"),
    ({"symbol": {"kind": "x_gaussian", "sigma": float("nan")}}, "bad symbol"),
    ({"symbol": {"kind": "x_gaussian", "sigma": 0}}, "bad symbol"),
    ({"symbol": {"kind": "x_gaussian", "amplitude": float("nan")}}, "bad symbol"),
    ({"symbol": {"kind": "x_gaussian", "center": [float("nan")]}}, "bad symbol"),
    ({"symbol": {"kind": "delta", "mass": float("nan")}}, "bad symbol"),
    ({"symbol": {"kind": "delta", "z": [float("nan")]}}, "bad symbol"),
    ({"symbol": {"kind": "delta", "z": [0.0, 1.0]}}, "bad symbol"),
    ({"symbol": {"kind": "delta", "z": [0.0, 1.0], "zeta": [0.0, 1.0]}}, "bad symbol"),
    ({"symbol": {"kind": "phase", "zeta": [float("inf")]}}, "bad symbol"),
    ({"tolerance_scale": float("inf")}, "bad tolerance_scale"),
    ({"tolerance_scale": float("nan")}, "bad tolerance_scale"),
    ({"tolerance_scale": 0}, "bad tolerance_scale"),
    ({"tolerance_scale": -1.0}, "bad tolerance_scale"),
    ({"tolerance_scale": "2"}, "bad tolerance_scale"),
    ({"grid": {"half_width": 4, "count": True}}, "bad grid: .*not booleans"),
    ({"grid": {"half_width": True, "count": 32}}, "bad grid: .*not booleans"),
    ({"xi_grid": {"dual": {"count": [True]}}}, "bad xi_grid.dual: .*not booleans"),
    ({"allow_large_grids": "false"}, "allow_large_grids must be true or false"),
    ({"allow_large_grids": "no"}, "allow_large_grids must be true or false"),
    ({"allow_large_grids": 1}, "allow_large_grids must be true or false"),
    ({"seed": True}, "seed must be a nonnegative integer"),
    ({"tolerance_scale": True}, "bad tolerance_scale"),
    ({"grid": {"half_width": "8", "count": 32}}, "bad grid: .*not booleans or strings"),
    ({"grid": {"half_width": 8.0, "count": "32"}}, "bad grid: .*not booleans or strings"),
    ({"xi_grid": {"g": {"count": ["32"]}}}, "bad xi_grid.g: .*not booleans or strings"),
    ({"window": {"sigma": "1.5"}}, "bad window: sigma must be a number"),
    ({"window": {"center": ["0.1"]}}, "bad window: center must be a number"),
    ({"window": {"sigma": True}}, "bad window: sigma must be a number"),
    ({"symbol": {"kind": "gaussian", "amplitude": "2"}}, "bad symbol: amplitude must be a number"),
    ({"symbol": {"kind": "gaussian", "x_center": [True]}}, "bad symbol: x_center must be"),
    ({"symbol": {"kind": "delta", "mass": False}}, "bad symbol: mass must be a number"),
    ({"symbol": {"kind": "x_gaussian", "sigma": "1"}}, "bad symbol: sigma must be a number"),
    ({"suite": 5}, "suite must be a suite name or a list of them"),
    ({"suite": ["weyl", 5]}, "suite must be a suite name or a list of them"),
    ({"out": 7}, "out must be a directory name"),
    ({"symbol": {"kind": "delta", "masss": 2.0}},
     r"unknown symbol keys for kind 'delta': \['masss'\]"),
    ({"symbol": {"kind": "phase", "mass": 1.0}},
     r"unknown symbol keys for kind 'phase': \['mass'\]"),
    ({"symbol": {"kind": "one", "sigma": 1.0}}, r"unknown symbol keys for kind 'one': \['sigma'\]"),
    ({"symbol": {"kind": "x_gaussian", "sigmaa": 3.0}},
     r"unknown symbol keys for kind 'x_gaussian': \['sigmaa'\]"),
    ({"symbol": {"kind": "xi_gaussian", "amplitude": 2.0}},
     r"unknown symbol keys for kind 'xi_gaussian': \['amplitude'\]"),
    ({"symbol": {"kind": "gaussian", "x_sigmaa": 1.0}},
     r"unknown symbol keys for kind 'gaussian': \['x_sigmaa'\]"),
    ({"xi_grid": {"g": {"count": 8}, "dula": {"count": 4}}}, r"unknown xi_grid keys: \['dula'\]"),
])
def test_parse_reports_bad_specs(spec, problem):
    with pytest.raises(ConfigError, match=problem):
        parse_config({**SMALL, **spec})


def test_cli_bad_inputs_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    bad_grid = tmp_path / "bad_grid.json"
    bad_grid.write_text(json.dumps({**SMALL, "grid": {"half_width": "wide"}}))
    missing = str(tmp_path / "missing.json")
    assert main(["algebra", "validate", "--config", str(bad)]) == 2
    assert main(["algebra", "validate", "--config", missing]) == 2
    assert main(["algebra", "validate", "--preset", "abelian:x"]) == 2
    assert main(["quantize", "--config", str(bad_grid), "--out", str(tmp_path / "q")]) == 2
    assert main(["quantize", "--config", missing]) == 2
    assert main(["verify", "--config", missing]) == 2
    csv_out = str(tmp_path / "out.csv")
    assert main(["export", "--matrix", str(tmp_path / "none"), "--csv", csv_out]) == 2
    (tmp_path / "m.bin").write_bytes(b"")
    for sidecar in ("{not json", "{}", "[]"):  # bad JSON, no shape, not an object
        (tmp_path / "m.json").write_text(sidecar)
        assert main(["export", "--matrix", str(tmp_path / "m"), "--csv", csv_out]) == 2
    assert not os.path.exists(csv_out)


@pytest.mark.parametrize("grid", [{"half_width": 4, "count": True},
                                  {"half_width": True, "count": 32},
                                  {"half_width": [4.0], "count": [False]}])
def test_cli_boolean_grid_values_exit_2(tmp_path, capsys, grid):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, "grid": grid}))
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path / "q")]) == 2
    assert "bad grid: per-axis values must be numbers, not booleans" in capsys.readouterr().err
    assert not (tmp_path / "q").exists()


def test_cli_misspelt_symbol_key_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, "symbol": {"kind": "delta", "masss": 2.0}}))
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path / "q")]) == 2
    assert "masss" in capsys.readouterr().err
    assert not (tmp_path / "q").exists()


def test_every_symbol_kind_takes_its_own_keys():
    for kind, keys in config._SYMBOL_KEYS.items():
        spec = {"kind": kind}
        spec.update({k: ([0.1] if k in ("z", "zeta", "center", "x_center", "xi_center",
                                           "x_phase", "xi_phase") else 1.0) for k in keys})
        parse_config({**SMALL, "symbol": spec})


def test_grid_box_refuses_booleans_and_keeps_whole_floats():
    for half_width, count in ((4.0, True), (True, 8), (4.0, np.bool_(True)), (4.0, [8, True])):
        with pytest.raises(GridError, match="not booleans"):
            Grid.box(2, half_width, count)
    assert Grid.box(2, 8.0, 8.0).counts == (8, 8)
    assert parse_config({**SMALL, "grid": {"half_width": 8, "count": 16.0}}).g_grid.counts == (16,)


@pytest.mark.parametrize("spec", [
    {"group": {"dim": 2, "step": 1, "brackets": 5}},
    {"grid": {"half_width": float("nan"), "count": 32}},
    {"xi_grid": {"g": {"half_width": float("inf")}}},
    {"symbol": {"kind": "gaussian", "amplitude": float("nan")}},
])
def test_cli_bad_brackets_and_non_finite_values_exit_2(tmp_path, spec):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, **spec}))  # NaN / Infinity literals
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path / "q")]) == 2
    assert main(["verify", "--config", str(path)]) == 2
    assert not (tmp_path / "q").exists()


@pytest.mark.parametrize("spec", [
    {"window": {"sigma": float("nan")}},
    {"window": {"sigma": 0}},
    {"window": {"sigma": -1}},
    {"group": "abelian:2", "window": {"center": [0, float("nan")]}},
    {"symbol": {"kind": "x_gaussian", "sigma": 0}},
    {"symbol": {"kind": "x_gaussian", "amplitude": float("nan")}},
    {"symbol": {"kind": "delta", "mass": float("nan")}},
    {"symbol": {"kind": "delta", "z": [0.0, 1.0], "zeta": [0.0, 1.0]}},
    {"symbol": {"kind": "phase", "zeta": [float("inf")]}},
])
def test_cli_bad_window_and_point_symbols_exit_2(tmp_path, spec):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, **spec}))  # NaN / Infinity literals
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path / "q")]) == 2
    assert main(["verify", "--config", str(path)]) == 2
    assert not (tmp_path / "q").exists()


def test_parse_accepts_valid_window_and_point_symbols():
    cfg = parse_config({**SMALL, "window": {"sigma": [0.5], "center": [0.3]},
                        "symbol": {"kind": "delta", "z": [0.5], "zeta": [-0.2], "mass": 2.0}})
    assert cfg.window.raw_norm > 0 and cfg.symbol.mass == 2.0
    assert parse_config({**SMALL, "symbol": {"kind": "phase", "zeta": [0.3]}}).symbol.n == 1


def test_parse_accepts_tau_and_potential_presets():
    cfg = parse_config({**H1_SMALL, "tau": "symmetric", "potential": "linear3:0.6"})
    assert (cfg.tau_name, cfg.potential_name) == ("symmetric", "linear3:0.6")
    assert parse_config({"group": "abelian:2", "potential": "landau:0.5"}).potential_name


@pytest.mark.parametrize("spec", [
    {"tau": ["e"]},
    {"potential": 5},
    {**H1_SMALL, "potential": "linear3:nan"},
    {**H1_SMALL, "potential": "landau:1"},
])
def test_cli_bad_tau_and_potential_exit_2(tmp_path, spec):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, **spec}))
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path / "q")]) == 2
    assert main(["verify", "--config", str(path)]) == 2
    assert not (tmp_path / "q").exists()


@pytest.mark.parametrize("potential", ["linear3:nan", "landau:1", "linear3:strong"])
def test_cli_bad_potential_flag_exit_2(tmp_path, potential):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(H1_SMALL))
    assert main(["quantize", "--config", str(path), "--scheme", "magnetic",
                 "--potential", potential, "--out", str(tmp_path / "q")]) == 2
    assert not (tmp_path / "q").exists()


def test_cli_magnetic_nonzero_potential(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "group": "abelian:2", "grid": {"half_width": 4, "count": 8},
        "xi_grid": {"g": {"half_width": 4, "count": 6},
                    "dual": {"half_width": 3, "count": 6}}}))
    out = tmp_path / "q"
    assert main(["quantize", "--config", str(path), "--scheme", "magnetic",
                 "--potential", "landau:0.5", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scheme"] == "magnetic" and summary["hermiticity_residual"] < 1e-12


@pytest.mark.parametrize("potential,degree,points",
                         [("linear3:0.5", 1, 1), ("zero", 0, 0)])
def test_cli_magnetic_summary_records_the_circulation_rule(tmp_path, potential, degree,
                                                           points):
    # the zero potential builds the plain system: no circulation is taken
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(H1_SMALL))
    out = tmp_path / "q"
    assert main(["quantize", "--config", str(path), "--scheme", "magnetic",
                 "--potential", potential, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["potential"] == {"name": potential, "degree": degree,
                                    "circulation_points": points}


ABELIAN2 = {"group": "abelian:2", "grid": {"half_width": 4, "count": 8},
            "xi_grid": {"g": {"half_width": 4, "count": 6}, "dual": {"half_width": 3, "count": 6}}}
H1_Z5 = {"group": "heisenberg:1", "grid": {"half_width": 3.0, "count": 5},
         "xi_grid": {"g": {"half_width": 3.0, "count": 5}, "dual": {"half_width": 2.0, "count": 3}}}


@pytest.mark.parametrize("config, args, record", [
    (ABELIAN2, ["--scheme", "berezin"], {"nodes": 36, "groups": 1, "central_axes": [0, 1]}),
    (ABELIAN2, ["--scheme", "magnetic", "--potential", "landau:0.5"],
     {"nodes": 36, "groups": 1, "central_axes": [0, 1]}),
    (H1_Z5, ["--scheme", "berezin"], {"nodes": 125, "groups": 25, "central_axes": [2]}),
    (H1_Z5, ["--scheme", "tau", "--tau", "symmetric"],
     {"nodes": 125, "groups": 25, "central_axes": [2]}),
    (H1_Z5, ["--scheme", "magnetic", "--potential", "linear3:0.5"],
     {"nodes": 125, "groups": 25, "central_axes": [2]}),
], ids=["abelian2-berezin", "abelian2-magnetic", "h1-berezin", "h1-tau", "h1-magnetic"])
def test_cli_summary_records_the_z_groups(tmp_path, config, args, record):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "q"
    assert main(["quantize", "--config", str(path), *args, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["z_quadrature"] == record


@pytest.mark.parametrize("symbol, scheme", [({"kind": "one"}, "berezin"), (None, "op")])
def test_cli_summary_has_no_z_groups_without_an_assembled_kernel(tmp_path, symbol, scheme):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, "scheme": scheme,
                                **({"symbol": symbol} if symbol else {})}))
    out = tmp_path / "q"
    assert main(["quantize", "--config", str(path), "--out", str(out)]) == 0
    assert "z_quadrature" not in json.loads((out / "summary.json").read_text())


def test_report_determinism():
    a = run_suites("weyl", seed=5)
    b = run_suites("weyl", seed=5)
    ra = [(c.name, c.residual, c.tolerance) for c in a.checks]
    rb = [(c.name, c.residual, c.tolerance) for c in b.checks]
    assert ra == rb


def test_run_suites_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        run_suites([])
    with pytest.raises(KeyError):
        run_suites("nope")


def test_cli_quantize_one_svd_for_all_norms(tmp_path, monkeypatch):
    calls = []
    singular_values = OperatorMatrix.singular_values

    def counted(self):
        calls.append(1)
        return singular_values(self)

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL, "scheme": "berezin"}))
    out_dir = tmp_path / "out"
    monkeypatch.setattr(OperatorMatrix, "singular_values", counted)
    assert main(["quantize", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    summary = json.loads((out_dir / "summary.json").read_text())
    op = load_matrix(str(out_dir / "matrix"))
    for key, p in (("1", 1), ("2", 2), ("inf", float("inf"))):
        ref = op.schatten(p)
        assert abs(summary["schatten"][key] - ref) <= 1e-12 * ref
