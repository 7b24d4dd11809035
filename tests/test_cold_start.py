"""Cold start: importing the package and running every quantization loads
numpy only; scipy's interpolator loads on the first interpolated value.

Each check that depends on what a fresh interpreter has imported runs in a
subprocess, because the test session itself may already hold scipy.
"""

import json
import subprocess
import sys
import textwrap

import numpy as np

from nilquant.algebra import heisenberg
from nilquant.grids import Grid
from nilquant.operators import OperatorMatrix
from nilquant.pseudodiff import symbol_from_kernel

# the small abelian:2 config of the console-script checks
CONFIG = {"group": "abelian:2", "grid": {"half_width": 4, "count": 8},
          "xi_grid": {"g": {"half_width": 4, "count": 6},
                      "dual": {"half_width": 3, "count": 6}}}

COLD_START = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import nilquant, nilquant.cli
assert not scipy_modules(), scipy_modules()[:5]

cfg, out = sys.argv[1], sys.argv[2]
for i, args in enumerate((["--scheme", "op"], ["--scheme", "berezin"],
                          ["--scheme", "tau", "--tau", "symmetric"],
                          ["--scheme", "magnetic", "--potential", "landau:0.5"])):
    code = nilquant.cli.main(["quantize", "--config", cfg, *args, "--out", f"{out}/q{i}"])
    assert code == 0, (args, code)
    assert not scipy_modules(), (args, scipy_modules()[:5])

import numpy as np
from nilquant.fields import gridded_field
from nilquant.grids import Grid

grid = Grid.box(2, 2.0, (5, 4))
rng = np.random.default_rng(7)
samples = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
pts = rng.uniform(-2.5, 2.5, size=(40, 2))  # some outside the box
got = gridded_field(grid, samples)(pts)
assert scipy_modules()

from scipy.interpolate import RegularGridInterpolator
want = RegularGridInterpolator(tuple(grid.axes()), samples.reshape(grid.counts),
                               method="linear", bounds_error=False, fill_value=0.0)(pts)
assert got.tobytes() == want.tobytes()
assert np.any(got == 0) and np.all(got[np.any(np.abs(pts) > 2.0, axis=1)] == 0)
"""


def test_import_and_quantize_load_no_scipy_until_an_interpolated_value(tmp_path):
    cfg = tmp_path / "quantize.json"
    cfg.write_text(json.dumps(CONFIG))
    subprocess.run([sys.executable, "-c", textwrap.dedent(COLD_START), str(cfg),
                    str(tmp_path)], check=True)


def test_sampled_kernel_recovery_matches_a_direct_interpolator():
    from scipy.interpolate import RegularGridInterpolator

    alg, grid = heisenberg(), Grid.box(3, 2.0, (4, 3, 5))
    rng = np.random.default_rng(3)
    K = rng.normal(size=(grid.size, grid.size)) + 1j * rng.normal(size=(grid.size, grid.size))
    xs, xis = grid.nodes()[[0, 17, 41]], rng.normal(size=(2, 3))
    rec = symbol_from_kernel(alg, OperatorMatrix(grid, K), grid, xs, xis)
    assert rec.approximate
    y = grid.nodes()
    phases = np.exp(-1j * (y @ xis.T))
    for k, idx in enumerate((0, 17, 41)):
        row = RegularGridInterpolator(tuple(grid.axes()), K[idx].reshape(grid.counts),
                                      bounds_error=False, fill_value=0.0)
        want = grid.weight * (row(alg.bch(-y, xs[k])) @ phases)
        assert rec.values[k].tobytes() == want.tobytes()
