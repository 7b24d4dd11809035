"""Reference computations for the benchmark's output checks.

Everything here is written from the formulas, with plain numpy, and imports
nothing from nilquant, so a check that compares a library output with these
values compares two independent computations.

Conventions match the library: Haar measure is Lebesgue measure in
exponential coordinates, the dual measure carries (2 pi)^{-n}, the window is
the isotropic unit-width Gaussian renormalized by its quadrature norm on the
operator grid, and phase-space points are (z, zeta).

Run this file to execute the self-tests: each compares a reference routine
with a value that can be worked out by hand.
"""

from __future__ import annotations

import math
import sys

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Grids and Gaussians
# ---------------------------------------------------------------------------

def midpoint_axis(half_width: float, count: int) -> np.ndarray:
    h = 2.0 * half_width / count
    return -half_width + (np.arange(count) + 0.5) * h


def midpoint_nodes(n: int, half_width: float, count: int) -> tuple[np.ndarray, float]:
    """(nodes, cell volume) of the cell-centred grid on [-L, L]^n, C order."""
    axis = midpoint_axis(half_width, count)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    return nodes, (2.0 * half_width / count) ** n


def unit_gaussian(p, sigma: float, center, modulation) -> np.ndarray:
    """L2-normalized Gaussian on R^n with a linear phase:
    pi^{-n/4} sigma^{-n/2} exp(-|p - c|^2 / (2 sigma^2)) exp(i <p | m>)."""
    p = np.asarray(p, float)
    n = p.shape[-1]
    c = np.asarray(center, float)
    m = np.asarray(modulation, float)
    amp = math.pi ** (-n / 4.0) * sigma ** (-n / 2.0)
    quad = -np.sum((p - c) ** 2, axis=-1) / (2.0 * sigma ** 2)
    return amp * np.exp(quad + 1j * (p @ m))


def gaussian_inner(a: dict, b: dict) -> complex:
    """<u_a, u_b> = integral u_a conj(u_b) dx for two unit Gaussians, axis by axis:
    integral exp(-alpha t^2 + beta t - gamma) dt = sqrt(pi/alpha) exp(beta^2/(4 alpha) - gamma)."""
    sa, sb = a["sigma"], b["sigma"]
    n = len(a["center"])
    alpha = 1.0 / (2 * sa ** 2) + 1.0 / (2 * sb ** 2)
    out = complex((math.pi ** (-n / 4.0)) ** 2 * (sa * sb) ** (-n / 2.0))
    for ca, cb, ma, mb in zip(a["center"], b["center"], a["modulation"], b["modulation"]):
        beta = ca / sa ** 2 + cb / sb ** 2 + 1j * (ma - mb)
        gamma = ca ** 2 / (2 * sa ** 2) + cb ** 2 / (2 * sb ** 2)
        out *= math.sqrt(math.pi / alpha) * np.exp(beta ** 2 / (4 * alpha) - gamma)
    return complex(out)


def window_constant(nodes: np.ndarray, vol: float) -> float:
    """Amplitude c of the window c exp(-|x|^2/2), unit norm under grid quadrature."""
    return 1.0 / math.sqrt(vol * float(np.sum(np.exp(-np.sum(nodes ** 2, axis=-1)))))


def window(p, c: float) -> np.ndarray:
    return c * np.exp(-0.5 * np.sum(np.asarray(p, float) ** 2, axis=-1))


# ---------------------------------------------------------------------------
# The Heisenberg group H1 and the linear symmetric-gauge potential
# ---------------------------------------------------------------------------

def h1_mul(x, y) -> np.ndarray:
    """(a, b, c) . (a', b', c') = (a + a', b + b', c + c' + (a b' - b a') / 2)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    x, y = np.broadcast_arrays(x, y)
    out = x + y
    out[..., 2] += 0.5 * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0])
    return out


def linear_circulation(b: float, x, y) -> np.ndarray:
    """Circulation of A(p) = (b/2)(-p2, p1, 0) along the straight segment x -> y.

    A is linear, so the integral of <y - x | A> along the segment is its value
    at the midpoint, which simplifies to (b/2)(x1 y2 - x2 y1).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return 0.5 * b * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0])


# ---------------------------------------------------------------------------
# Gaussian phase-space symbols
# ---------------------------------------------------------------------------
#
# A symbol is a dict with keys amplitude (real), x_center, x_sigma, xi_center,
# xi_sigma (centers are n-vectors, widths are scalars); no linear phases:
#
#     f(x, xi) = A exp(-|x - a|^2 / (2 s^2)) exp(-|xi - d|^2 / (2 t^2)).

def symbol_value(sym: dict, x, xi) -> np.ndarray:
    x = np.asarray(x, float)
    xi = np.asarray(xi, float)
    qx = np.sum((x - sym["x_center"]) ** 2, axis=-1) / (2 * sym["x_sigma"] ** 2)
    qxi = np.sum((xi - sym["xi_center"]) ** 2, axis=-1) / (2 * sym["xi_sigma"] ** 2)
    return sym["amplitude"] * np.exp(-qx - qxi)


def fibre_transform(sym: dict, x, V) -> np.ndarray:
    """(2 pi)^{-n} integral f(x, zeta) exp(-i <V | zeta>) d zeta, axis by axis:
        (2 pi)^{-1} integral exp(-(t - d)^2/(2 s^2) - i v t) dt
            = s/sqrt(2 pi) exp(-i v d - s^2 v^2/2)."""
    x = np.asarray(x, float)
    V = np.asarray(V, float)
    s = sym["xi_sigma"]
    d = np.asarray(sym["xi_center"], float)
    n = V.shape[-1]
    gx = np.exp(-np.sum((x - sym["x_center"]) ** 2, axis=-1) / (2 * sym["x_sigma"] ** 2))
    fibre = ((s / math.sqrt(TWO_PI)) ** n
             * np.exp(-1j * (V @ d) - 0.5 * s ** 2 * np.sum(V ** 2, axis=-1)))
    return sym["amplitude"] * gx * fibre


def symbol_integral(sym: dict, n: int) -> float:
    """integral f dx dxi / (2 pi)^n = A s^n t^n."""
    return sym["amplitude"] * (sym["x_sigma"] * sym["xi_sigma"]) ** n


def symbol_l2_norm(sym: dict, n: int) -> float:
    """||f||_{L2(Xi)} with the (2 pi)^{-n} dual measure: |A| (pi s t)^{n/2} / (2 pi)^{n/2}."""
    return abs(sym["amplitude"]) * (math.pi * sym["x_sigma"] * sym["xi_sigma"]
                                    / TWO_PI) ** (n / 2.0)


# ---------------------------------------------------------------------------
# Berezin kernels on H1, one entry at a time
# ---------------------------------------------------------------------------

def berezin_entry_h1(sym: dict, x, y, z_nodes, z_vol, c: float,
                     variant: str = "plain", b: float = 0.0) -> complex:
    """K(x, y) = integral fhat2(z, P(z, x) - P(z, y)) g(z, x) conj(g(z, y)) dz.

    plain:     P(z, x) = zx,                 g(z, x) = omega(zx)
    symmetric: P(z, x) = (z/2)^{-1} zx,      g(z, x) = omega(zx)
    magnetic:  P(z, x) = zx,                 g(z, x) = omega(zx) exp(-i Gamma[[zx, x]])
    """
    zx = h1_mul(z_nodes, x)
    zy = h1_mul(z_nodes, y)
    gx = window(zx, c)
    gy = window(zy, c)
    if variant == "symmetric":
        px, py = h1_mul(-0.5 * z_nodes, zx), h1_mul(-0.5 * z_nodes, zy)
    elif variant in ("plain", "magnetic"):
        px, py = zx, zy
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "magnetic":
        gx = gx * np.exp(-1j * linear_circulation(b, zx, np.asarray(x, float)))
        gy = gy * np.exp(-1j * linear_circulation(b, zy, np.asarray(y, float)))
    vals = fibre_transform(sym, z_nodes, px - py) * gx * np.conjugate(gy)
    return complex(z_vol * np.sum(vals))


# ---------------------------------------------------------------------------
# Fourier-Wigner transform on H1, one phase-space point at a time
# ---------------------------------------------------------------------------

def fourier_wigner_point_h1(u, z, zeta, y_nodes, y_vol, c: float) -> complex:
    """B u (z, zeta) = integral exp(i <y | zeta>) u(z^{-1} y) conj(omega(y)) dy."""
    zinv_y = h1_mul(-np.asarray(z, float), y_nodes)
    vals = np.exp(1j * (y_nodes @ np.asarray(zeta, float))) * u(zinv_y) * window(y_nodes, c)
    return complex(y_vol * np.sum(vals))


# ---------------------------------------------------------------------------
# The Abelian (n = 1) convolution form of the Berezin symbol
# ---------------------------------------------------------------------------

def lambda_table(s_nodes, eta_nodes, y_nodes, y_vol, c: float) -> np.ndarray:
    """Lam(s, eta) = omega(s) integral exp(-i y eta) conj(omega(s - y)) dy on R."""
    s = np.asarray(s_nodes, float).reshape(-1)
    y = np.asarray(y_nodes, float).reshape(-1)
    eta = np.asarray(eta_nodes, float).reshape(-1)
    inner = c * np.exp(-0.5 * (s[:, None] - y[None, :]) ** 2)
    phases = np.exp(-1j * np.outer(y, eta))
    return (c * np.exp(-0.5 * s ** 2))[:, None] * (y_vol * (inner @ phases))


def convolution_symbol(sym: dict, lam, s_nodes, s_vol, eta_nodes, eta_vol,
                       x: float, xi: float) -> complex:
    """a(x, xi) = integral integral Lam(s, eta) f(s - x, eta - xi) ds d eta / (2 pi)."""
    s = np.asarray(s_nodes, float).reshape(-1)
    eta = np.asarray(eta_nodes, float).reshape(-1)
    f = symbol_value(sym, (s[:, None] - x)[..., None], (eta[None, :] - xi)[..., None])
    return complex(s_vol * eta_vol / TWO_PI * np.sum(lam * f))


# ---------------------------------------------------------------------------
# Self-tests against values worked out by hand
# ---------------------------------------------------------------------------

def self_test() -> list[tuple[str, float, float]]:
    """Return (name, residual, tolerance) for each hand-checkable value."""
    out = []

    # (1,0,0).(0,1,0) = (1,1,1/2); the other order gives -1/2; x.x^{-1} = e.
    r = max(np.max(np.abs(h1_mul([1, 0, 0], [0, 1, 0]) - [1, 1, 0.5])),
            np.max(np.abs(h1_mul([0, 1, 0], [1, 0, 0]) - [1, 1, -0.5])),
            np.max(np.abs(h1_mul([0.3, -1.2, 2.0], [-0.3, 1.2, -2.0]))))
    out.append(("h1_product", float(r), 0.0))

    # At x = a and V = 0: A (t / sqrt(2 pi))^n; with A = 2, t = 1, n = 3: 2 / (2 pi)^{3/2}.
    sym = {"amplitude": 2.0, "x_center": np.zeros(3), "x_sigma": 1.0,
           "xi_center": np.array([1.0, 0.0, 0.0]), "xi_sigma": 1.0}
    v0 = fibre_transform(sym, np.zeros(3), np.zeros(3))
    # At V = (pi, 0, 0) the center d = (1, 0, 0) adds the phase e^{-i pi} = -1
    # and the width the factor e^{-pi^2/2}.
    v1 = fibre_transform(sym, np.zeros(3), np.array([math.pi, 0.0, 0.0]))
    r = max(abs(v0 - 2.0 / TWO_PI ** 1.5),
            abs(v1 + 2.0 / TWO_PI ** 1.5 * math.exp(-math.pi ** 2 / 2)))
    out.append(("gaussian_fibre_transform", float(r), 1e-15))

    # b = 2 from (1,0,0) to (0,1,0): (2/2)(1*1 - 0*0) = 1; reversed: -1.
    r = max(abs(linear_circulation(2.0, np.array([1.0, 0, 0]), np.array([0, 1.0, 0])) - 1.0),
            abs(linear_circulation(2.0, np.array([0, 1.0, 0]), np.array([1.0, 0, 0])) + 1.0))
    out.append(("linear_circulation", float(r), 1e-15))

    # Trace of the quadrature kernel of a unit symbol (A = s = t = 1) is its
    # phase-space integral, 1.
    x_nodes, x_vol = midpoint_nodes(3, 4.5, 7)
    z_nodes, z_vol = midpoint_nodes(3, 3.5, 5)
    c = window_constant(x_nodes, x_vol)
    unit = {"amplitude": 1.0, "x_center": np.zeros(3), "x_sigma": 1.0,
            "xi_center": np.zeros(3), "xi_sigma": 1.0}
    tr = x_vol * sum(berezin_entry_h1(unit, x, x, z_nodes, z_vol, c).real for x in x_nodes)
    out.append(("berezin_entry_trace", abs(tr - 1.0), 2e-2))

    # FW[omega, omega](0, 0) = ||omega||^2 = 1 under the same quadrature.
    fw = fourier_wigner_point_h1(lambda p: window(p, c), np.zeros(3), np.zeros(3),
                                 x_nodes, x_vol, c)
    out.append(("fourier_wigner_origin", abs(fw - 1.0), 1e-12))

    # Lam(0, 0) = pi^{-1/2} integral exp(-y^2/2) dy = sqrt(2).
    s = midpoint_axis(10.0, 128)
    c1 = window_constant(s[:, None], 20.0 / 128)
    lam = lambda_table([0.0], [0.0], s, 20.0 / 128, c1)
    out.append(("lambda_origin", abs(lam[0, 0] - math.sqrt(2.0)), 1e-9))
    return out


if __name__ == "__main__":
    worst_ok = True
    for name, res, tol in self_test():
        ok = res <= tol
        worst_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: residual={res:.3e} tol={tol:.1e}")
    sys.exit(0 if worst_ok else 1)
