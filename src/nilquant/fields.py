"""Complex-valued fields on the group, the dual, and the phase space.

Analytic fields wrap a vectorized evaluator and can be evaluated at arbitrary
points, which the translation-heavy formulas need (arguments like z^{-1}x
never hit grid nodes).  Gridded fields interpolate multilinearly inside their
box and vanish outside; anything computed through them carries an
``interpolated`` flag so checks can tell exact evaluations from approximate
ones.  `GaussianFactor` is the one Gaussian: windows, test fields (`gaussian`)
and the factors of Gaussian symbols, with its closed-form dual transform.  It
writes the scaled offsets (t - center) / sigma one coordinate at a time into
one buffer: numpy broadcasts slowly over a trailing axis as short as the
dimension, and the Bargmann maps evaluate it on blocks of z nodes times
y nodes.  The sum of squares stays one `einsum`, whose order of summation
fixes the values' last bits.

`grid_interpolator` builds the interpolators of gridded fields and of the
sampled-kernel symbol recovery.  It imports scipy in its body, on first use:
`scipy.interpolate` loads some 600 modules (about 0.5 s and 50 MB on a 2-vCPU
machine), and no quantization needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .grids import Grid, XiGrid

DOMAIN_GROUP = "G"
DOMAIN_DUAL = "dual"


class DomainError(ValueError):
    pass


class Field:
    """Function on G or on g#, in exponential coordinates.

    Parameters
    ----------
    fn : vectorized callable mapping (..., n) points to (...) complex values.
    n : coordinate dimension.
    domain : "G" or "dual".
    interpolated : True when values come from grid interpolation.
    """

    def __init__(self, fn: Callable, n: int, domain: str = DOMAIN_GROUP,
                 interpolated: bool = False):
        self.fn = fn
        self.n = n
        self.domain = domain
        self.interpolated = interpolated

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.n:
            raise DomainError(f"points have dimension {pts.shape[-1]}, field has {self.n}")
        return np.asarray(self.fn(pts))

    def compatible_grid(self, grid: Grid):
        if grid.n != self.n:
            raise DomainError("grid dimension mismatch")
        if (self.domain == DOMAIN_DUAL) != grid.dual:
            raise DomainError(f"field on {self.domain!r} paired with "
                              f"{'dual' if grid.dual else 'group'} grid")

    def map(self, post, interpolated: bool | None = None) -> "Field":
        """Pointwise postcomposition: x -> post(self(x))."""
        return Field(lambda p: post(self(p)), self.n, self.domain,
                     self.interpolated if interpolated is None else interpolated)

    def __mul__(self, other):
        if isinstance(other, Field):
            if other.n != self.n or other.domain != self.domain:
                raise DomainError("can only multiply fields on the same domain")
            return Field(lambda p: self(p) * other(p), self.n, self.domain,
                         self.interpolated or other.interpolated)
        return Field(lambda p: self(p) * other, self.n, self.domain, self.interpolated)

    __rmul__ = __mul__

    def __add__(self, other: "Field") -> "Field":
        if not isinstance(other, Field) or other.n != self.n or other.domain != self.domain:
            raise DomainError("can only add fields on the same domain")
        return Field(lambda p: self(p) + other(p), self.n, self.domain,
                     self.interpolated or other.interpolated)

    def __sub__(self, other: "Field") -> "Field":
        return self + (-1.0) * other

    def conj(self) -> "Field":
        return self.map(np.conjugate)


def grid_interpolator(grid: Grid, values: np.ndarray):
    """Multilinear interpolator of values at the nodes of grid (C order over
    the axes, as `Grid.nodes`), zero outside the box; scipy loads on first use."""
    from scipy.interpolate import RegularGridInterpolator
    return RegularGridInterpolator(tuple(grid.axes()), np.reshape(values, grid.counts),
                                   method="linear", bounds_error=False, fill_value=0.0)


def gridded_field(grid: Grid, samples: np.ndarray, domain: str = DOMAIN_GROUP) -> Field:
    """Field from samples on a grid; multilinear interpolation, zero outside."""
    interp = grid_interpolator(grid, np.asarray(samples, dtype=complex))
    return Field(lambda p: interp(p), grid.n, domain, interpolated=True)


@dataclass
class XiSamples:
    """Samples of a phase-space function on a XiGrid, indexed [i_z, i_zeta]."""

    xi_grid: XiGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.xi_grid.g_grid.size, self.xi_grid.dual_grid.size)
        v = np.asarray(self.values, dtype=complex)
        if v.shape != expected:
            raise DomainError(f"Xi samples must have shape {expected}, got {v.shape}")
        self.values = v

    def integral(self) -> complex:
        return complex(self.xi_grid.weight * self.values.sum())

    def inner(self, other: "XiSamples") -> complex:
        if other.xi_grid != self.xi_grid:
            raise DomainError("Xi grids differ")
        return complex(self.xi_grid.weight * np.vdot(other.values, self.values))

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))

    def lp_norm(self, p: float) -> float:
        if p == math.inf:
            return float(np.max(np.abs(self.values)))
        return float((self.xi_grid.weight * np.sum(np.abs(self.values) ** p)) ** (1.0 / p))


def sample_xi(fn, xi_grid: XiGrid) -> XiSamples:
    """Evaluate fn(z, zeta), e.g. a symbol, on all node pairs of a XiGrid."""
    z, zeta = xi_grid.node_pairs()
    vals = fn(z[:, None, :], zeta[None, :, :])
    return XiSamples(xi_grid, np.asarray(vals, dtype=complex))


# ---------------------------------------------------------------------------
# Gaussians
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi


def _components(value, n: int, what: str) -> np.ndarray:
    """A scalar (broadcast) or n components as a fresh float array; None is 0."""
    v = np.asarray(0.0 if value is None else value, float)
    if v.shape not in ((), (n,)):
        raise ValueError(f"Gaussian {what} must have {n} components, got shape {v.shape}")
    return np.broadcast_to(v, (n,)).copy()


@dataclass(frozen=True)
class GaussianFactor:
    """g(t) = amplitude exp(-|t - center|^2 / (2 sigma^2)) exp(i <t | phase>),
    per-axis sigma: the one Gaussian behind windows, test fields and the
    factors of Gaussian symbols, with its dual transform

        (2 pi)^{-n} integral g(t) e^{-i<V|t>} dt = scale exp(i<w|center> - |sigma w|^2/2),
        w = phase - V,  scale = amplitude prod_k sigma_k / sqrt(2 pi).
    """

    center: np.ndarray
    sigma: np.ndarray
    phase: np.ndarray
    amplitude: complex = 1.0

    @classmethod
    def make(cls, n, center=None, sigma=1.0, phase=None, amplitude=1.0) -> "GaussianFactor":
        """Scalars broadcast over the axes; amplitude None gives unit L2 norm.
        Raises ValueError for widths not finite and positive, centers or
        phases not finite or not n components, and a non-finite amplitude."""
        center, sigma, phase = (_components(v, n, what) for v, what in
                                ((center, "center"), (sigma, "width"), (phase, "phase")))
        if not (np.all(np.isfinite(sigma)) and np.all(sigma > 0)):
            raise ValueError(f"Gaussian widths must be finite and positive, got {sigma.tolist()}")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(phase))):
            raise ValueError("Gaussian centers and phases must be finite")
        if amplitude is None:  # after the width check, which keeps it finite
            amplitude = math.pi ** (-n / 4.0) / math.sqrt(float(np.prod(sigma)))
        elif not np.isfinite(amplitude):
            raise ValueError(f"Gaussian amplitude must be finite, got {amplitude}")
        return cls(center, sigma, phase, amplitude)

    @property
    def n(self) -> int:
        return len(self.center)

    def __call__(self, t) -> np.ndarray:
        """Complex values at points t (..., n); without a phase, the amplitude
        times one real exp (tens of times cheaper than the complex exp, equal
        to it up to its last bit), still complex: callers multiply phases in."""
        t = np.asarray(t, float)
        if t.shape[-1:] != self.center.shape:  # a scalar or a trailing axis of 1
            t = np.broadcast_to(t, np.broadcast(t, self.center).shape)
        d = np.empty(t.shape)
        for k in range(self.n):  # per component: see the module notes
            np.subtract(t[..., k], self.center[k], out=d[..., k])
            np.divide(d[..., k], self.sigma[k], out=d[..., k])
        quad = -0.5 * np.einsum("...i,...i->...", d, d)
        if not self.phase.any():
            return np.multiply(self.amplitude, np.exp(quad), dtype=complex)
        ph = np.einsum("...i,i->...", t, self.phase)
        return self.amplitude * np.exp(quad + 1j * ph)

    def _scale(self):
        return self.amplitude * float(np.prod(self.sigma / math.sqrt(TWO_PI)))

    def transform_exponent(self, V):
        """(scale, exponent) with transform(V) = scale * exp(exponent)."""
        w = self.phase - np.asarray(V, float)
        quad = -0.5 * np.einsum("...i,i,...i->...", w, self.sigma ** 2, w)
        ph = np.einsum("...i,i->...", w, self.center)
        return self._scale(), quad + 1j * ph

    def transform(self, V) -> np.ndarray:
        """(2 pi)^{-n} integral g(t) e^{-i <V | t>} dt at points V (..., n)."""
        scale, exponent = self.transform_exponent(V)
        return scale * np.exp(exponent)

    def pair_exponent(self, P, Q):
        """(scale, row, col, Xs, Q) with transform(P_i - Q_j) =
        scale * exp(row_i + col_j - (Xs @ Q.T)_ij), the real cross term given
        as its two factors.  P (..., m, n) and Q (..., k, n) may share leading
        axes (a chunk of z nodes); row, col, Xs and Q then carry them too."""
        s2 = self.sigma ** 2
        A = self.phase - np.asarray(P, float)
        Q = np.asarray(Q, float)
        row = -0.5 * np.einsum("...k,k,...k->...", A, s2, A) + 1j * (A @ self.center)
        col = -0.5 * np.einsum("...k,k,...k->...", Q, s2, Q) + 1j * (Q @ self.center)
        return self._scale(), row, col, A * s2, Q

    def integral(self) -> complex:
        """integral g dt, phase included."""
        phase = np.exp(1j * (self.phase @ self.center)
                       - 0.5 * np.sum(self.sigma ** 2 * self.phase ** 2))
        return complex(self.amplitude * phase * self.abs_power_integral(1.0))

    def abs_power_integral(self, s: float) -> float:
        """integral |g / amplitude|^s dt = prod_k sqrt(2 pi sigma_k^2 / s)."""
        return float(np.prod(np.sqrt(TWO_PI * self.sigma ** 2 / s)))

    def translate(self, shift) -> "GaussianFactor":
        return replace(self, center=self.center + _components(shift, self.n, "shift"))

    def conjugate(self) -> "GaussianFactor":
        return replace(self, phase=-self.phase, amplitude=self.amplitude.conjugate())


def gaussian(n: int, sigma=1.0, center=None, modulation=None,
             amplitude=None, domain: str = DOMAIN_GROUP) -> Field:
    """Field of `GaussianFactor.make(n, center, sigma, modulation, amplitude)`,
    of unit L2 norm on R^n by default; raises ValueError as that does."""
    return Field(GaussianFactor.make(n, center, sigma, modulation, amplitude), n, domain)


def random_gaussian(rng: np.random.Generator, n: int, center_scale: float = 1.0,
                    modulation_scale: float = 1.0, sigma_range=(0.8, 1.25),
                    domain: str = DOMAIN_GROUP) -> Field:
    """Seeded random unit Gaussian for property checks."""
    sigma = rng.uniform(*sigma_range)
    center = rng.uniform(-center_scale, center_scale, size=n)
    modulation = rng.uniform(-modulation_scale, modulation_scale, size=n)
    return gaussian(n, sigma, center, modulation, domain=domain)
