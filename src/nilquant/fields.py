"""Complex-valued fields on the group, the dual, and the phase space.

Analytic fields wrap a vectorized evaluator and can be evaluated at arbitrary
points, which is what the translation-heavy formulas need (arguments like
z^{-1}x never hit grid nodes).  Gridded fields interpolate multilinearly
inside their box and vanish outside; anything computed through them carries
an ``interpolated`` flag so downstream checks can tell exact evaluations from
approximate ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import RegularGridInterpolator

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


def gridded_field(grid: Grid, samples: np.ndarray, domain: str = DOMAIN_GROUP) -> Field:
    """Field from samples on a grid; multilinear interpolation, zero outside."""
    shaped = np.asarray(samples, dtype=complex).reshape(grid.counts)
    interp = RegularGridInterpolator(tuple(grid.axes()), shaped, method="linear",
                                     bounds_error=False, fill_value=0.0)
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
# Gaussian test data
# ---------------------------------------------------------------------------

def gaussian(n: int, sigma=1.0, center=None, modulation=None,
             amplitude=None, domain: str = DOMAIN_GROUP) -> Field:
    """Gaussian with optional linear phase:

        amplitude * exp(-|x - center|^2 / (2 sigma^2)) * exp(i <x | modulation>)

    With the default amplitude the field has unit L2 norm on R^n.  Without a
    modulation (or with an all-zero one) the values are amplitude times one
    real exp, tens of times cheaper than the complex exp of the phased form
    and equal to it up to the last bit of that exp; they are still returned
    as a complex array, since callers multiply phases into them in place.
    Raises
    ValueError for a width that is not finite and positive, a center that is
    not finite or not n components, and a modulation or amplitude that is
    not finite.
    """
    sig = np.broadcast_to(np.asarray(sigma, float), (n,)).copy()
    c = np.zeros(n) if center is None else np.asarray(center, float)
    m = np.zeros(n) if modulation is None else np.asarray(modulation, float)
    if c.shape not in ((), (n,)):
        raise ValueError(f"Gaussian center must have {n} components, got shape {c.shape}")
    if not (np.all(np.isfinite(sig)) and np.all(sig > 0)):
        raise ValueError(f"Gaussian widths must be finite and positive, got {sig.tolist()}")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(m))):
        raise ValueError("Gaussian centers and modulations must be finite")
    if amplitude is None:
        amplitude = math.pi ** (-n / 4.0) / math.sqrt(float(np.prod(sig)))
    elif not np.isfinite(amplitude):
        raise ValueError(f"Gaussian amplitude must be finite, got {amplitude}")

    phased = bool(np.any(m))

    def fn(p):
        d = (p - c) / sig
        quad = -0.5 * np.einsum("...i,...i->...", d, d)
        if not phased:
            return np.multiply(amplitude, np.exp(quad), dtype=complex)
        phase = np.einsum("...i,i->...", p, m)
        return amplitude * np.exp(quad + 1j * phase)

    return Field(fn, n, domain)


def random_gaussian(rng: np.random.Generator, n: int, center_scale: float = 1.0,
                    modulation_scale: float = 1.0, sigma_range=(0.8, 1.25),
                    domain: str = DOMAIN_GROUP) -> Field:
    """Seeded random unit Gaussian for property checks."""
    sigma = rng.uniform(*sigma_range)
    center = rng.uniform(-center_scale, center_scale, size=n)
    modulation = rng.uniform(-modulation_scale, modulation_scale, size=n)
    return gaussian(n, sigma, center, modulation, domain=domain)
