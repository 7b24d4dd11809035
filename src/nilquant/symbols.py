"""Phase-space symbols with closed-form partial Fourier transforms.

Kernel assemblies reduce the fibre integral over the dual variable
analytically; a symbol therefore exposes, besides pointwise evaluation
f(x, xi), the two partial transforms

    hat2(x, V)   = (2 pi)^{-n} integral f(x, zeta) exp(-i <V | zeta>) d zeta
    check2(x, V) = (2 pi)^{-n} integral f(x, xi)   exp(+i <V | xi>)  d xi
                 = hat2(x, -V)

The test library is built from Gaussians in x and xi with optional linear
phases, each a `fields.GaussianFactor` that owns the closed forms: the dual
transform, its exponent at V = P_i - Q_j split as row + column - cross with
a real cross term of rank n (cross = Xs @ Q.T), and the integrals.  The
(i, j) matrix of transform values then costs one small matrix product, one
real exp and two unit phase vectors, the hot path of every Berezin-type
assembly.  The symbol's dependence on x is a prefactor alone, so the split
broadcasts over a leading axis of groups of z nodes (x of shape (c, M, n),
P and Q of shapes (c, m, n) and (c, k, n)): an assembly takes the split of
a whole chunk of groups and the prefactor at each of their members in one
call (`berezin.assemble_kernel`).
Point-mass cases that cannot be sampled (a delta symbol on Xi, the pure Weyl
phase, symbols constant in one variable) are dedicated classes that
quantizers special-case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import TWO_PI, GaussianFactor


class SymbolError(ValueError):
    pass


def _phase_point(z, zeta) -> tuple[np.ndarray, np.ndarray]:
    """(z, zeta) as finite 1-d arrays of one length."""
    z, zeta = np.atleast_1d(np.asarray(z, float)), np.atleast_1d(np.asarray(zeta, float))
    if z.ndim != 1 or z.shape != zeta.shape:
        raise SymbolError(f"z and zeta must be vectors of one length, got {z.shape} and "
                          f"{zeta.shape}")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zeta))):
        raise SymbolError("z and zeta must be finite")
    return z, zeta


def _factor(n, center, sigma, phase) -> GaussianFactor:
    """`GaussianFactor.make` with its ValueError raised as a SymbolError."""
    try:
        return GaussianFactor.make(n, center, sigma, phase)
    except ValueError as exc:
        raise SymbolError(str(exc)) from None


class XiSymbol:
    """Base class: evaluable at (x, xi); subclasses add partial transforms."""

    n: int

    def __call__(self, x, xi):
        raise NotImplementedError

    def hat2(self, x, V):
        """(2 pi)^{-n} integral f(x, zeta) e^{-i<V|zeta>} d zeta."""
        raise SymbolError(f"{type(self).__name__} has no closed-form partial transform")

    def check2(self, x, V):
        return self.hat2(x, np.negative(V))

    def hat2_pair_exponent(self, x, P, Q):
        """(prefactor, row, col, Xs, Qf) with hat2(x, P_i - Q_j) =
        prefactor * exp(row_i + col_j - cross_ij), cross = Xs @ Qf.T real.

        The prefactor depends on x alone, the rest on P and Q alone.  x is
        one point (n,) with P (m, n) and Q (k, n), or points (c, M, n) with
        P (c, m, n) and Q (c, k, n): row, col, Xs and Qf then carry the
        leading c axis, and the prefactor is a complex for one point and
        has shape (c, M) for c groups of M points (a complex constant where
        it does not depend on x)."""
        raise SymbolError(f"{type(self).__name__} has no closed-form pair transform")

    @property
    def real(self) -> bool:
        """True when f is real-valued by construction; Ber(f) is then
        self-adjoint and kernel assemblies build only one triangle."""
        return False

    def lp_norm(self, s: float) -> float:
        raise SymbolError(f"{type(self).__name__} has no closed-form L^p norm")


@dataclass(frozen=True)
class GaussianSymbol(XiSymbol):
    """f(x, xi) = amplitude * gx(x) * gxi(xi), both factors Gaussian."""

    amplitude: complex
    gx: GaussianFactor
    gxi: GaussianFactor

    @classmethod
    def make(cls, n, amplitude=1.0, x_center=None, x_sigma=1.0, x_phase=None,
             xi_center=None, xi_sigma=1.0, xi_phase=None) -> "GaussianSymbol":
        """Raises `SymbolError` for a non-finite amplitude, center, width or
        phase, or a width that is not positive."""
        amplitude = complex(amplitude)
        if not np.isfinite(amplitude):
            raise SymbolError(f"Gaussian symbol amplitude must be finite, got {amplitude}")
        return cls(amplitude, _factor(n, x_center, x_sigma, x_phase),
                   _factor(n, xi_center, xi_sigma, xi_phase))

    @property
    def n(self) -> int:
        return self.gx.n

    def __call__(self, x, xi):
        return self.amplitude * self.gx(x) * self.gxi(xi)

    def hat2(self, x, V):
        """amplitude * gx(x) * gxi.transform(V), scalars multiplied first."""
        scale, exponent = self.gxi.transform_exponent(V)
        return (self.amplitude * scale) * self.gx(x) * np.exp(exponent)

    def hat2_pair_exponent(self, x, P, Q):
        """`XiSymbol.hat2_pair_exponent` from gxi's split; kernel assemblies
        fold window factors into row and col and exponentiate in place."""
        scale, *split = self.gxi.pair_exponent(P, Q)
        # one ufunc product for one point or a chunk, so that the two agree
        # bitwise (a product of Python complex numbers may round otherwise)
        pref = np.multiply(self.amplitude * scale, self.gx(np.asarray(x, float)))
        return (complex(pref) if np.ndim(pref) == 0 else pref, *split)

    @property
    def real(self) -> bool:
        """A real amplitude and no x or xi phase."""
        return bool(np.imag(self.amplitude) == 0 and not np.any(self.gx.phase)
                    and not np.any(self.gxi.phase))

    def lp_norm(self, s: float) -> float:
        """||f||_{L^s(Xi)} with the (2 pi)^{-n} dual measure; s = inf gives |amp|."""
        if s == math.inf:
            return abs(self.amplitude)
        return abs(self.amplitude) * (self.gx.abs_power_integral(s)
                                      * self.gxi.abs_power_integral(s)
                                      / TWO_PI ** self.n) ** (1.0 / s)

    def integral(self) -> complex:
        """integral f dX over Xi (phases included) for the trace formula."""
        return self.amplitude * self.gx.integral() * self.gxi.integral() / TWO_PI ** self.n

    # -- translations used by the covariance identities ----------------------

    def translate_x(self, alg, z) -> "TranslatedSymbol":
        """Symbol (x, xi) -> f(x z^{-1}, xi)."""
        return TranslatedSymbol(self, alg, np.asarray(z, float))

    def shift_xi(self, zeta) -> "GaussianSymbol":
        """Symbol (x, xi) -> f(x, xi - zeta): recenter the dual factor.

        The partial transform picks up exactly exp(-i<V|zeta>), as the shift
        theorem demands, because only gxi.center moves.
        """
        return replace(self, gxi=self.gxi.translate(zeta))

    def conjugate(self) -> "GaussianSymbol":
        """Pointwise complex conjugate (phases flip, amplitude conjugates)."""
        return GaussianSymbol(np.conjugate(self.amplitude),
                              self.gx.conjugate(), self.gxi.conjugate())


@dataclass(frozen=True)
class TranslatedSymbol(XiSymbol):
    """g(x, xi) = base(x * z^{-1}, xi) for a fixed group element z."""

    base: GaussianSymbol
    alg: object
    z: np.ndarray

    @property
    def n(self) -> int:
        return self.base.n

    def _move(self, x):
        return self.alg.bch(np.asarray(x, float), -self.z)

    def __call__(self, x, xi):
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        x, xi = np.broadcast_arrays(x, xi)
        return self.base(self._move(x), xi)

    def hat2(self, x, V):
        return self.base.hat2(self._move(x), V)

    def hat2_pair_exponent(self, x, P, Q):
        return self.base.hat2_pair_exponent(self._move(x), P, Q)

    @property
    def real(self) -> bool:
        return self.base.real

    def lp_norm(self, s: float) -> float:
        # right translation is measure preserving
        return self.base.lp_norm(s)

    def integral(self) -> complex:
        return self.base.integral()


@dataclass(frozen=True)
class DeltaSymbol(XiSymbol):
    """mass * delta at a phase-space point, with respect to dX = dx dxi/(2pi)^n.

    Not samplable; the Berezin quantizer maps it straight to the rank-one
    projector at the point.
    """

    z: np.ndarray
    zeta: np.ndarray
    mass: float = 1.0

    @classmethod
    def at(cls, z, zeta, mass: float = 1.0) -> "DeltaSymbol":
        """Raises `SymbolError` for non-finite or unequal-length z and zeta,
        or a non-finite mass."""
        mass = float(mass)
        if not math.isfinite(mass):
            raise SymbolError(f"point mass must be finite, got {mass}")
        return cls(*_phase_point(z, zeta), mass)

    @property
    def n(self) -> int:
        return len(self.z)

    def __call__(self, x, xi):
        raise SymbolError("a point mass cannot be evaluated pointwise")

    def narrow_gaussian(self, width: float = 0.25) -> GaussianSymbol:
        """Samplable stand-in of the same total mass, for weak-form checks."""
        n = self.n
        amp = self.mass * TWO_PI ** n / (TWO_PI * width ** 2) ** n
        return GaussianSymbol.make(n, amplitude=amp, x_center=self.z, x_sigma=width,
                                   xi_center=self.zeta, xi_sigma=width)


@dataclass(frozen=True)
class PhaseSymbol(XiSymbol):
    """The pure Weyl phase eps_{z,zeta}(x, xi) = e^{i<log x|zeta>} e^{-i<log z|xi>}.

    Its dual-side transform is a point mass at log z, so quantization is the
    exact shift W(z, zeta); quantizers special-case it.
    """

    z: np.ndarray
    zeta: np.ndarray

    @classmethod
    def at(cls, z, zeta) -> "PhaseSymbol":
        """Raises `SymbolError` for non-finite or unequal-length z and zeta."""
        return cls(*_phase_point(z, zeta))

    @property
    def n(self) -> int:
        return len(self.z)

    def __call__(self, x, xi):
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        return np.exp(1j * (np.einsum("...i,i->...", x, self.zeta)
                            - np.einsum("...i,i->...", xi, self.z)))


@dataclass(frozen=True)
class XOnlySymbol(XiSymbol):
    """f = phi (x) 1: constant in the dual variable.

    The dual transform is phi(x) delta(V); Berezin quantization yields a
    multiplication operator and Op(f) is Mult(phi) — both special-cased.
    """

    phi: object  # Field on G
    n: int

    def __call__(self, x, xi):
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        x, xi = np.broadcast_arrays(x, xi)
        return self.phi(x) * np.ones(x.shape[:-1])


@dataclass(frozen=True)
class XiOnlySymbol(XiSymbol):
    """f = 1 (x) psi: depends only on the dual variable.

    When psi is a GaussianFactor the partial transform is closed-form.
    Otherwise supply `psi_field`: `pseudodiff.op_quantize` then falls back
    to quadrature over its dual grid, and raises `SymbolError` without one;
    the Berezin kernels raise `SymbolError`, as there is no closed-form pair
    transform (`berezin.conv_example_kernel` takes such a profile as a
    Field instead).
    """

    psi: GaussianFactor | None
    n: int
    psi_field: object = None

    @classmethod
    def gaussian(cls, n, center=None, sigma=1.0, phase=None) -> "XiOnlySymbol":
        return cls(_factor(n, center, sigma, phase), n)

    def __call__(self, x, xi):
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        x, xi = np.broadcast_arrays(x, xi)
        vals = self.psi(xi) if self.psi is not None else self.psi_field(xi)
        return vals * np.ones(x.shape[:-1])

    def hat2(self, x, V):
        return self.psi.transform(V) if self.psi is not None else super().hat2(x, V)

    def hat2_pair_exponent(self, x, P, Q):
        if self.psi is None:
            raise SymbolError("no closed-form transform for a sampled dual profile")
        scale, *split = self.psi.pair_exponent(P, Q)
        return (complex(scale), *split)

    @property
    def real(self) -> bool:
        """A Gaussian dual profile with no phase."""
        return bool(self.psi is not None and not np.any(self.psi.phase))
