"""Phase-space symbols with closed-form partial Fourier transforms.

Kernel assemblies reduce the fibre integral over the dual variable
analytically; a symbol therefore exposes, besides pointwise evaluation
f(x, xi), the two partial transforms

    hat2(x, V)   = (2 pi)^{-n} integral f(x, zeta) exp(-i <V | zeta>) d zeta
    check2(x, V) = (2 pi)^{-n} integral f(x, xi)   exp(+i <V | xi>)  d xi
                 = hat2(x, -V)

The test library is built from Gaussians in x and xi with optional linear
phases; each ships its exact transforms and exact L^p(Xi) norms.  Point-mass
cases that cannot be sampled (a delta symbol on Xi, the pure Weyl phase,
symbols constant in one variable) are dedicated classes that quantizers
special-case.

The quadratic exponents arising from Gaussian transforms evaluated at
V = P_i - Q_j split as row + column - cross terms with a real cross term of
rank n, returned as its two factors (cross = Xs @ Q.T); the (i, j) matrix of
transform values then costs one small matrix product, one real exp and two
unit phase vectors, the hot path of every Berezin-type assembly.  The split
broadcasts over a leading axis of z nodes (x of shape (c, 1, n), P and Q of
shapes (c, m, n) and (c, k, n)), so an assembly evaluates a whole chunk of
nodes in one call (`berezin.assemble_kernel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi


class SymbolError(ValueError):
    pass


def _vec(value, n) -> np.ndarray:
    if value is None:
        return np.zeros(n)
    if np.isscalar(value):
        return np.full(n, float(value))
    out = np.asarray(value, float)
    if out.shape != (n,):
        raise SymbolError(f"expected {n} components, got {out.shape}")
    return out


def _phase_point(z, zeta) -> tuple[np.ndarray, np.ndarray]:
    """(z, zeta) as finite 1-d arrays of one length."""
    z, zeta = np.atleast_1d(np.asarray(z, float)), np.atleast_1d(np.asarray(zeta, float))
    if z.ndim != 1 or z.shape != zeta.shape:
        raise SymbolError(f"z and zeta must be vectors of one length, got {z.shape} and "
                          f"{zeta.shape}")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zeta))):
        raise SymbolError("z and zeta must be finite")
    return z, zeta


def _pair_exponent(sigma: np.ndarray, center: np.ndarray, phase: np.ndarray,
                   P: np.ndarray, Q: np.ndarray):
    """Split the Gaussian-transform exponent at V = P_i - Q_j into
    row + col - cross form:

        i <w | center> - |sigma w|^2 / 2,   w = phase - P_i + Q_j,

    so the (i, j) matrix of exponents is row[:, None] + col[None, :] - cross
    with cross = Xs @ Q.T; the factors (Xs, Q) are returned, not the product.
    P (..., m, n) and Q (..., k, n) may carry the same leading axes (a chunk
    of z nodes); row, col, Xs and Q then carry them too.
    """
    s2 = sigma ** 2
    A = phase - np.asarray(P, float)
    Q = np.asarray(Q, float)
    row = -0.5 * np.einsum("...k,k,...k->...", A, s2, A) + 1j * (A @ center)
    col = -0.5 * np.einsum("...k,k,...k->...", Q, s2, Q) + 1j * (Q @ center)
    return row, col, A * s2, Q


@dataclass(frozen=True)
class GaussianFactor:
    """exp(-|t - center|^2 / (2 sigma^2)) exp(i <t | phase>), per-axis sigma."""

    center: np.ndarray
    sigma: np.ndarray
    phase: np.ndarray

    @classmethod
    def make(cls, n, center=None, sigma=1.0, phase=None) -> "GaussianFactor":
        sig = _vec(sigma, n)
        center, phase = _vec(center, n), _vec(phase, n)
        if not all(np.all(np.isfinite(v)) for v in (center, sig, phase)):
            raise SymbolError("Gaussian centers, widths and phases must be finite")
        if np.any(sig <= 0):
            raise SymbolError("Gaussian widths must be positive")
        return cls(center, sig, phase)

    @property
    def n(self) -> int:
        return len(self.center)

    def __call__(self, t) -> np.ndarray:
        """Complex values at points t (..., n); one real exp when the phase
        is zero (see `fields.gaussian`)."""
        t = np.asarray(t, float)
        d = (t - self.center) / self.sigma
        quad = -0.5 * np.einsum("...i,...i->...", d, d)
        if not self.phase.any():
            return np.exp(quad).astype(complex)
        ph = np.einsum("...i,i->...", t, self.phase)
        return np.exp(quad + 1j * ph)

    def abs_power_integral(self, s: float) -> float:
        """integral |g|^s dt = prod_k sqrt(2 pi sigma_k^2 / s)."""
        return float(np.prod(np.sqrt(TWO_PI * self.sigma ** 2 / s)))

    def translate(self, shift) -> "GaussianFactor":
        return replace(self, center=self.center + _vec(shift, self.n))

    def conjugate(self) -> "GaussianFactor":
        return replace(self, phase=-self.phase)


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

        x is one point (n,) with P (m, n) and Q (k, n), or a chunk of c points
        (c, 1, n) with P (c, m, n) and Q (c, k, n); the outputs then carry the
        leading c axis, and the prefactor is a complex for one point and
        broadcasts against row (c, m) for a chunk."""
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
        return cls(amplitude,
                   GaussianFactor.make(n, x_center, x_sigma, x_phase),
                   GaussianFactor.make(n, xi_center, xi_sigma, xi_phase))

    @property
    def n(self) -> int:
        return self.gx.n

    def __call__(self, x, xi):
        return self.amplitude * self.gx(x) * self.gxi(xi)

    # -- partial transform in the dual variable -----------------------------
    #
    # (2 pi)^{-n} int exp(-(z-d)^2/(2 s^2)) e^{i<phi|z>} e^{-i<V|z>} dz
    #    = prod_k (s_k / sqrt(2 pi)) * exp(i<w|d> - s^2 w^2 / 2),  w = phi - V.

    def _prefactor(self) -> complex:
        return self.amplitude * float(np.prod(self.gxi.sigma / math.sqrt(TWO_PI)))

    def hat2(self, x, V):
        V = np.asarray(V, float)
        w = self.gxi.phase - V
        quad = -0.5 * np.einsum("...i,i,...i->...", w, self.gxi.sigma ** 2, w)
        ph = np.einsum("...i,i->...", w, self.gxi.center)
        return self._prefactor() * self.gx(x) * np.exp(quad + 1j * ph)

    def hat2_pair_exponent(self, x, P, Q):
        """(prefactor, row, col, Xs, Qf) with hat2(x, P_i - Q_j) =
        prefactor * exp(row_i + col_j - (Xs @ Qf.T)_ij), for one point x or a
        chunk of them (`XiSymbol.hat2_pair_exponent`); the prefactor is a
        complex for one point and a (c, 1) array for a chunk.

        Kernel assemblies fold window factors and quadrature weights into the
        row/col vectors and exponentiate in place — the per-chunk hot path.
        """
        # one ufunc product for one point or a chunk, so that the two agree
        # bitwise (a product of Python complex numbers may round otherwise)
        pref = np.multiply(self._prefactor(), self.gx(np.asarray(x, float)))
        return (complex(pref) if np.ndim(pref) == 0 else pref,) + _pair_exponent(
            self.gxi.sigma, self.gxi.center, self.gxi.phase, P, Q)

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
        if np.any(self.gx.phase) or np.any(self.gxi.phase):
            ax = np.exp(1j * (self.gx.phase @ self.gx.center)
                        - 0.5 * np.sum(self.gx.sigma ** 2 * self.gx.phase ** 2))
            bx = np.exp(1j * (self.gxi.phase @ self.gxi.center)
                        - 0.5 * np.sum(self.gxi.sigma ** 2 * self.gxi.phase ** 2))
        else:
            ax = bx = 1.0
        return (self.amplitude * ax * bx
                * self.gx.abs_power_integral(1.0) * self.gxi.abs_power_integral(1.0)
                / TWO_PI ** self.n)

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

    When psi is a GaussianFactor the partial transform is closed-form;
    otherwise supply `psi_field` and quantizers fall back to quadrature.
    """

    psi: GaussianFactor | None
    n: int
    psi_field: object = None

    @classmethod
    def gaussian(cls, n, center=None, sigma=1.0, phase=None) -> "XiOnlySymbol":
        return cls(GaussianFactor.make(n, center, sigma, phase), n)

    def __call__(self, x, xi):
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        x, xi = np.broadcast_arrays(x, xi)
        vals = self.psi(xi) if self.psi is not None else self.psi_field(xi)
        return vals * np.ones(x.shape[:-1])

    def _transform(self, w):
        # (2 pi)^{-n} int psi(zeta) e^{i<w|zeta>} d zeta for Gaussian psi
        if self.psi is None:
            raise SymbolError("no closed-form transform for a sampled dual profile")
        pref = float(np.prod(self.psi.sigma / math.sqrt(TWO_PI)))
        quad = -0.5 * np.einsum("...i,i,...i->...", w, self.psi.sigma ** 2, w)
        ph = np.einsum("...i,i->...", w, self.psi.center)
        return pref * np.exp(quad + 1j * ph)

    def hat2(self, x, V):
        return self._transform(self.psi.phase - np.asarray(V, float)) if self.psi is not None \
            else super().hat2(x, V)

    def hat2_pair_exponent(self, x, P, Q):
        if self.psi is None:
            raise SymbolError("no closed-form transform for a sampled dual profile")
        pref = complex(np.prod(self.psi.sigma / math.sqrt(TWO_PI)))
        return (pref,) + _pair_exponent(self.psi.sigma, self.psi.center,
                                        self.psi.phase, P, Q)

    @property
    def real(self) -> bool:
        """A Gaussian dual profile with no phase."""
        return bool(self.psi is not None and not np.any(self.psi.phase))
