"""Nilpotent Lie algebras in exponential coordinates.

A connected simply connected nilpotent group is identified with its Lie
algebra through the exponential chart, so a group point is stored as the
coordinate vector of its logarithm and the group law is the (polynomial)
Baker-Campbell-Hausdorff product

    X * Y = X + Y + [X,Y]/2 + ([X,[X,Y]] + [Y,[Y,X]])/12 + ...

which terminates at the nilpotency step.  The BCH coefficients are generated
once, with exact rational arithmetic, from Dynkin's expansion of
log(exp X exp Y); depth 6 is the supported maximum.  Each algebra compiles
them, on its first product, into a BCH program: words longer than the step
are dropped, every word is folded so that its innermost bracket is [X,Y],
brackets shared by several words are computed once, and each bracket runs
over the nonzero structure constants only, accumulating in place into the
returned array.  The product X + Y that starts it is written one component
at a time as well: numpy broadcasts slowly over a trailing axis as short as
the dimension, and the batches here, z nodes against y nodes, are large in
their leading axes.  Haar measure is Lebesgue measure in these coordinates with
normalization constant 1.

All operations broadcast over leading axes: a "vector" is any ndarray whose
last axis has length ``dim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

MAX_BCH_DEPTH = 6


class AlgebraError(ValueError):
    """Invalid structure data or unsupported operation for an algebra."""


# ---------------------------------------------------------------------------
# BCH series from Dynkin's expansion
# ---------------------------------------------------------------------------

def _dynkin_blocks(total, k):
    """All k-tuples of (p_i, q_i) with p_i+q_i >= 1 summing to `total`."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for m in range(1, total - k + 2):
        for p in range(m + 1):
            head = (p, m - p)
            for rest in _dynkin_blocks(total - m, k - 1):
                yield (head,) + rest


@lru_cache(maxsize=None)
def bch_terms(max_depth: int = MAX_BCH_DEPTH) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """BCH series as (coefficient, word) pairs up to the given bracket depth.

    Words are tuples over {0, 1} (0 stands for X, 1 for Y) to be read as
    right-nested brackets [w0,[w1,[...,[w_{m-2},w_{m-1}]...]]]; a length-1
    word is the letter itself.  Coefficients come from

        log(e^X e^Y) = sum_k (-1)^(k-1)/k  sum  [X^p1 Y^q1 ... X^pk Y^qk]
                                               / ((sum_i p_i+q_i) prod_i p_i! q_i!)

    accumulated exactly with Fractions; words whose two final letters agree
    are dropped (their bracket vanishes identically).
    """
    if max_depth > MAX_BCH_DEPTH:
        raise AlgebraError(f"BCH series is shipped through depth {MAX_BCH_DEPTH}")
    acc: dict[tuple[int, ...], Fraction] = {}
    for degree in range(1, max_depth + 1):
        for k in range(1, degree + 1):
            outer = Fraction((-1) ** (k - 1), k)
            for blocks in _dynkin_blocks(degree, k):
                denom = degree
                word: tuple[int, ...] = ()
                for p, q in blocks:
                    denom *= math.factorial(p) * math.factorial(q)
                    word += (0,) * p + (1,) * q
                if len(word) >= 2 and word[-1] == word[-2]:
                    continue
                acc[word] = acc.get(word, Fraction(0)) + outer / denom
    return tuple((float(v), w) for w, v in sorted(acc.items(), key=lambda t: (len(t[0]), t[0]))
                 if v != 0)


# ---------------------------------------------------------------------------
# The compiled BCH program
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BracketNode:
    """One bracket ad_{p_0} ... ad_{p_{r-1}} [X, Y] of a BCH program.

    The node's value is [letter, parent value], where the parent of the root
    ([X,Y] itself) is Y.  ``ops`` are the terms (i, j, k, f) of that
    bracket, dest_k += f A_i B_j, over the parent components j that can be
    nonzero; ``support`` lists the components k of the value that can be
    nonzero.  A leaf is never stored: its ops
    carry its BCH coefficient and accumulate straight into the product.  A
    node with children is stored once for all of them and adds ``coeff``
    times its value to the product.
    """

    coeff: float
    ops: tuple[tuple[int, int, int, float], ...]
    support: tuple[int, ...]
    children: tuple[tuple[int, "_BracketNode"], ...]


def _compile_bch(entries, dim: int, step: int) -> tuple[tuple[int, _BracketNode], ...]:
    """Brackets of the BCH product through `step`: () if X + Y is all, else
    ((0, root),) with root = [X, Y], the one child of Y by the letter X.

    Words longer than the step are dropped and a word ending (..., 1, 0)
    counts as its (..., 0, 1) partner with the opposite sign, since
    [Y,X] = -[X,Y].  A word (w_0, ..., w_{m-3}, 0, 1) is the node reached
    from the root by the letters w_{m-3}, ..., w_0, so words sharing an inner
    suffix share its bracket.  Brackets that vanish identically on the
    parent's support are pruned with their subtrees.
    """
    coeffs: dict[tuple[int, ...], float] = {}
    for coeff, word in bch_terms(MAX_BCH_DEPTH):
        if 2 <= len(word) <= step:
            sign = -1.0 if word[-2:] == (1, 0) else 1.0
            coeffs[word[:-2]] = coeffs.get(word[:-2], 0.0) + sign * coeff

    def build(prefix, parent_support):
        ops = tuple(op for op in entries if op[1] in parent_support)
        if not ops:
            return None
        support = tuple(sorted({k for _, _, k, _ in ops}))
        children = ()
        if len(prefix) < step - 2:
            children = tuple((a, node) for a in (0, 1)
                             if (node := build((a,) + prefix, support)) is not None)
        coeff = coeffs.get(prefix, 0.0)
        if children:
            return _BracketNode(coeff, ops, support, children)
        if coeff == 0.0:
            return None
        return _BracketNode(coeff, tuple((i, j, k, coeff * f) for i, j, k, f in ops),
                            support, ())

    root = build((), range(dim))
    return () if root is None else ((0, root),)


def _accumulate(ops, A, B, dest, scratch):
    """dest[k] += f * A[i] * B[j] for each (i, j, k, f) in ops, in place.

    A, B and dest are indexable by component (views of the last axis or
    separate component arrays); `scratch` holds one product at a time.
    """
    for i, j, k, f in ops:
        np.multiply(A[i], B[j], out=scratch)
        if f != 1.0:
            scratch *= f
        np.add(dest[k], scratch, out=dest[k])


def _components(v: np.ndarray) -> list[np.ndarray]:
    """Views of the components v[..., k]."""
    return [v[..., k] for k in range(v.shape[-1])]


def _run_bch(children, letters, parent, out, scratch):
    """Add each (letter, child) subtree, child = [letter, parent], into `out`."""
    for letter, child in children:
        if not child.children:
            _accumulate(child.ops, letters[letter], parent, out, scratch)
            continue
        value = {k: np.zeros(scratch.shape) for k in child.support}
        _accumulate(child.ops, letters[letter], parent, value, scratch)
        if child.coeff != 0.0:
            for k, v in value.items():
                np.multiply(v, child.coeff, out=scratch)
                np.add(out[k], scratch, out=out[k])
        _run_bch(child.children, letters, value, out, scratch)


# ---------------------------------------------------------------------------
# The algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional real nilpotent Lie algebra.

    Attributes
    ----------
    dim : dimension n.
    c : (n, n, n) array of structure constants, [e_i, e_j] = sum_k c[i,j,k] e_k.
    step : nilpotency step (depth at which the lower central series dies).
    name : optional preset label.
    """

    dim: int
    c: np.ndarray = field(repr=False)
    step: int
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise AlgebraError(f"structure constants must have shape {(self.dim,) * 3}")
        object.__setattr__(self, "c", c)
        c.setflags(write=False)

    def __hash__(self):
        return hash((self.dim, self.step, self.name, self.c.tobytes()))

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.step == other.step and np.array_equal(self.c, other.c))

    # -- bracket and adjoint ------------------------------------------------

    def check_dim(self, *vecs):
        for v in vecs:
            if np.shape(v)[-1] != self.dim:
                raise AlgebraError(f"vector has dimension {np.shape(v)[-1]}, expected {self.dim}")

    @cached_property
    def _bracket_ops(self) -> tuple[tuple[int, int, int, float], ...]:
        """The nonzero structure constants as (i, j, k, c_ijk)."""
        return tuple((int(i), int(j), int(k), float(self.c[i, j, k]))
                     for i, j, k in zip(*np.nonzero(self.c)))

    @cached_property
    def central_axes(self) -> tuple[int, ...]:
        """The coordinate axes k whose structure constants c[k, :, :] and
        c[:, k, :] are all zero, so that e_k is central: on H1 axis 2, on
        Engel axis 3, on an Abelian algebra every axis.  A move c along them
        is a central translation, exp(X + c) = exp(X) exp(c), so
        (X + c) * Y = X * Y + c, and the BCH program never reads those
        coordinates of its factors."""
        return tuple(k for k in range(self.dim) if not (self.c[k].any() or self.c[:, k].any()))

    @cached_property
    def first_layer_axes(self) -> tuple[int, ...]:
        """The coordinate axes k that no bracket lands on, c[:, :, k] all
        zero: on H1 and Engel axes 0 and 1, on an Abelian algebra every
        axis.  The BCH program never writes those components, so they are
        plain sums, (X * Y)_k = X_k + Y_k, bit for bit."""
        return tuple(k for k in range(self.dim) if not self.c[:, :, k].any())

    @cached_property
    def _bch_program(self) -> tuple[tuple[int, _BracketNode], ...]:
        return _compile_bch(self._bracket_ops, self.dim, self.step)

    def bracket(self, X, Y) -> np.ndarray:
        """[X, Y], broadcasting over leading axes."""
        self.check_dim(X, Y)
        X, Y = np.asarray(X, float), np.asarray(Y, float)
        out = np.zeros(np.broadcast_shapes(X.shape, Y.shape))
        _accumulate(self._bracket_ops, _components(X), _components(Y), _components(out),
                    np.empty(out.shape[:-1]))
        return out

    def ad(self, X) -> np.ndarray:
        """Matrix of ad_X(Z) = [X, Z]; nilpotent of index <= step."""
        self.check_dim(X)
        return np.einsum("i,ijk->kj", np.asarray(X, float), self.c)

    # -- group structure in the chart ----------------------------------------

    def bch(self, X, Y) -> np.ndarray:
        """BCH product X * Y = log(exp X exp Y); exact for step <= 6."""
        if self.step > MAX_BCH_DEPTH:
            raise AlgebraError(
                f"nilpotency step {self.step} exceeds the supported BCH depth {MAX_BCH_DEPTH}")
        self.check_dim(X, Y)
        X, Y = np.asarray(X, float), np.asarray(Y, float)
        out = np.empty(np.broadcast(X, Y).shape)
        for k in range(self.dim):
            np.add(X[..., k], Y[..., k], out=out[..., k])
        if self._bch_program:
            letters = (_components(X), _components(Y))
            _run_bch(self._bch_program, letters, letters[1], _components(out),
                     np.empty(out.shape[:-1]))
        return out

    def mul(self, x, y) -> np.ndarray:
        """Group product in exponential coordinates (alias of bch)."""
        return self.bch(x, y)

    def inv(self, x) -> np.ndarray:
        """Group inverse; in the chart this is coordinate negation."""
        self.check_dim(x)
        return -np.asarray(x, float)

    # -- dual pairing and coadjoint action ------------------------------------

    def pairing(self, X, xi) -> np.ndarray:
        """<X | xi> = xi(X), the duality pairing in dual bases."""
        self.check_dim(X, xi)
        return np.einsum("...i,...i->...", np.asarray(X, float), np.asarray(xi, float))

    def coadjoint(self, x, zeta) -> np.ndarray:
        """Infinitesimal coadjoint action gamma_x(zeta) = zeta o ad_{-log x}."""
        self.check_dim(x, zeta)
        return np.einsum("kj,...k->...j", self.ad(-np.asarray(x, float)),
                         np.asarray(zeta, float))

    def dlambda_left(self, Z, zeta, x, h: float | None = None) -> float:
        """Left derivative of lambda_zeta at x along Z.

        lambda_zeta(y) = <log y | zeta>.  For step <= 2 the closed form

            <Z | zeta + gamma_x(zeta)/2 + gamma_x^2(zeta)/12>

        is exact; for higher steps the displayed terms are not the whole
        series, so a central finite difference of t -> lambda_zeta(exp(tZ) x)
        is used instead (pass ``h`` to force it at any step).
        """
        self.check_dim(Z, zeta, x)
        Z = np.asarray(Z, float)
        zeta = np.asarray(zeta, float)
        x = np.asarray(x, float)
        if h is None:
            if self.step > 2:
                raise AlgebraError(
                    "closed form is exact only for step <= 2; pass a finite-difference step h")
            g1 = self.coadjoint(x, zeta)
            g2 = self.coadjoint(x, g1)
            return float(self.pairing(Z, zeta + g1 / 2.0 + g2 / 12.0))
        if h <= 0:
            raise AlgebraError("finite-difference step h must be positive")
        lam_p = self.pairing(self.bch(h * Z, x), zeta)
        lam_m = self.pairing(self.bch(-h * Z, x), zeta)
        return float((lam_p - lam_m) / (2.0 * h))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class AlgebraReport:
    antisymmetry_residual: float
    jacobi_residual: float
    certified_step: int
    declared_step: int
    passed: bool

    def summary(self) -> dict:
        return {
            "antisymmetry_residual": self.antisymmetry_residual,
            "jacobi_residual": self.jacobi_residual,
            "certified_step": self.certified_step,
            "declared_step": self.declared_step,
            "passed": self.passed,
        }


def validate_algebra(alg: LieAlgebra, tol: float = 1e-12) -> AlgebraReport:
    """Check antisymmetry, the Jacobi identity and the nilpotency step.

    The step is certified by computing the lower central series: g_1 = g,
    g_{k+1} = [g, g_k], as spans of bracket images; the certified step is the
    last k with g_k != 0.
    """
    c = alg.c
    anti = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2))))) if alg.dim else 0.0
    # Jacobi: [e_i,[e_j,e_l]] + [e_j,[e_l,e_i]] + [e_l,[e_i,e_j]] = 0
    t = np.einsum("jlm,imk->ijlk", c, c)
    jac = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    jacobi = float(np.max(np.abs(jac))) if alg.dim else 0.0

    basis = np.eye(alg.dim)
    layer = basis
    certified = 0
    for depth in range(1, alg.dim + 2):
        if layer.shape[0] == 0 or np.linalg.matrix_rank(layer, tol=1e-10) == 0:
            break
        certified = depth
        brackets = np.einsum("ai,bj,ijk->abk", basis, layer, c).reshape(-1, alg.dim)
        sv = np.linalg.svd(brackets, compute_uv=False) if brackets.size else np.zeros(0)
        rank = int(np.sum(sv > 1e-10))
        if rank == 0:
            layer = np.zeros((0, alg.dim))
        else:
            _, _, vh = np.linalg.svd(brackets)
            layer = vh[:rank]
    passed = anti <= tol and jacobi <= tol and certified == alg.step
    return AlgebraReport(anti, jacobi, certified, alg.step, passed)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def abelian(n: int) -> LieAlgebra:
    """R^n with the zero bracket (step 1)."""
    if n < 1:
        raise AlgebraError("dimension must be positive")
    return LieAlgebra(n, np.zeros((n, n, n)), 1, name=f"abelian:{n}")


def heisenberg() -> LieAlgebra:
    """The 3-dimensional Heisenberg algebra, [e1, e2] = e3 (step 2)."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return LieAlgebra(3, c, 2, name="heisenberg:1")


def engel() -> LieAlgebra:
    """The 4-dimensional Engel algebra, [e1,e2] = e3, [e1,e3] = e4 (step 3)."""
    c = np.zeros((4, 4, 4))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[0, 2, 3] = 1.0
    c[2, 0, 3] = -1.0
    return LieAlgebra(4, c, 3, name="engel")


_PRESETS = {"heisenberg:1": heisenberg, "engel": engel}


def preset(name: str) -> LieAlgebra:
    """Look up a named algebra: "abelian:n", "heisenberg:1" or "engel"."""
    if name.startswith("abelian:"):
        return abelian(int(name.split(":", 1)[1]))
    try:
        return _PRESETS[name]()
    except KeyError:
        raise AlgebraError(f"unknown algebra preset {name!r}") from None
