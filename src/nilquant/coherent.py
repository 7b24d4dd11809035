"""Weyl system, Fourier-Wigner transform, coherent states and Bargmann maps.

The phase-space shift is W(z, zeta) = M_zeta L_z,

    [W(z,zeta) u](x)  = exp(i <log x | zeta>) u(z^{-1} x),
    [W(z,zeta)* u](y) = exp(-i <log(z y) | zeta>) u(z y),

and its matrix coefficients define the Fourier-Wigner transform

    FW[u,v](z, zeta) = <W(z,zeta) u, v>
                     = integral exp(i <log y | zeta>) u(z^{-1} y) conj(v(y)) dy.

Composition picks up a multiplier that genuinely depends on the base point,

    W(z,zeta) W(y,eta) = Mult(gamma) W(zy, zeta+eta),
    gamma(x) = exp(-i <log x - log(z^{-1} x) | eta>),

so the family is not a projective representation.  The tau-ordered and
magnetic systems keep the form e^{i<P(z,x)|zeta>} G(x, z^{-1}x) u(z^{-1}x)
and change only the phase points P and the unit dressing G; `WeylSystem`
holds those two hooks, and the shift, the coherent states and the
Fourier-Wigner route below are written once for all three kinds.  Coherent
states are
adjoint shifts of a normalized window, omega_{z,zeta} = W(z,zeta)* omega, the
Bargmann transform is B u = FW[u, omega], and B* B = Id gives the inversion
formula; the range of B B* is the reproducing-kernel space with kernel
p(X, Z) = <omega_X, omega_Z>.

FW on a XiGrid and B* integrate against the dual-side phase
exp(+-i <P | zeta>) over a dual grid.  That grid is a tensor product, so the
phase is applied axis by axis: `transforms.dual_phase_grid` for FW, whose
phase points are the y nodes and form a grid as well;
`transforms.dual_phase_from_points` for FW of moved points log(tau(z)^{-1} y),
which do not; and, for B*, whose points z x do not either, one Khatri-Rao
factor per central group of z nodes (`bargmann_adjoint`).  None builds a
dense points x |dual| phase matrix.

Both run over blocks of z nodes (`node_blocks`), never over the whole
z x y grid at once.  FW evaluates z^{-1} y, u(z^{-1} y) conj(v(y)), the
dressing, the phase points and the phase sum for one block and writes it
into the preallocated result.  B* takes the z nodes in central groups
(`bargmann_adjoint`): one BCH product and one set of axis factors per
group, whose members differ by a central move c with zx = z'x + c, and
their phases exp(-i <c | zeta>) folded into h; it runs a group's members
in chunks and adds each member's row into its sum in group order.  One
budget, `BLOCK_ENTRIES`, sizes every block (about 16 z nodes against 1000 y
nodes in FW, 2 in FW of moved points against 1000 y nodes and 49 trailing
dual nodes, all 6 members of a B* group against 100 targets and 7 leading
dual nodes): the block's arrays stay in cache and are not fresh whole-grid
allocations, whose page faults cost as much as the arithmetic.  Every
value is bitwise the same for any block size, since each block does per
node what the whole grid did and no block is a lone node (see
`node_blocks`).

FW has one route, `WeylSystem.wigner`: the change of variables, then the
separable phase.  The tests check it against a literal per-node quadrature
(`tests/oracles.py`).

`coherent_state_bank` returns every coherent state at every target, so it
does build the dense (|Xi| x targets) matrix, one complex exp per entry,
over blocks of z nodes: one `WeylSystem.coherent_rows` call and one stacked
phase exp per block, bitwise the same for any block size.
The covariant symbols ask for the same few banks again and again (one per
window, Xi grid and operator grid), so a bank on a target *grid* is kept in
a bounded memo: keyed on the algebra and window objects, the Xi grid and the
target grid, read-only, at most `BANK_MEMO_BYTES` in all and never holding a
bank larger than that.  Arbitrary target points are built afresh each call.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra
from .fields import Field, XiSamples, gaussian
from .grids import Grid, XiGrid
from .transforms import _axis_factor, dual_phase_from_points, dual_phase_grid, inner, l2_norm


class NyquistWarning(UserWarning):
    """A dual box reaches past the Nyquist band pi/h of the group grid whose
    nodes carry the phases exp(i <y | zeta>); those phases alias there."""


def nyquist_axes(g_grid: Grid, dual_grid: Grid) -> list[dict]:
    """Per axis: the dual half-width, the Nyquist band pi/h of `g_grid`, and
    whether the dual box reaches past it, where the phases exp(i <y | zeta>)
    on the nodes of `g_grid` alias."""
    return [{"dual_half_width": half, "nyquist_band": math.pi / h,
             "aliases": half > math.pi / h}
            for half, h in zip(dual_grid.half_width, g_grid.spacing)]


def _warn_past_nyquist(g_grid: Grid, dual_grid: Grid, stacklevel: int = 3):
    for axis, a in enumerate(nyquist_axes(g_grid, dual_grid)):
        if a["aliases"]:
            warnings.warn(f"dual half-width {a['dual_half_width']:g} on axis {axis} exceeds "
                          f"the Nyquist band pi/h = {a['nyquist_band']:.4g} of the group "
                          f"grid; the phases alias", NyquistWarning, stacklevel=stacklevel)


@dataclass(frozen=True)
class PhasePoint:
    """A point (z, zeta) of the phase space Xi = G x g#."""

    z: tuple
    zeta: tuple

    def __init__(self, z, zeta):
        object.__setattr__(self, "z", tuple(float(v) for v in np.atleast_1d(z)))
        object.__setattr__(self, "zeta", tuple(float(v) for v in np.atleast_1d(zeta)))
        if len(self.z) != len(self.zeta):
            raise ValueError("z and zeta must have the same dimension")

    @property
    def zv(self) -> np.ndarray:
        return np.asarray(self.z)

    @property
    def zetav(self) -> np.ndarray:
        return np.asarray(self.zeta)

    @classmethod
    def origin(cls, n: int) -> "PhasePoint":
        return cls(np.zeros(n), np.zeros(n))


@dataclass
class Window:
    """L2-normalized analytic window; norm forced to 1 under its grid."""

    field: Field
    grid: Grid
    raw_norm: float = 1.0

    @classmethod
    def normalized(cls, field: Field, grid: Grid) -> "Window":
        nrm = l2_norm(field, grid)
        if nrm == 0:
            raise ValueError("window has zero quadrature norm")
        return cls((1.0 / nrm) * field, grid, raw_norm=nrm)

    def __call__(self, points):
        return self.field(points)


def make_window(alg: LieAlgebra, grid: Grid, sigma: float = 1.0, center=None) -> Window:
    """Isotropic Gaussian window in exponential coordinates, renormalized by
    the quadrature norm on `grid`."""
    return Window.normalized(gaussian(alg.dim, sigma, center), grid)


# ---------------------------------------------------------------------------
# Blocks of z nodes
# ---------------------------------------------------------------------------

#: Entries per block of z nodes in the Bargmann maps: (z, y) pairs in
#: `WeylSystem.wigner` (times |dual| / D_0 for moved phase points, the
#: entries of their Khatri-Rao factor), entries of the Khatri-Rao product
#: of a member chunk in `bargmann_adjoint` (D_0 times the targets per
#: member of a central group), of the first dual-side product per kernel
#: row in `pseudodiff.op_quantize_samples`, (node, target) pairs times the
#: dressing's points in `WeylSystem.dress`, and (node, target, zeta) entries
#: in `coherent_state_bank`.  About 16 z nodes against
#: 1000 y nodes: each block's arrays stay in cache, and reused memory spares
#: the page faults that fresh whole-grid arrays cost.
BLOCK_ENTRIES = 1 << 14


def node_blocks(count: int, per_node: int) -> list[slice]:
    """Consecutive slices covering range(count) in order, of
    max(2, BLOCK_ENTRIES // per_node) nodes each but the last, which holds
    from 2 to one more than that.

    No block holds a lone node unless count is 1: numpy multiplies a one-row
    matrix by a matrix-vector routine, whose sums are not bitwise those of
    the matrix-matrix routine the whole grid takes.
    """
    size = max(2, BLOCK_ENTRIES // max(1, per_node))
    starts = list(range(0, count, size))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()  # the lone last node joins the block before it
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [count])]


# ---------------------------------------------------------------------------
# Weyl system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylSystem:
    """The plain Weyl system W(z, zeta) = M_zeta L_z of a group.

    Every Weyl system here has the form

        [W(z,zeta) u](x) = e^{i <P(z, x) | zeta>} G(x, z^{-1} x) u(z^{-1} x),

    and the kinds differ only in the phase points P and the unit dressing
    G = e^{i theta}.  The plain system has P(z, y) = y and G = 1;
    `tau.TauWeylSystem` moves the points (`moves_points`) and
    `magnetic.MagneticWeylSystem` dresses them (`dressed`).  The system
    owns both: `dress` is the one route that applies G, and `coherent_rows`
    the one that builds the coherent-state values omega(zx) conj(G(zx, x)),
    so the shift, the coherent states and their banks, the Fourier-Wigner
    route and the Berezin kernel rows (`berezin.berezin_quantize`) are
    written once against these two hooks.

    `shifts_with_centre` says that a central move c of z moves the points
    P(z, zx) of every x by one common vector, as c moves zx.  The Berezin
    kernel then sums the central z axes of its quadrature in groups.
    """

    alg: LieAlgebra
    moves_points = False
    dressed = False
    shifts_with_centre = True
    #: points the dressing evaluates per (z, y) pair; sizes its node blocks
    dressing_points = 1

    def phase_points(self, z, y):
        """P(z, y): where the modulation phase of the shift by z is taken."""
        return y

    def dressing(self, y, back):
        """theta with G(y, z^{-1} y) = e^{i theta}, given y and back = z^{-1} y;
        only called by `dress`."""
        raise NotImplementedError

    def dress(self, values, x, back, sign):
        """values * e^{sign i theta(x, back)}; `values` itself when the system
        does not dress.  The only caller of `dressing`.

        x and back broadcast against values + (n,).  theta runs over blocks
        of the leading nodes (all axes of values but the last), at most
        BLOCK_ENTRIES // (dressing_points * P) nodes against the last axis's
        P points, so the dressing's points stay in cache.  A block may hold
        one node: theta takes no matrix product across nodes, so every value
        is bitwise the same for any block size.
        """
        if not self.dressed:
            return values
        shape = np.shape(values)
        points = shape[-1:] or (1,)
        x, back = (np.broadcast_to(p, shape + p.shape[-1:]).reshape((-1,) + points + p.shape[-1:])
                   for p in (np.asarray(x, float), np.asarray(back, float)))
        theta = np.empty(x.shape[:-1])
        size = max(1, BLOCK_ENTRIES // (self.dressing_points * points[0]))
        for s in range(0, len(theta), size):
            theta[s:s + size] = self.dressing(x[s:s + size], back[s:s + size])
        return values * np.exp((sign * 1j) * theta.reshape(shape))

    def coherent_rows(self, u, z, x):
        """(P(z, zx), u(zx) conj(G(zx, x))) at the points x: the phase points
        and the dressed values of the coherent states of u at the nodes z,
        which broadcast against x as in `LieAlgebra.bch`."""
        zx = self.alg.bch(z, x)
        return self.phase_points(z, zx), self.dress(u(zx), zx, x, -1)

    def shift(self, p: PhasePoint, u: Field) -> Field:
        """W(z,zeta) u; exact on analytic fields, unitary in quadrature norm."""
        alg, z, zeta = self.alg, p.zv, p.zetav
        zinv = alg.inv(z)

        def fn(x):
            back = alg.bch(zinv, x)
            out = np.exp(1j * np.einsum("...i,i->...", self.phase_points(z, x), zeta)) * u(back)
            return self.dress(out, x, back, 1)

        return Field(fn, alg.dim, u.domain, u.interpolated)

    def adjoint_shift(self, p: PhasePoint, u: Field) -> Field:
        """W(z,zeta)* u; inverts `shift` pointwise.  On the window it is the
        coherent state omega_{z,zeta}."""
        z, zeta = p.zv, p.zetav

        def fn(y):
            points, values = self.coherent_rows(u, z, y)
            return np.exp(-1j * np.einsum("...i,i->...", points, zeta)) * values

        return Field(fn, self.alg.dim, u.domain, u.interpolated)

    def wigner(self, u: Field, v: Field, g_grid: Grid, xi_grid: XiGrid) -> XiSamples:
        """<W(z, zeta) u, v> sampled on a XiGrid; y-quadrature over `g_grid`.

        Runs over blocks of z nodes (`node_blocks`), each written into the
        preallocated result: the change of variables u(z^{-1}y) conj(v(y)),
        dressed by one `dress` call where the system dresses, then the phase sum,
        applied axis by axis.  When the phase points are the y grid itself
        the sum is `dual_phase_grid` (one small cached factor per axis) and a
        block holds `BLOCK_ENTRIES` (z, y) pairs.  Moved points
        log(tau(z)^{-1} y) form no tensor grid: the block's points are one
        broadcast `phase_points` call and the sum is `dual_phase_from_points`,
        whose Khatri-Rao factor of |y| x |dual| / D_0 entries per node sizes
        the block.  Warns (`NyquistWarning`) when the dual box of `xi_grid`
        is past the Nyquist band pi/h of `g_grid` on some axis.
        """
        # stacklevel: reported at the caller of the public delegation
        dual = xi_grid.dual_grid
        _warn_past_nyquist(g_grid, dual, stacklevel=4)
        z_nodes = xi_grid.g_grid.nodes()
        y = g_grid.nodes()
        vy = np.conjugate(v(y))
        zinv = self.alg.inv(z_nodes)
        vals = np.empty((len(z_nodes), dual.size), dtype=complex)
        per_node = len(y) * (dual.size // dual.counts[0] if self.moves_points else 1)
        for block in node_blocks(len(z_nodes), per_node):
            back = self.alg.bch(zinv[block, None, :], y[None, :, :])
            g_zy = self.dress(u(back) * vy[None, :], y, back, 1)
            if self.moves_points:
                points = self.phase_points(z_nodes[block, None, :], y)
                sums = dual_phase_from_points(g_zy, points, dual, 1)
            else:
                sums = dual_phase_grid(g_zy, g_grid, dual, 1)
            np.multiply(g_grid.weight, sums, out=vals[block])
        return XiSamples(xi_grid, vals)


def weyl(alg: LieAlgebra, p: PhasePoint, u: Field) -> Field:
    """W(z,zeta) u of the plain system."""
    return WeylSystem(alg).shift(p, u)


def weyl_adjoint(alg: LieAlgebra, p: PhasePoint, u: Field) -> Field:
    """W(z,zeta)* u of the plain system."""
    return WeylSystem(alg).adjoint_shift(p, u)


def weyl_compose_factor(alg: LieAlgebra, p: PhasePoint, q: PhasePoint, x) -> np.ndarray:
    """Multiplier gamma[(z,zeta),(y,eta); x] with W(p) W(q) = Mult(gamma) W(pq).

    Depends only on eta = q.zeta; modulus one everywhere.
    """
    x = np.asarray(x, float)
    zinv = alg.inv(p.zv)
    eta = q.zetav
    diff = x - alg.bch(zinv, x)
    return np.exp(-1j * np.einsum("...i,i->...", diff, eta))


# ---------------------------------------------------------------------------
# Fourier-Wigner transform
# ---------------------------------------------------------------------------

def fourier_wigner(alg: LieAlgebra, u: Field, v: Field, g_grid: Grid,
                   xi_grid: XiGrid) -> XiSamples:
    """FW[u, v] sampled on a XiGrid; y-quadrature over `g_grid`.

    The plain system's `WeylSystem.wigner`: the change of variables, then
    the separable phase.  Warns (`NyquistWarning`, attributed to the caller)
    when the dual box of `xi_grid` is past the Nyquist band pi/h of `g_grid`.
    """
    return WeylSystem(alg).wigner(u, v, g_grid, xi_grid)


# ---------------------------------------------------------------------------
# Coherent states
# ---------------------------------------------------------------------------

def coherent_state(alg: LieAlgebra, w: Window, p: PhasePoint) -> Field:
    """omega_{z,zeta} = W(z,zeta)* omega of the plain system."""
    return WeylSystem(alg).adjoint_shift(p, w.field)


#: Bytes of coherent-state banks `coherent_state_bank` keeps for reuse.
BANK_MEMO_BYTES = 1 << 24

# (id(alg), id(window), xi_grid, target grid) -> (alg, window, bank); the
# entry holds the algebra and window so their ids cannot be reused while it
# lives.  Least recently used first.
_BANKS: OrderedDict = OrderedDict()


def coherent_state_bank(alg: LieAlgebra, w: Window, xi_grid: XiGrid,
                        targets) -> np.ndarray:
    """Samples omega_Z(x) for every Xi node Z, shape (n_xi, n_targets).

    Node order is C order over (z index, zeta index), matching
    ``XiSamples.values.reshape(-1)``.  `targets` is a Grid, whose nodes are
    the targets, or an array of points (n_targets, n).  A bank on a grid is
    read-only and memoized: the same algebra and window objects with equal
    Xi and target grids get the stored array back.  The memo holds at most
    `BANK_MEMO_BYTES`, dropping the least recently used banks first, and
    never stores a bank larger than that.  A bank at points is built afresh
    and writable.
    """
    if not isinstance(targets, Grid):
        return _build_bank(alg, w, xi_grid, np.asarray(targets, float))
    key = (id(alg), id(w), xi_grid, targets)
    entry = _BANKS.get(key)
    if entry is not None:
        _BANKS.move_to_end(key)
        return entry[2]
    bank = _build_bank(alg, w, xi_grid, targets.nodes())
    bank.setflags(write=False)
    if bank.nbytes <= BANK_MEMO_BYTES:
        held = sum(e[2].nbytes for e in _BANKS.values())
        while held + bank.nbytes > BANK_MEMO_BYTES:
            held -= _BANKS.popitem(last=False)[1][2].nbytes
        _BANKS[key] = (alg, w, bank)
    return bank


def _build_bank(alg: LieAlgebra, w: Window, xi_grid: XiGrid,
                targets: np.ndarray) -> np.ndarray:
    """One `coherent_rows` call and one stacked phase exp per block of z
    nodes (`node_blocks`, sized by a node's targets x zeta entries)."""
    z_nodes, zeta_nodes = xi_grid.node_pairs()
    out = np.empty((len(z_nodes), len(zeta_nodes), len(targets)), dtype=complex)
    for block in node_blocks(len(z_nodes), len(zeta_nodes) * len(targets)):
        points, base = WeylSystem(alg).coherent_rows(w, z_nodes[block, None, :], targets)
        out[block] = np.swapaxes(base[..., None] * np.exp(-1j * (points @ zeta_nodes.T)), -1, -2)
    return out.reshape(len(z_nodes) * len(zeta_nodes), len(targets))


def projector(alg: LieAlgebra, w: Window, p: PhasePoint):
    """Rank-one projector onto omega_p, as kernel samples on the window grid."""
    from .operators import OperatorMatrix

    state = coherent_state(alg, w, p)
    return OperatorMatrix.rank_one(w.grid, state)


# ---------------------------------------------------------------------------
# Bargmann transform and the reproducing kernel
# ---------------------------------------------------------------------------

def bargmann(alg: LieAlgebra, w: Window, u: Field, xi_grid: XiGrid,
             g_grid: Grid | None = None) -> XiSamples:
    """B_omega u = FW[u, omega], an isometry into L2(Xi)."""
    return fourier_wigner(alg, u, w.field, g_grid or w.grid, xi_grid)


def bargmann_adjoint(alg: LieAlgebra, w: Window, h: XiSamples, targets) -> np.ndarray:
    """(B_omega)* h = integral h(z,zeta) omega_{z,zeta} d(z,zeta) at `targets`.

    The z nodes are taken in the groups of `Grid.grouped_indices` over the
    algebra's central axes (`LieAlgebra.central_axes`): the members z = z' + c
    of a group differ by central moves c from its base z', whose central
    coordinates are zero, so zx = z'x + c and

        <zx | zeta> = <z'x | zeta> + <c | zeta>.

    Each group makes one BCH product z'x, and its members share one set of
    (D_k, P) axis factors exp(-i zeta_k (z'x)_k): the member phase
    exp(-i <c | zeta>) is folded into the member's row of h.  On the
    first-layer axes (`LieAlgebra.first_layer_axes`), (z'x)_k = z'_k + x_k,
    so the factor exp(-i zeta_k x_k) is built once per call and a group
    only multiplies it by exp(-i zeta_k z'_k); the other axes take one
    factor per group at z'x.  A group's factors on every axis but the first
    form one Khatri-Rao factor of |dual| / D_0 x P entries, so the zeta-sums
    of its members are one matrix product against it, then one multiply
    and sum against the first axis's factor; no P x |dual| phase matrix is
    formed.  The window is taken per member, at z'x + c.  On H1 at the
    `bargmann-h1` sizes that is 36 groups of 6 and about 27 000 complex
    exps per call, where one factor set per node took 453 600; on an
    Abelian group every axis is central and the whole grid is one group.

    The members of a group run in chunks of `node_blocks`, sized by the
    product's D_0 x P entries per member, and each member's row is added
    into the sum in group order, so the result is bitwise the same for any
    block budget.  It differs from the node-by-node sum by reassociation
    alone.  Warns (`NyquistWarning`) when h's dual box is past the Nyquist
    band of the window's grid, the y-grid `bargmann` uses by default.
    """
    dual_grid = h.xi_grid.dual_grid
    _warn_past_nyquist(w.grid, dual_grid)
    targets = np.asarray(targets, float)
    P, D_0 = len(targets), dual_grid.counts[0]
    central, first = alg.central_axes, alg.first_layer_axes
    index = h.xi_grid.g_grid.grouped_indices(central)
    grouped = h.xi_grid.g_grid.nodes()[index]
    is_central = np.isin(np.arange(alg.dim), central)
    bases = np.where(is_central, 0.0, grouped[:, 0])          # z'
    moves = np.where(is_central, grouped[0], 0.0)             # c, the same in every group
    axes = dual_grid.axes()
    across = {k: _axis_factor(targets, k, axes[k], -1) for k in first}
    # exp(-i c_k zeta_k) per member, broadcast along axis k of a row of h
    member_phases = [_axis_factor(moves, k, axes[k], -1).T.reshape(
        (len(moves),) + tuple(d if a == k else 1 for a, d in enumerate(dual_grid.counts)))
        for k in central]
    acc = np.zeros(P, dtype=complex)
    chunks = node_blocks(len(moves), D_0 * P)
    for members, base in zip(index, bases):
        base_x = alg.bch(base, targets)
        factors = [across[k] * np.exp(-1j * (zeta_k * base[k]))[:, None] if k in first
                   else _axis_factor(base_x, k, zeta_k, -1) for k, zeta_k in enumerate(axes)]
        trailing = np.ones((1, P), dtype=complex)
        for factor in factors[1:]:
            trailing = (trailing[:, None, :] * factor).reshape(len(trailing) * len(factor), P)
        for chunk in chunks:
            rows = h.values[members[chunk]]
            grid_rows = rows.reshape((-1,) + dual_grid.counts)
            for phase in member_phases:
                grid_rows *= phase[chunk]
            sums = (rows.reshape(-1, len(trailing)) @ trailing).reshape(len(rows), D_0, P)
            sums *= factors[0]
            sums = np.sum(sums, axis=1)
            sums *= w(base_x + moves[chunk, None, :])
            for row in sums:
                acc += row
    return h.xi_grid.weight * acc


def reproducing_kernel(alg: LieAlgebra, w: Window, p: PhasePoint, q: PhasePoint,
                       grid: Grid | None = None) -> complex:
    """p_omega(p, q) = <omega_p, omega_q>; hermitian, p(p, p) = 1."""
    grid = grid or w.grid
    return inner(coherent_state(alg, w, p), coherent_state(alg, w, q), grid)


def reproducing_apply(alg: LieAlgebra, w: Window, h: XiSamples,
                      p: PhasePoint, g_grid: Grid | None = None) -> complex:
    """Apply the range projection of B at one point:

        (P h)(p) = integral <omega_Z, omega_p> h(Z) dZ.

    For h = B u in the range this reproduces h(p).  The kernel acts through
    its first slot; see the repository notes on the orientation.
    """
    g_grid = g_grid or w.grid
    state = coherent_state(alg, w, p)
    # <omega_Z, omega_p> = conj(<omega_p, omega_Z>) = conj(B[omega_p](Z))
    column = fourier_wigner(alg, state, w.field, g_grid, h.xi_grid)
    return complex(h.xi_grid.weight * np.sum(np.conjugate(column.values) * h.values))
