"""The compiled BCH program against the term walk it replaced.

`LieAlgebra.bch` runs a per-algebra program: words longer than the step
dropped, words ending [Y,X] folded into their [X,Y] partners, shared inner
brackets computed once, brackets over the nonzero structure constants
accumulated in place.  The reference is the earlier route, which
walked every Dynkin word of `bch_terms` and bracketed with a dense einsum
(`oracles.term_walk_bch`), so that both can be compared on the same inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilquant.algebra import (MAX_BCH_DEPTH, LieAlgebra, abelian, bch_terms, engel,
                              heisenberg, validate_algebra)
from nilquant.verify import bch_matrix_oracle

from oracles import (bracket, random_level_blocks, rel_max, strictly_upper, term_walk_bch,
                     traced_peak, upper_basis)

REL_TOL = 1e-14


ALGEBRAS = {
    "abelian:1": abelian(1),
    "abelian:2": abelian(2),
    "abelian:3": abelian(3),
    "heisenberg:1": heisenberg(),
    "engel": engel(),
    "ut7": strictly_upper(7),
}

# (X batch shape, Y batch shape); the full broadcast product is the shape
# of a Bargmann-transform call on H1 (216 z-nodes against 1000 y-nodes)
SHAPES = {
    "point": ((), ()),
    "point-batch": ((), (17,)),
    "batch": ((17,), (17,)),
    "broadcast": ((216, 1), (1, 1000)),
}


def _points(rng, alg, shape, scale=1.0):
    return rng.uniform(-scale, scale, shape + (alg.dim,))


def _case(name, shape, salt):
    """Algebra, batch shapes and a generator fixed by the test case."""
    xs, ys = SHAPES[shape]
    if name == "ut7" and shape == "broadcast":
        xs, ys = (8, 1), (1, 12)  # the dense einsum reference is slow at dim 21
    rng = np.random.default_rng([list(ALGEBRAS).index(name), list(SHAPES).index(shape), salt])
    return ALGEBRAS[name], xs, ys, rng


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_bch_matches_term_walk(name, shape):
    alg, xs, ys, rng = _case(name, shape, 0)
    for order in ((xs, ys), (ys, xs)):
        X, Y = _points(rng, alg, order[0]), _points(rng, alg, order[1])
        got = alg.bch(X, Y)
        assert rel_max(got, term_walk_bch(alg, X, Y)) <= REL_TOL


@pytest.mark.parametrize("alg", [LieAlgebra(3, heisenberg().c, 1, name="h1-as-step-1"),
                                 LieAlgebra(4, engel().c, 2, name="engel-as-step-2")])
def test_bch_truncates_at_the_declared_step(alg):
    # words longer than the declared step are dropped even where the
    # structure constants would give them a nonzero bracket
    rng = np.random.default_rng(6)
    X, Y = _points(rng, alg, (9,)), _points(rng, alg, (9,))
    got = alg.bch(X, Y)
    assert rel_max(got, term_walk_bch(alg, X, Y)) <= REL_TOL
    full = LieAlgebra(alg.dim, alg.c, alg.step + 1)
    assert rel_max(got, full.bch(X, Y)) > 1e-3


@pytest.mark.parametrize("name", ALGEBRAS)
def test_bch_at_the_unit_is_bitwise(name):
    # the tau = e reductions rely on e * y = y and x * e = x exactly
    alg = ALGEBRAS[name]
    rng = np.random.default_rng(3)
    X = _points(rng, alg, (25,), 3.0)
    zero = np.zeros(alg.dim)
    assert np.array_equal(alg.bch(zero, X), X)
    assert np.array_equal(alg.bch(X, zero), X)
    assert np.array_equal(alg.bch(-zero, X), X)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_bracket_matches_einsum(name, shape):
    alg, xs, ys, rng = _case(name, shape, 1)
    X, Y = _points(rng, alg, xs), _points(rng, alg, ys)
    assert rel_max(alg.bracket(X, Y), bracket(alg, X, Y)) <= REL_TOL


def test_bracket_matches_einsum_without_antisymmetry():
    # the kernel reads the structure constants as given, like the einsum;
    # config validation reports such constants, it does not repair them
    rng = np.random.default_rng(4)
    c = rng.normal(size=(4, 4, 4)) * (rng.uniform(size=(4, 4, 4)) < 0.4)
    alg = LieAlgebra(4, c, 2, name="raw")
    X, Y = rng.normal(size=(2, 30, 4))
    assert rel_max(alg.bracket(X, Y), bracket(alg, X, Y)) <= REL_TOL


@settings(max_examples=25, deadline=None)
@given(k=st.integers(3, 7), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["point", "point-batch", "batch"]))
def test_bch_random_strictly_upper(k, seed, shape):
    rng = np.random.default_rng(seed)
    alg = strictly_upper(k, random_level_blocks(k, rng))
    assert validate_algebra(alg, tol=1e-10).passed
    xs, ys = SHAPES[shape]
    X, Y = _points(rng, alg, xs), _points(rng, alg, ys)
    assert rel_max(alg.bch(X, Y), term_walk_bch(alg, X, Y)) <= REL_TOL


#: the BCH product against log(exp X exp Y) of the matrices, relative max-abs
ORACLE_TOL = 1e-12


@settings(max_examples=25, deadline=None)
@given(k=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
def test_bch_matches_matrix_oracle_in_a_random_basis(k, seed):
    """The matrix exp/log oracle of `verify`, not only the term walk, on
    strictly upper-triangular algebras in a random basis of each level."""
    rng = np.random.default_rng(seed)
    blocks = random_level_blocks(k, rng)
    alg = strictly_upper(k, blocks)
    idx, P = upper_basis(k, blocks)
    rows, cols = np.array(idx).T

    def to_matrix(x):
        M = np.zeros((k, k))
        M[rows, cols] = P @ x
        return M

    def to_coords(L):
        return np.linalg.solve(P, L[rows, cols])

    for x, y in rng.uniform(-1.0, 1.0, (8, 2, alg.dim)):
        want = bch_matrix_oracle(to_matrix, to_coords, x, y)
        assert rel_max(alg.bch(x, y), want) <= ORACLE_TOL


def test_program_shape():
    # abelian: X + Y alone; H1: X + Y and one in-place (1/2)[X,Y]
    assert abelian(3)._bch_program == ()
    (letter, root), = heisenberg()._bch_program
    assert letter == 0 and root.children == () and root.coeff == 0.5
    assert sorted(op[:3] for op in root.ops) == [(0, 1, 2), (1, 0, 2)]
    # Engel: [X,Y] stored once for (1/12)[X,[X,Y]] - (1/12)[Y,[X,Y]]
    (_, root), = engel()._bch_program
    assert root.coeff == 0.5
    assert [(a, child.coeff, child.children) for a, child in root.children] == [
        (0, pytest.approx(1 / 12), ()), (1, pytest.approx(-1 / 12), ())]


def _count_nodes(children):
    return sum(1 + _count_nodes(child.children) for _, child in children)


def test_program_shares_inner_brackets():
    # step 6: the 38 bracket words fold onto 27 words ending [X,Y]; two pairs
    # cancel ([X,[X,[Y,[X,Y]]]] and [Y,[Y,[X,[X,Y]]]]), and the other 25
    # with their inner brackets are 29 brackets, each computed once
    words = [w for _, w in bch_terms(MAX_BCH_DEPTH) if len(w) >= 2]
    assert len(words) == 38
    assert len({w[:-2] for w in words}) == 27
    assert _count_nodes(ALGEBRAS["ut7"]._bch_program) == 29


def test_bch_peak_memory_not_above_term_walk():
    alg = heisenberg()
    rng = np.random.default_rng(5)
    X, Y = _points(rng, alg, (216, 1)), _points(rng, alg, (1, 1000))
    out = alg.bch(X, Y)  # compile the program outside the measurement
    peak = traced_peak(alg.bch, X, Y)
    assert peak <= traced_peak(term_walk_bch, alg, X, Y)
    # H1 stores no inner bracket: the product and one scratch component,
    # with slack for bookkeeping but not for a second full-size array
    assert peak <= 1.25 * (out.nbytes + out[..., 0].nbytes)
