"""Differential tests of the compiled generic Kantorovich formula.

The oracle is the map-then-evaluate formula: apply the predicate at the
carrier leaves of every term (``map_payloads`` / ``Monad.map``), then
evaluate the mapped term with the recursive walk ``walk_eval`` below,
and fold the residuated score differences into the meet.
``compile_lifting`` instead compiles each (evaluation map, term) pair
once into a reader and must give the same matrix on every generated
boolean input.  It computes over the booleans only; on the real-valued
quantales the readers (``functor._reader``) are compared through the
test-side grid lifting, ``grid_oracle.grid_lifting``, which folds their
scores.
"""

import random
from fractions import Fraction as F

import pytest

from grid_oracle import grid_gamma, grid_lifting
from quantadist.canon import canon_key
from quantadist.functor import (ID, ConstEval, ConstF, ConstLeaf, CoprodEval, CoprodF,
                                IdEval, IdF, IdLeaf, Inl, Inr, MonadEval, ProdF,
                                ProjEval, ShapeError, StarEval, Tup, _reader,
                                build_lambda, compile_lifting, eval_map,
                                map_payloads, pow_functor, star)
from quantadist.galois import Grid, gamma_enum, grid_values
from quantadist.monadlift import POWERSET, SUBDIST, finsubset, subdist
from quantadist.quantale import BOOLEAN, EXT_PLUS, UNIT_OPLUS
from quantadist.vgraph import VGraph, carrier

#: Value grids small enough to enumerate gamma on a three-point carrier.
GRIDS = {BOOLEAN: Grid(1), UNIT_OPLUS: Grid(2), EXT_PLUS: Grid(1, cap=2)}
XYZ = carrier(["x", "y", "z"])


def walk_eval(q, ev, term):
    """An evaluation map on a term whose carrier leaves are quantale
    values, by structural recursion: a ``StarEval`` maps the inner map
    over the term, then applies the outer one."""
    if isinstance(ev, ConstEval):
        if not isinstance(term, ConstLeaf):
            raise ShapeError(f"constant evaluation on {term!r}")
        return term.atom
    if isinstance(ev, IdEval):
        if not isinstance(term, IdLeaf):
            raise ShapeError(f"identity evaluation on {term!r}")
        return term.payload
    if isinstance(ev, ProjEval):
        if not isinstance(term, Tup):
            raise ShapeError(f"projection on {term!r}")
        return walk_eval(q, ev.inner, term.items[ev.index])
    if isinstance(ev, CoprodEval):
        if isinstance(term, Inl):
            if ev.side == "left":
                return walk_eval(q, ev.inner, term.item)
            return q.bottom
        if isinstance(term, Inr):
            if ev.side == "right":
                return walk_eval(q, ev.inner, term.item)
            return q.top
        raise ShapeError(f"coproduct evaluation on {term!r}")
    if isinstance(ev, MonadEval):
        return ev.monad.ev(term, q)
    if isinstance(ev, StarEval):
        if isinstance(ev.outer, MonadEval):
            monad = ev.outer.monad
            return monad.ev(monad.map(lambda s: walk_eval(q, ev.inner, s), term), q)
        mapped = map_payloads(term, lambda s: walk_eval(q, ev.inner, s))
        return walk_eval(q, ev.outer, mapped)
    raise TypeError(f"not an evaluation map: {ev!r}")


def oracle(evals, d, preds, terms, apply_pred):
    q = d.quantale
    n = len(terms)
    dist = [[q.top] * n for _ in range(n)]
    for ev in evals:
        for f in preds.preds:
            scores = [walk_eval(q, ev, apply_pred(t, f)) for t in terms]
            for i in range(n):
                for j in range(n):
                    dist[i][j] = q.meet2(dist[i][j], q.residuate(scores[i], scores[j]))
    return dist


def at_leaves(t, f):
    return map_payloads(t, lambda x: f[x])


def at_depth_two(t, f):
    return map_payloads(t, lambda inner: at_leaves(inner, f))


def random_graph(rng, q):
    vals = grid_values(q, GRIDS[q])
    dist = [[q.unit if x == y else rng.choice(vals) for y in XYZ] for x in XYZ]
    return VGraph(q, XYZ, dist)


def random_functor(rng, q, depth):
    kinds = ["value", "id"] + (["prod", "pow", "coprod"] if depth else [])
    kind = rng.choice(kinds)
    if kind == "value":
        return ConstF()
    if kind == "id":
        return ID
    if kind == "prod":
        parts = tuple(random_functor(rng, q, depth - 1) for _ in range(rng.randint(1, 3)))
        return ProdF(parts, tuple(f"l{i}" for i in range(len(parts))))
    if kind == "pow":
        return pow_functor(["p", "r"], random_functor(rng, q, depth - 1))
    return CoprodF(random_functor(rng, q, depth - 1), random_functor(rng, q, depth - 1))


def random_term(rng, q, functor, leaf):
    if isinstance(functor, ConstF):
        return ConstLeaf(rng.choice(grid_values(q, GRIDS[q])))
    if isinstance(functor, IdF):
        return IdLeaf(leaf())
    if isinstance(functor, ProdF):
        return Tup(tuple(random_term(rng, q, part, leaf) for part in functor.parts))
    if rng.random() < 0.5:
        return Inl(random_term(rng, q, functor.left, leaf))
    return Inr(random_term(rng, q, functor.right, leaf))


def distinct(items, count):
    out = {}
    for item in items:
        out.setdefault(canon_key(item), item)
        if len(out) == count:
            break
    return list(out.values())


def random_tvalue(rng, monad, items):
    chosen = rng.sample(items, rng.randint(0, min(3, len(items))))
    if monad is POWERSET:
        return finsubset(chosen)
    weights = [F(rng.randint(1, 2), 6) for _ in chosen]
    return subdist(list(zip(chosen, weights)))


def case(seed, quantales=tuple(GRIDS)):
    rng = random.Random(seed)
    q = rng.choice(quantales)
    d = random_graph(rng, q)
    return rng, q, d, gamma_enum(d) if q is BOOLEAN else grid_gamma(d, GRIDS[q])


def lifting_for(q, functor, evals, terms):
    """The compiled boolean lifting, or the grid lifting on the reals."""
    if q is BOOLEAN:
        return compile_lifting(evals, terms)
    return grid_lifting(q, functor, evals, terms)


def assert_same(functor, evals, d, preds, terms, apply_pred):
    got = lifting_for(d.quantale, functor, evals, terms)(preds)
    assert got.carrier.elements == tuple(canon_key(t) for t in terms)
    want = oracle(evals, d, preds, terms, apply_pred)
    assert got.dist == want
    return got


@pytest.mark.parametrize("seed", range(60))
def test_polynomial_maps_match_oracle(seed):
    rng, q, d, preds = case(seed)
    functor = random_functor(rng, q, rng.randint(0, 3))
    leaf = lambda: rng.choice(XYZ.elements)
    terms = distinct((random_term(rng, q, functor, leaf) for _ in range(30)), 6)
    assert_same(functor, build_lambda(functor), d, preds, terms, at_leaves)


@pytest.mark.parametrize("seed", range(60))
def test_star_maps_match_oracle(seed):
    rng, q, d, preds = case(seed)
    outer = random_functor(rng, q, rng.randint(0, 2))
    inner = random_functor(rng, q, rng.randint(0, 2))
    leaf = lambda: rng.choice(XYZ.elements)
    inner_leaf = lambda: random_term(rng, q, inner, leaf)
    terms = distinct((random_term(rng, q, outer, inner_leaf) for _ in range(30)), 6)
    evals = star(build_lambda(outer), build_lambda(inner))
    assert_same(outer, evals, d, preds, terms, at_depth_two)


def monad_case(seed):
    rng, q, d, preds = case(seed)
    # Expectation is not defined over the boolean quantale.
    monad = POWERSET if q is BOOLEAN else rng.choice([POWERSET, SUBDIST])
    return rng, q, d, preds, monad


@pytest.mark.parametrize("seed", range(40))
def test_monad_outside_matches_oracle(seed):
    """StarEval(MonadEval, ev) over T-values of F-terms."""
    rng, q, d, preds, monad = monad_case(seed)
    functor = random_functor(rng, q, rng.randint(0, 2))
    leaf = lambda: rng.choice(XYZ.elements)
    members = distinct((random_term(rng, q, functor, leaf) for _ in range(20)), 5)
    tvalues = distinct((random_tvalue(rng, monad, members) for _ in range(20)), 6)
    evals = [StarEval(MonadEval(monad), ev) for ev in build_lambda(functor)]
    apply_pred = lambda t, f: monad.map(lambda m: at_leaves(m, f), t)
    assert_same(None, evals, d, preds, tvalues, apply_pred)


@pytest.mark.parametrize("seed", range(40))
def test_monad_inside_matches_oracle(seed):
    """StarEval(ev, MonadEval) over F-terms with T-value leaves."""
    rng, q, d, preds, monad = monad_case(seed)
    functor = random_functor(rng, q, rng.randint(0, 2))
    leaf = lambda: random_tvalue(rng, monad, list(XYZ.elements))
    terms = distinct((random_term(rng, q, functor, leaf) for _ in range(30)), 6)
    evals = [StarEval(ev, MonadEval(monad)) for ev in build_lambda(functor)]
    apply_pred = lambda t, f: map_payloads(t, lambda tv: monad.map(lambda x: f[x], tv))
    assert_same(functor, evals, d, preds, terms, apply_pred)


@pytest.mark.parametrize("seed", range(20))
def test_bare_monad_map_matches_oracle(seed):
    rng, q, d, preds, monad = monad_case(seed)
    tvalues = distinct((random_tvalue(rng, monad, list(XYZ.elements))
                        for _ in range(20)), 6)
    apply_pred = lambda t, f: monad.map(lambda x: f[x], t)
    assert_same(None, [MonadEval(monad)], d, preds, tvalues, apply_pred)


@pytest.mark.parametrize("seed", range(30))
def test_eval_map_matches_walk(seed):
    """``functor.eval_map``, a reader read once, against the walk on
    mapped star and monad terms."""
    rng, q, d, preds, monad = monad_case(seed)
    outer = random_functor(rng, q, rng.randint(0, 2))
    inner = random_functor(rng, q, rng.randint(0, 2))
    leaf = lambda: rng.choice(XYZ.elements)
    terms = [random_term(rng, q, outer, lambda: random_term(rng, q, inner, leaf))
             for _ in range(5)]
    tvalues = [random_tvalue(rng, monad, terms) for _ in range(5)]
    for f in preds.preds[:4]:
        for ev in star(build_lambda(outer), build_lambda(inner)):
            for t in terms:
                mapped = at_depth_two(t, f)
                assert eval_map(q, ev, mapped) == walk_eval(q, ev, mapped)
            outside = StarEval(MonadEval(monad), ev)
            for t in tvalues:
                mapped = monad.map(lambda m: at_depth_two(m, f), t)
                assert eval_map(q, outside, mapped) == walk_eval(q, outside, mapped)


def test_generated_inputs_are_not_trivial():
    """The differential cases above compare matrices that are not all top."""
    below_top = 0
    for seed in range(20):
        rng, q, d, preds = case(seed)
        functor = random_functor(rng, q, 2)
        leaf = lambda: rng.choice(XYZ.elements)
        terms = distinct((random_term(rng, q, functor, leaf) for _ in range(30)), 6)
        got = lifting_for(q, functor, build_lambda(functor), terms)(preds)
        below_top += any(v != q.top for row in got.dist for v in row)
    assert below_top >= 10


@pytest.mark.parametrize("seed", range(30))
def test_polynomial_reader_reads_at_most_one_leaf(seed):
    rng = random.Random(seed)
    q = rng.choice(list(GRIDS))
    outer = random_functor(rng, q, 3)
    inner = random_functor(rng, q, 2)
    leaf = lambda: rng.choice(XYZ.elements)
    inner_leaf = lambda: random_term(rng, q, inner, leaf)
    for _ in range(5):
        term = random_term(rng, q, outer, inner_leaf)
        for ev in star(build_lambda(outer), build_lambda(inner)):
            reads = []
            _reader(q, ev, term, lambda x: reads.append(x) or (lambda f: f[x]))
            assert len(reads) <= 1
