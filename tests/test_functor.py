import random
from fractions import Fraction as F
from itertools import product

import pytest

from conftest import graph_leq, machine_term, shape_check
from grid_oracle import grid_gamma, grid_lifting
from quantadist.canon import canon_key
from quantadist.functor import (ConstF, ConstLeaf, CoprodF,
                                IdEval, IdF, IdLeaf, Inl, Inr, MonadEval, ProdF,
                                ShapeError, StarEval, Tup, build_lambda,
                                compile_lifting, compositionality_check,
                                distance_program, eval_map, exception_functor,
                                lift_closed, machine_functor,
                                map_payloads, polynomial_distance, star)
from quantadist.galois import Grid, PredSet, alpha, gamma_enum, grid_values
from quantadist.monadlift import POWERSET, SUBDIST, dirac, finsubset, subdist
from quantadist.quantale import BOOLEAN, EXT_PLUS, UNIT_OPLUS
from quantadist.suites import all_bool_graphs, all_bool_preds
from quantadist.vgraph import (VGraph, carrier,
                               graph_from_entries, is_vcat, metric_closure)


XY = carrier(["x", "y"])
MACHINE = machine_functor(["a"])
EXCEPTION = exception_functor(["a"])


# -- evaluation-map construction ------------------------------------------------

def test_build_lambda_identity():
    assert build_lambda(IdF()) == [IdEval()]


def test_build_lambda_machine():
    lam = build_lambda(MACHINE)
    assert len(lam) == 2
    term = machine_term(F(1, 2), F(3, 4))
    values = {eval_map(UNIT_OPLUS, ev, term) for ev in lam}
    assert values == {F(1, 2), F(3, 4)}


def test_build_lambda_coproduct_count():
    lam = build_lambda(CoprodF(ConstF(), IdF()))
    assert len(lam) == 3
    sides = sorted(ev.side for ev in lam)
    assert sides == ["left", "right", "split"]


def test_shape_errors():
    with pytest.raises(ShapeError):
        shape_check(MACHINE, Inl(ConstLeaf(F(1))))
    with pytest.raises(ShapeError):
        shape_check(IdF(), ConstLeaf(F(0)))


@pytest.mark.parametrize("make", [
    lambda: ConstLeaf(F(1, 2)), lambda: IdLeaf(1), lambda: Tup((IdLeaf(1), ConstLeaf(F(0)))),
    lambda: Inl(IdLeaf(1)), lambda: Inr(ConstLeaf(F(1)))],
    ids=["ConstLeaf", "IdLeaf", "Tup", "Inl", "Inr"])
def test_terms_are_slotted_value_types(make):
    term, same = make(), make()
    assert not hasattr(term, "__dict__")
    assert term is not same and term == same and hash(term) == hash(same)
    assert {term: "value"}[same] == "value"


def test_terms_of_different_classes_differ():
    t = IdLeaf(1)
    assert Inl(t) != Inr(t) and IdLeaf(1) != ConstLeaf(1)
    assert len({Inl(t), Inr(t), IdLeaf(1), ConstLeaf(1)}) == 4


# -- closed-form lifted distance -------------------------------------------------

def test_lift_closed_coproduct_cross_cases():
    d = graph_from_entries(UNIT_OPLUS, XY, {("x", "y"): F(1, 2)}, default=F(0))
    throw = Inl(ConstLeaf(F(1, 4)))
    step = Inr(Tup((IdLeaf("x"),)))
    lifted = lift_closed(EXCEPTION, d, [throw, step])
    assert lifted.at(canon_key(throw), canon_key(step)) == UNIT_OPLUS.top
    assert lifted.at(canon_key(step), canon_key(throw)) == UNIT_OPLUS.bottom


def test_lift_closed_machine_formula():
    d = graph_from_entries(UNIT_OPLUS, XY, {("x", "y"): F(1, 4), ("y", "x"): F(3, 4)},
                           default=F(0))
    dc = metric_closure(d)
    terms = [machine_term(r, s) for r in (F(0), F(1, 2)) for s in ("x", "y")]
    lifted = lift_closed(MACHINE, d, terms)
    for s in terms:
        for t in terms:
            r1, r2 = s.items[0].atom, t.items[0].atom
            p1 = s.items[1].items[0].payload
            p2 = t.items[1].items[0].payload
            expected = max(max(r2 - r1, F(0)), dc.at(p1, p2))
            assert lifted.at(canon_key(s), canon_key(t)) == expected


def test_lift_closed_equal_tuples_hit_closure_diagonal():
    d = graph_from_entries(UNIT_OPLUS, XY, {("x", "x"): F(1, 3)}, default=F(0))
    func = ProdF((IdF(), IdF()))
    t = Tup((IdLeaf("x"), IdLeaf("x")))
    lifted = lift_closed(func, d, [t])
    assert lifted.at(canon_key(t), canon_key(t)) == F(0)  # closure saturates the diagonal


def test_lift_closed_monotone_and_preserves_vcat():
    terms = [Inl(ConstLeaf(F(0))), Inl(ConstLeaf(F(1, 2))),
             Inr(Tup((IdLeaf("x"),))), Inr(Tup((IdLeaf("y"),)))]
    graphs = [
        graph_from_entries(UNIT_OPLUS, XY, {("x", "y"): F(1, 4)}, default=F(0)),
        graph_from_entries(UNIT_OPLUS, XY, {("x", "y"): F(3, 4), ("y", "x"): F(1, 2)},
                           default=F(0)),
    ]
    lifted = [lift_closed(EXCEPTION, d, terms) for d in graphs]
    assert graph_leq(lifted[0], lifted[1]) == graph_leq(metric_closure(graphs[0]),
                                                        metric_closure(graphs[1]))
    for lg in lifted:
        assert is_vcat(lg)


def test_coproduct_eval_sets_associative_via_distances():
    a, b, c1 = ConstF(), IdF(), IdF()
    left_assoc = CoprodF(CoprodF(a, b), c1)
    right_assoc = CoprodF(a, CoprodF(b, c1))
    d = graph_from_entries(UNIT_OPLUS, XY, {("x", "y"): F(1, 2)}, default=F(0))
    ltr = [Inl(Inl(ConstLeaf(F(1, 4)))), Inl(Inr(IdLeaf("x"))), Inr(IdLeaf("y"))]
    rtr = [Inl(ConstLeaf(F(1, 4))), Inr(Inl(IdLeaf("x"))), Inr(Inr(IdLeaf("y")))]
    dl = lift_closed(left_assoc, d, ltr)
    dr = lift_closed(right_assoc, d, rtr)
    assert dl.dist == dr.dist


# -- generic Kantorovich formula --------------------------------------------------

def test_generic_identity_equals_closure_boolean():
    terms = [IdLeaf("x"), IdLeaf("y")]
    for d in all_bool_graphs(XY):
        out = compile_lifting([IdEval()], terms)(gamma_enum(d))
        closed = metric_closure(d)
        for i, x in enumerate(XY.elements):
            for j, y in enumerate(XY.elements):
                assert out.dist[i][j] == closed.at(x, y)


def test_generic_empty_eval_set_gives_top():
    d = graph_from_entries(BOOLEAN, XY, {("x", "y"): True}, default=False)
    out = compile_lifting([], [machine_term(False, "x")])(gamma_enum(d))
    assert out.dist[0][0] == BOOLEAN.top


def test_compiled_lifting_runs_on_many_graphs():
    # One compiled lifting, run on every graph in turn, gives each
    # graph's lifting; nothing of one run carries over to the next.
    terms = [machine_term(b, g) for b in (False, True) for g in ("x", "y")]
    lifting = compile_lifting(build_lambda(MACHINE), terms)
    graphs = all_bool_graphs(XY)
    for d in graphs + graphs[::-1]:
        preds = gamma_enum(d)
        fresh = compile_lifting(build_lambda(MACHINE), terms)
        assert lifting(preds).dist == fresh(preds).dist


def test_generic_grid_bounds_closed_form_machine():
    # The closed form against the grid oracle, which tightens to it.
    d = graph_from_entries(UNIT_OPLUS, XY, {("x", "y"): F(1, 4), ("y", "x"): F(1, 2)},
                           default=F(0))
    terms = [machine_term(r, s) for r in (F(0), F(1, 2)) for s in ("x", "y")]
    closed = lift_closed(MACHINE, d, terms)
    lifting = grid_lifting(UNIT_OPLUS, MACHINE, build_lambda(MACHINE), terms)
    prev_gap = None
    for k in (2, 4, 8):
        approx = lifting(grid_gamma(d, Grid(k)))
        gap = F(0)
        n = len(terms)
        for i in range(n):
            for j in range(n):
                assert approx.dist[i][j] <= closed.dist[i][j]
                gap += closed.dist[i][j] - approx.dist[i][j]
        if prev_gap is not None:
            assert gap <= prev_gap
        prev_gap = gap
    assert prev_gap == 0


# -- star composition --------------------------------------------------------------

def test_star_identity_neutral():
    inner = build_lambda(MACHINE)
    composed = star(build_lambda(IdF()), inner)
    assert len(composed) == len(inner)
    g_term = machine_term(F(1, 2), F(1, 4))
    for joint, ev in zip(composed, inner):
        assert eval_map(UNIT_OPLUS, joint, IdLeaf(g_term)) == \
            eval_map(UNIT_OPLUS, ev, g_term)


def test_star_size():
    lam_f = build_lambda(CoprodF(ConstF(), IdF()))
    lam_g = build_lambda(MACHINE)
    assert len(star(lam_f, lam_g)) == len(lam_f) * len(lam_g)


def test_star_sup_expect_counterexample_evaluator():
    sup_e = StarEval(MonadEval(POWERSET), MonadEval(SUBDIST))
    for gx, gy in product([F(0), F(1, 3), F(1)], repeat=2):
        u = finsubset([dirac(gx), dirac(gy)])
        v = finsubset([dirac(gx), subdist({gx: F(1, 2), gy: F(1, 2)}), dirac(gy)])
        assert eval_map(UNIT_OPLUS, sup_e, u) == max(gx, gy)
        assert eval_map(UNIT_OPLUS, sup_e, v) == max(gx, gy)


# -- compositionality ----------------------------------------------------------------

def boolean_terms_for(functor):
    if isinstance(functor, IdF):
        return [IdLeaf("x"), IdLeaf("y")]
    if isinstance(functor, CoprodF) and isinstance(functor.left, ConstF):
        return [Inl(ConstLeaf(False)), Inl(ConstLeaf(True)),
                Inr(IdLeaf("x")), Inr(IdLeaf("y"))]
    raise AssertionError(functor)


def composed_terms_for(outer_shape, g_terms):
    if outer_shape == "machine":
        return [Tup((ConstLeaf(b), Tup((IdLeaf(g),))))
                for b in (False, True) for g in g_terms]
    return [Inl(ConstLeaf(b)) for b in (False, True)] + \
        [Inr(Tup((IdLeaf(g),))) for g in g_terms]


@pytest.mark.parametrize("outer_shape", ["machine", "exception"])
@pytest.mark.parametrize("inner_kind", ["id", "coprod"])
def test_compositionality_boolean_exhaustive(outer_shape, inner_kind):
    outer = MACHINE if outer_shape == "machine" else EXCEPTION
    inner = IdF() if inner_kind == "id" else CoprodF(ConstF(), IdF())
    g_terms = boolean_terms_for(inner)
    fg_terms = composed_terms_for(outer_shape, g_terms)
    check = compositionality_check(build_lambda(outer), build_lambda(inner),
                                   g_terms, fg_terms)
    for d in all_bool_graphs(XY):
        report = check(gamma_enum(d))
        assert report["composed_below_combined"]
        assert report["equal"], (d.dist, report["lhs"].dist, report["rhs"].dist)


def test_lambda_set_commutes_with_coclosure_boolean():
    # For the generated evaluation maps, pushing predicates through the
    # functor after saturating with the co-closure stays inside the
    # saturation of the pushed predicates.
    preds = all_bool_preds(XY)
    func = EXCEPTION
    lam = build_lambda(func)
    terms = composed_terms_for("exception", [])
    terms = [Inl(ConstLeaf(False)), Inl(ConstLeaf(True)),
             Inr(Tup((IdLeaf("x"),))), Inr(Tup((IdLeaf("y"),)))]
    keys = carrier([canon_key(t) for t in terms])
    for bits in product([False, True], repeat=len(preds)):
        chosen = [preds[i] for i in range(len(preds)) if bits[i]]
        if not chosen:
            continue
        pset = PredSet(XY, chosen)
        closed_graph = alpha(pset)
        gamma_of_alpha = gamma_enum(closed_graph)
        # alpha_F of the pushed predicate set, on the explicit term carrier.
        lifted_graph = None
        n = len(terms)
        dist = [[BOOLEAN.top] * n for _ in range(n)]
        for ev in lam:
            for f in pset.preds:
                scores = [eval_map(BOOLEAN, ev, map_payloads(t, lambda x: f[x]))
                          for t in terms]
                for i in range(n):
                    for j in range(n):
                        dist[i][j] = BOOLEAN.meet2(
                            dist[i][j], BOOLEAN.residuate(scores[i], scores[j]))
        lifted_graph = VGraph(BOOLEAN, keys, dist)
        for ev in lam:
            for f in gamma_of_alpha.preds:
                scores = [eval_map(BOOLEAN, ev, map_payloads(t, lambda x: f[x]))
                          for t in terms]
                for i in range(n):
                    for j in range(n):
                        assert BOOLEAN.leq(lifted_graph.dist[i][j],
                                           BOOLEAN.residuate(scores[i], scores[j]))


# -- no tensor in the lifted distance --------------------------------------------
#
# ``pair_gfp`` reads a Kleene iterate as the meet of local values over
# a pair graph.  That needs the lifted distance to be the meet of its
# value with top leaves and of the distance at the leaf pairs it reads:
# no tensor, no weighted leaf.

PAYLOADS = ["u", "v", "w"]


def random_functor(rng, values, depth=3):
    kinds = ["value", "id"] + (["prod", "coprod"] * 2 if depth else [])
    kind = rng.choice(kinds)
    if kind == "value":
        return ConstF()
    if kind == "id":
        return IdF()
    if kind == "prod":
        parts = tuple(random_functor(rng, values, depth - 1)
                      for _ in range(rng.randint(1, 3)))
        labels = tuple(f"l{i}" for i in range(len(parts))) if rng.random() < 0.5 else None
        return ProdF(parts, labels)
    return CoprodF(random_functor(rng, values, depth - 1),
                   random_functor(rng, values, depth - 1))


def random_term(rng, functor, values):
    if isinstance(functor, ConstF):
        return ConstLeaf(rng.choice(values))
    if isinstance(functor, IdF):
        return IdLeaf(rng.choice(PAYLOADS))
    if isinstance(functor, ProdF):
        return Tup(tuple(random_term(rng, part, values) for part in functor.parts))
    if rng.random() < 0.5:
        return Inl(random_term(rng, functor.left, values))
    return Inr(random_term(rng, functor.right, values))


@pytest.mark.parametrize("q, grid", [(UNIT_OPLUS, Grid(4)), (EXT_PLUS, Grid(2, cap=3))],
                         ids=["unit-oplus", "ext-plus"])
def test_lifted_distance_is_a_meet_of_local_and_leaf_values(q, grid):
    rng = random.Random(11)
    values = grid_values(q, grid)
    for _ in range(300):
        functor = random_functor(rng, values)
        s, t = random_term(rng, functor, values), random_term(rng, functor, values)
        d = {(x, y): rng.choice(values) for x in PAYLOADS for y in PAYLOADS}
        read = []

        def record(x, y):
            read.append((x, y))
            return q.top

        local = polynomial_distance(q, functor, record, s, t)
        expected = q.meet([local] + [d[pair] for pair in read])
        assert polynomial_distance(q, functor, lambda x, y: d[(x, y)], s, t) == expected


# -- the compiled distance against the recursive one ------------------------------
#
# ``distance_program`` compiles a functor once into one function per
# node.  The oracle is the recursive body it replaced, which dispatched
# on the functor syntax at every node of every pair.  Both run on terms
# built to the functor's shape; neither checks it.


def oracle_polynomial_distance(q, functor, leaf_dist, s, t):
    """The structural lifted distance, recursing through the functor, on
    terms of its shape."""
    if isinstance(functor, ConstF):
        return q.residuate(s.atom, t.atom)
    if isinstance(functor, IdF):
        return leaf_dist(s.payload, t.payload)
    if isinstance(functor, ProdF):
        return q.meet(
            oracle_polynomial_distance(q, part, leaf_dist, s.items[i], t.items[i])
            for i, part in enumerate(functor.parts)
        )
    if isinstance(functor, CoprodF):
        if isinstance(s, Inl) and isinstance(t, Inl):
            return oracle_polynomial_distance(q, functor.left, leaf_dist, s.item, t.item)
        if isinstance(s, Inr) and isinstance(t, Inr):
            return oracle_polynomial_distance(q, functor.right, leaf_dist, s.item, t.item)
        return q.top if isinstance(s, Inl) else q.bottom
    raise TypeError(f"not a functor expression: {functor!r}")


@pytest.mark.parametrize("q, grid", [(BOOLEAN, Grid(1)), (UNIT_OPLUS, Grid(4)),
                                     (EXT_PLUS, Grid(2, cap=3))],
                         ids=["boolean", "unit-oplus", "ext-plus"])
def test_distance_program_matches_the_recursive_oracle(q, grid):
    rng = random.Random(f"program-{q.ident}")
    values = grid_values(q, grid)
    for _ in range(300):
        functor = random_functor(rng, values)
        program = distance_program(q, functor)
        d = {(x, y): rng.choice(values) for x in PAYLOADS for y in PAYLOADS}
        leaf = lambda x, y: d[(x, y)]
        for _ in range(6):
            s, t = random_term(rng, functor, values), random_term(rng, functor, values)
            assert program(s, t, leaf) == \
                oracle_polynomial_distance(q, functor, leaf, s, t), (functor, s, t)
