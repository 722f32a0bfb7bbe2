"""Reusable property suites over fixed enumerable grids.

Each suite returns a list of CheckResult rows; a row failing carries a
counterexample string.  The suites are shared between the test
harness, the acceptance gate, and the command line front end.  Grids
are fixed (no random reals) so that any failure is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence

from .canon import canon_key
from .functor import (ConstF, ConstLeaf, CoprodF, IdF, IdLeaf, Inl, Inr, Tup,
                      build_lambda, compositionality_check, exception_functor,
                      lift_closed, machine_functor)
from .galois import (Grid, Pred, PredSet, alpha, extension_largest,
                     extension_smallest, gamma_enum, grid_values, reindex_preds)
from .quantale import BOOLEAN, EXT_PLUS, UNIT_OPLUS, Quantale
from .vgraph import (Carrier, FiniteMap, VGraph, carrier, direct_image,
                     graph_from_entries, is_vcat, metric_closure, reindex)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        suffix = f"  [{self.detail}]" if (self.detail and not self.passed) else ""
        return f"{status}  {self.name}{suffix}"


def _all(name: str, cases, predicate) -> CheckResult:
    for case in cases:
        if not predicate(case):
            return CheckResult(name, False, f"counterexample: {case!r}")
    return CheckResult(name, True)


# -- quantale laws -----------------------------------------------------------

def residuation_lemma_suite(q: Quantale, values: Sequence) -> List[CheckResult]:
    """The ten internal-hom properties, checked on all value pairs
    (item 1, against every u), triples and quadruples."""
    vals = list(values)
    triples = list(product(vals, repeat=3))
    res = q.residuate
    out = [
        _all(f"{q.ident}: largest-u characterization (item 1)", product(vals, repeat=2),
             lambda c: q.leq(q.tensor(res(c[0], c[1]), c[0]), c[1])
             and all(not q.leq(q.tensor(u, c[0]), c[1]) or q.leq(u, res(c[0], c[1]))
                     for u in vals)),
        _all(f"{q.ident}: reflexivity (item 2)", vals,
             lambda v: q.leq(q.unit, res(v, v))),
        _all(f"{q.ident}: triangle (item 3)", triples,
             lambda c: q.leq(q.tensor(res(c[0], c[1]), res(c[1], c[2])), res(c[0], c[2]))),
        _all(f"{q.ident}: unit law (item 4)", vals,
             lambda w: res(q.unit, w) == w),
        _all(f"{q.ident}: from-bottom (item 5)", vals,
             lambda w: res(q.bottom, w) == q.top),
        _all(f"{q.ident}: to-top (item 6)", vals,
             lambda v: res(v, q.top) == q.top),
        CheckResult(f"{q.ident}: top-to-bottom (item 7)",
                    res(q.top, q.bottom) == q.bottom),
        _all(f"{q.ident}: left self-distribution bound (item 8)", triples,
             lambda c: q.leq(res(c[0], c[2]), res(res(c[1], c[0]), res(c[1], c[2])))),
        _all(f"{q.ident}: right self-distribution bound (item 9)", triples,
             lambda c: q.leq(res(c[0], c[2]), res(res(c[2], c[1]), res(c[0], c[1])))),
        _meet_family_bound(q, vals),
    ]
    return out


def _meet_family_bound(q: Quantale, vals: List) -> CheckResult:
    """Item 10 on every quadruple of ``vals`` in product order, reading
    ``meet2`` off a table over the values (closed under it, as every
    chain is), ``residuate`` off one over their pairs, and the comparison
    off one over triples of distinct residuals."""
    name = f"{q.ident}: meet-family bound (item 10)"
    position = {v: i for i, v in enumerate(vals)}
    meet = [[position[q.meet2(a, c)] for c in vals] for a in vals]
    found: Dict[object, int] = {}
    res = [[found.setdefault(q.residuate(a, b), len(found)) for b in vals] for a in vals]
    holds = [[[q.leq(q.meet2(x, y), z) for z in found] for y in found] for x in found]
    for a, b, c, d in product(range(len(vals)), repeat=4):
        if not holds[res[a][b]][res[c][d]][res[meet[a][c]][meet[b][d]]]:
            case = (vals[a], vals[b], vals[c], vals[d])
            return CheckResult(name, False, f"counterexample: {case!r}")
    return CheckResult(name, True)


def adjunction_suite(q: Quantale, values: Sequence) -> List[CheckResult]:
    triples = list(product(list(values), repeat=3))
    return [_all(
        f"{q.ident}: tensor-residuation adjunction", triples,
        lambda c: q.leq(q.tensor(c[0], c[1]), c[2]) == q.leq(c[1], q.residuate(c[0], c[2])))]


def distributivity_suite(q: Quantale, values: Sequence) -> List[CheckResult]:
    vals = list(values)
    cases = [(a, rest) for a in vals
             for rest in [vals[:0], vals[:1], vals[:3], vals[-3:]]]
    return [_all(
        f"{q.ident}: tensor distributes over finite joins", cases,
        lambda c: q.tensor(c[0], q.join(c[1])) == q.join(q.tensor(c[0], b) for b in c[1]))]


def quantale_suite(grid: int = 8) -> List[CheckResult]:
    """The residuation, adjunction and distributivity laws of the three
    quantales, on both booleans, the unit interval's ``grid`` grid, and
    the extended reals' quarters up to 4 with infinity."""
    out: List[CheckResult] = []
    value_sets = {
        BOOLEAN: [False, True],
        UNIT_OPLUS: grid_values(UNIT_OPLUS, Grid(grid)),
        EXT_PLUS: grid_values(EXT_PLUS, Grid(4, cap=4)),
    }
    for q, vals in value_sets.items():
        out.extend(residuation_lemma_suite(q, vals))
        out.extend(adjunction_suite(q, vals))
        out.extend(distributivity_suite(q, vals))
    return out


# -- helpers for exhaustive boolean graph/predicate enumeration ---------------

def all_bool_graphs(c: Carrier) -> List[VGraph]:
    n = len(c)
    out = []
    for bits in product([False, True], repeat=n * n):
        dist = [list(bits[i * n:(i + 1) * n]) for i in range(n)]
        out.append(VGraph(BOOLEAN, c, dist))
    return out


def all_bool_preds(c: Carrier) -> List[Pred]:
    els = c.elements
    return [dict(zip(els, combo)) for combo in product([False, True], repeat=len(els))]


def all_maps(dom: Carrier, cod: Carrier) -> List[FiniteMap]:
    out = []
    for combo in product(cod.elements, repeat=len(dom)):
        out.append(FiniteMap(dom, cod, dict(zip(dom.elements, combo))))
    return out


def _pred_key(p: Pred) -> str:
    return "|".join(f"{x}={canon_key(v)}" for x, v in sorted(p.items()))


def _predset_keys(preds: PredSet) -> frozenset:
    return frozenset(_pred_key(p) for p in preds.preds)


@dataclass
class BooleanFibre:
    """Every boolean graph on one carrier, in ``all_bool_graphs`` order,
    with its predicate set gamma(d) = ``gamma_enum(d)``
    computed once, the set's keys (``_predset_keys``), and the index of
    its gamma-class, the graphs with the same predicate set.

    The Kantorovich lifting of d is alpha applied to the evaluations of
    the predicates in gamma(d), so it reads d only through gamma(d): a
    compiled lifting (``functor.compile_lifting``) runs on gamma(d)
    alone.  A boolean law check that compares liftings of d is then a
    function of gamma(d), and running it once per class, on the class's
    first graph and its predicate set, gives each graph's answer
    exactly.  Classes
    are numbered in the order of their first graphs, so the first
    failing class starts at the first failing graph of the enumeration.
    """

    carrier: Carrier
    graphs: List[VGraph]
    gammas: List[PredSet]
    keys: List[frozenset]
    classes: List[int]
    firsts: List[int]

    def index(self, d: VGraph) -> int:
        """The position of a boolean graph on this carrier in ``graphs``
        (the carrier is not checked)."""
        i = 0
        for row in d.dist:
            for bit in row:
                i = 2 * i + bit
        return i

    def first_failure(self, check: Callable[[VGraph, PredSet], Optional[str]]
                      ) -> Optional[str]:
        """The first witness ``check(d, gamma(d))`` returns over the
        graphs in order, or None when it returns None on all of them.

        ``check`` runs once per gamma-class, on the class's first graph
        and the predicate set ``gammas`` holds for it, which it uses
        rather than enumerating its own; it must depend on d only
        through gamma(d) (see the class docstring).
        """
        for i in self.firsts:
            witness = check(self.graphs[i], self.gammas[i])
            if witness is not None:
                return witness
        return None


def boolean_fibre(c: Carrier) -> BooleanFibre:
    """The boolean graphs on ``c`` grouped by predicate set; see
    ``BooleanFibre``."""
    graphs = all_bool_graphs(c)
    gammas = [gamma_enum(d) for d in graphs]
    keys = [_predset_keys(preds) for preds in gammas]
    class_of: Dict[frozenset, int] = {}
    classes = [class_of.setdefault(k, len(class_of)) for k in keys]
    firsts = [classes.index(k) for k in range(len(class_of))]
    return BooleanFibre(c, graphs, gammas, keys, classes, firsts)


# -- Galois-pair laws ----------------------------------------------------------

def galois_suite() -> List[CheckResult]:
    """Boolean-exact checks of the generating/observing adjunction and
    its consequences, exhaustively on the carriers of sizes 2 and 3.
    Each carrier's predicate sets are enumerated once (``boolean_fibre``)
    and read by every check."""
    out: List[CheckResult] = []

    # Galois connection + co-closure on carriers of size 2 and 3.
    for n in (2, 3):
        c = carrier([f"e{i}" for i in range(n)])
        fibre = boolean_fibre(c)
        graphs = fibre.graphs
        preds = all_bool_preds(c)
        ok_gc = True
        witness = ""
        pred_keys = [_pred_key(p) for p in preds]
        for pbits in product([False, True], repeat=len(preds)):
            chosen = [preds[i] for i in range(len(preds)) if pbits[i]]
            chosen_keys = frozenset(pred_keys[i] for i in range(len(preds)) if pbits[i])
            # d <= alpha(S) pointwise reads off the bits of ``fibre.index``:
            # no entry of d is True where alpha(S) is False.
            ag_bits = fibre.index(alpha(PredSet(c, chosen)))
            for idx, d in enumerate(graphs):
                lhs = not idx & ~ag_bits
                rhs = chosen_keys <= fibre.keys[idx]
                if lhs != rhs:
                    ok_gc = False
                    witness = f"n={n} S={sorted(chosen_keys)} d={d.dist}"
                    break
            if not ok_gc:
                break
        out.append(CheckResult(f"boolean Galois connection, {n}-point carrier",
                               ok_gc, witness))

        ok_cc = True
        witness = ""
        for d, gamma in zip(graphs, fibre.gammas):
            if alpha(gamma).dist != metric_closure(d).dist:
                ok_cc = False
                witness = f"d={d.dist}"
                break
        out.append(CheckResult(
            f"boolean co-closure equals metric closure, {n}-point carrier",
            ok_cc, witness))

        ok_cat = all(is_vcat(alpha(PredSet(c, list(sub))))
                     for sub in [preds[:0], preds[:1], preds[:3], preds])
        out.append(CheckResult(
            f"alpha lands in V-Cat, {n}-point carrier", ok_cat))

    # Naturality of alpha; lax naturality of gamma, strict on V-categories.
    x2 = carrier(["a0", "a1"])
    x3 = carrier(["b0", "b1", "b2"])
    fibres = {x2: boolean_fibre(x2), x3: boolean_fibre(x3)}
    ok_nat = True
    ok_lax = True
    ok_strict = True
    nat_wit = lax_wit = strict_wit = ""
    for dom, cod in [(x2, x2), (x2, x3), (x3, x2)]:
        cod_preds = all_bool_preds(cod)
        dom_fibre, cod_fibre = fibres[dom], fibres[cod]
        for f in all_maps(dom, cod):
            for pbits in product([False, True], repeat=len(cod_preds)):
                chosen = [cod_preds[i] for i in range(len(cod_preds)) if pbits[i]]
                pset = PredSet(cod, chosen)
                lhs = alpha(reindex_preds(pset, f))
                rhs = reindex(f, alpha(pset))
                if lhs.dist != rhs.dist:
                    ok_nat = False
                    nat_wit = f"f={f.assignment} S={[sorted(p.items()) for p in chosen]}"
            for d, gamma in zip(cod_fibre.graphs, cod_fibre.gammas):
                pulled = _predset_keys(reindex_preds(gamma, f))
                direct = dom_fibre.keys[dom_fibre.index(reindex(f, d))]
                if not pulled <= direct:
                    ok_lax = False
                    lax_wit = f"f={f.assignment} d={d.dist}"
                if is_vcat(d) and pulled != direct:
                    ok_strict = False
                    strict_wit = f"f={f.assignment} d={d.dist}"
    out.append(CheckResult("alpha is natural (boolean, small carriers)", ok_nat, nat_wit))
    out.append(CheckResult("gamma is laxly natural (boolean)", ok_lax, lax_wit))
    out.append(CheckResult("gamma is natural on V-categories (boolean)",
                           ok_strict, strict_wit))

    # Direct image is left adjoint to reindexing on the fibre lattices.
    # Both sides of each comparison read off ``fibre.index`` bits, and a
    # graph's index is its position in ``fibre.graphs``.
    ok_adj = True
    adj_wit = ""
    for dom, cod in [(x2, x2), (x3, x2)]:
        dom_fibre, cod_fibre = fibres[dom], fibres[cod]
        for f in all_maps(dom, cod):
            reindexed = [dom_fibre.index(reindex(f, e)) for e in cod_fibre.graphs]
            for i, d in enumerate(dom_fibre.graphs):
                sigma = cod_fibre.index(direct_image(f, d))
                for j, fe in enumerate(reindexed):
                    if (not sigma & ~j) != (not i & ~fe):
                        ok_adj = False
                        adj_wit = (f"f={f.assignment} d={d.dist} "
                                   f"e={cod_fibre.graphs[j].dist}")
    out.append(CheckResult("direct image adjoint to reindexing (boolean)",
                           ok_adj, adj_wit))
    return out


# -- non-expansive extension properties ------------------------------------------

# -- polynomial-functor laws ----------------------------------------------------

def polyfunctor_suite() -> List[CheckResult]:
    """Boolean-exact compositionality and construction laws for the two
    case-study functor shapes.

    Compositionality is checked on every boolean graph over {x, y},
    once per gamma-class (``BooleanFibre``): both of its liftings read
    the graph only through its predicate set.  Each shape pair's check
    is compiled once (``compositionality_check``) and run on each class's
    own predicate set."""
    out: List[CheckResult] = []
    c = carrier(["x", "y"])
    fibre = boolean_fibre(c)
    shapes = {
        "machine": machine_functor(["a"]),
        "exception": exception_functor(["a"]),
    }
    inners = {
        "identity": (IdF(), [IdLeaf("x"), IdLeaf("y")]),
        "coproduct": (CoprodF(ConstF(), IdF()),
                      [Inl(ConstLeaf(False)), Inl(ConstLeaf(True)),
                       Inr(IdLeaf("x")), Inr(IdLeaf("y"))]),
    }
    for shape_name, outer in shapes.items():
        for inner_name, (inner, g_terms) in inners.items():
            if shape_name == "machine":
                fg_terms = [Tup((ConstLeaf(b), Tup((IdLeaf(g),))))
                            for b in (False, True) for g in g_terms]
            else:
                fg_terms = [Inl(ConstLeaf(b)) for b in (False, True)] + \
                    [Inr(Tup((IdLeaf(g),))) for g in g_terms]
            check = compositionality_check(build_lambda(outer), build_lambda(inner),
                                           g_terms, fg_terms)

            def fails(d, gamma):
                report = check(gamma)
                if report["equal"] and report["composed_below_combined"]:
                    return None
                return f"d={d.dist}"

            witness = fibre.first_failure(fails)
            out.append(CheckResult(
                f"compositionality: {shape_name} after {inner_name} "
                "(boolean, exhaustive)", witness is None, witness or ""))

    # Associativity of the coproduct evaluation-set construction, read
    # off the induced lifted distances.
    d = graph_from_entries(UNIT_OPLUS, c, {("x", "y"): Fraction(1, 2)},
                           default=Fraction(0))
    left_assoc = CoprodF(CoprodF(ConstF(), IdF()), IdF())
    right_assoc = CoprodF(ConstF(), CoprodF(IdF(), IdF()))
    ltr = [Inl(Inl(ConstLeaf(Fraction(1, 4)))), Inl(Inr(IdLeaf("x"))),
           Inr(IdLeaf("y"))]
    rtr = [Inl(ConstLeaf(Fraction(1, 4))), Inr(Inl(IdLeaf("x"))),
           Inr(Inr(IdLeaf("y")))]
    assoc_ok = lift_closed(left_assoc, d, ltr).dist == \
        lift_closed(right_assoc, d, rtr).dist
    out.append(CheckResult("coproduct evaluation sets associate "
                           "(via lifted distances)", assoc_ok))
    return out


def _random_vcat(rng: random.Random, q: Quantale, c: Carrier, vals) -> VGraph:
    n = len(c)
    dist = [[rng.choice(vals) for _ in range(n)] for _ in range(n)]
    return metric_closure(VGraph(q, c, dist))


def extension_suite() -> List[CheckResult]:
    """The largest and smallest non-expansive extensions of a map from a
    sub-carrier, on 120 random V-categories over the three quantales:
    each agrees on the sub-carrier, is non-expansive, and bounds every
    grid-valued non-expansive extension from its side.  Each instance
    meets the extensions' preconditions by construction: the graph is a
    metric closure, and the partial map a restriction of d(base, -)."""
    rng = random.Random(7)
    quantales = {
        BOOLEAN: [False, True],
        UNIT_OPLUS: grid_values(UNIT_OPLUS, Grid(4)),
        EXT_PLUS: grid_values(EXT_PLUS, Grid(2, cap=2)),
    }
    checked = 0
    for _ in range(120):
        q = rng.choice(list(quantales))
        vals = quantales[q]
        size = rng.choice([2, 3])
        c = carrier([f"p{i}" for i in range(size)])
        d = _random_vcat(rng, q, c, vals)
        sub = sorted(rng.sample(list(c.elements), rng.randint(1, size)))
        # Restrictions of globally non-expansive maps are non-expansive.
        base = rng.choice(list(c.elements))
        f = {x: d.at(base, x) for x in sub}
        big = extension_largest(d, sub, f)
        small = extension_smallest(d, sub, f)
        for g, tag in ((big, "largest"), (small, "smallest")):
            for x in sub:
                if g[x] != f[x]:
                    return [CheckResult("extension suite", False,
                                        f"{tag} does not agree on the sub-carrier")]
            for x in c:
                for y in c:
                    if not q.leq(d.at(x, y), q.residuate(g[x], g[y])):
                        return [CheckResult("extension suite", False,
                                            f"{tag} extension is expansive at ({x},{y})")]
        # Extremality against every grid-valued non-expansive extension.
        free = [x for x in c if x not in sub]
        for combo in product(vals, repeat=len(free)):
            h = dict(f)
            h.update(dict(zip(free, combo)))
            ok = all(q.leq(d.at(x, y), q.residuate(h[x], h[y]))
                     for x in c for y in c)
            if not ok:
                continue
            for x in c:
                if not q.leq(h[x], big[x]):
                    return [CheckResult("extension suite", False,
                                        f"a valid extension exceeds the largest at {x}")]
                if not q.leq(small[x], h[x]):
                    return [CheckResult("extension suite", False,
                                        f"a valid extension is below the smallest at {x}")]
        for x in c:
            if not q.leq(small[x], big[x]):
                return [CheckResult("extension suite", False,
                                    "smallest above largest in the quantale order")]
        checked += 1
    return [CheckResult(f"extension properties on {checked} random instances", True)]
