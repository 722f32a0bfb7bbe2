"""Differential tests of the liftings and the metric closure.

``kantorovich_lp`` solves the primal transportation problem on the
excess mass; its oracles are the dual pricing LP solved by
``simplex_solve``, the same flow computation on all of support(p) x
support(q) with costs read off the ``Fraction`` closure, and, on
integer-scaled instances, ``networkx.network_simplex``.  The one-pass
``metric_closure`` is compared with the re-checking Floyd-Warshall loop
it replaced and with the one-pass loop over ``Fraction`` values that
``scaled_closure`` replaced, both kept here; ``hausdorff_directed`` with
its closed form over the ``Fraction`` closure.  On a boolean graph both
also equal the ext-plus answer on its image in {0, inf}, read back.
"""

import json
import random
from fractions import Fraction as F
from math import lcm

import pytest

from conftest import graph_equal, origin_feasible
from quantadist.cli import main
from quantadist.models import model_from_json
from quantadist.monadlift import (_min_cost_transport, dirac, finsubset,
                                  hausdorff_directed, kantorovich_lp, pricing_lp, subdist)
from quantadist.quantale import BOOLEAN, EXT_PLUS, INF, UNIT_OPLUS, QuantaleError, is_inf
from quantadist.simplex import UnboundedError, simplex_solve
from quantadist.suites import all_bool_graphs
from quantadist.vgraph import (CarrierMismatchError, VGraph, carrier, is_vcat,
                               metric_closure, scaled_closure)


# -- oracles ----------------------------------------------------------------------

def lp_oracle(d, p, q):
    """The optimum of the dual pricing LP, as ``kantorovich_lp`` used to
    compute it; inf where the LP is unbounded.  Every LP it solves meets
    ``simplex_solve``'s precondition."""
    lp = pricing_lp(d, p, q)
    assert origin_feasible(lp), lp
    try:
        opt = simplex_solve(lp).optimum
    except UnboundedError:
        return INF
    return max(opt, F(0))


def two_pass_closure(d):
    """Floyd-Warshall through the quantale operations, repeated until
    nothing changes (the closure loop before the single pass)."""
    q = d.quantale
    n = len(d.carrier)
    out = VGraph(q, d.carrier, [row[:] for row in d.dist])
    m = out.dist
    for i in range(n):
        m[i][i] = q.join2(m[i][i], q.unit)
    changed = True
    while changed:
        changed = False
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    new = q.join2(m[i][j], q.tensor(m[i][k], m[k][j]))
                    if new != m[i][j]:
                        m[i][j] = new
                        changed = True
    return out


def fraction_closure(d):
    """The one-pass Floyd-Warshall loop over ``Fraction`` values (and
    ``INF``), as ``metric_closure`` ran it on the real-valued quantales
    before the pass moved to scaled integers."""
    q = d.quantale
    n = len(d.carrier)
    out = VGraph(q, d.carrier, [row[:] for row in d.dist])
    m = out.dist
    for i in range(n):
        m[i][i] = q.join2(m[i][i], q.unit)
    for k in range(n):
        row_k = m[k]
        for row in m:
            a = row[k]
            if a is INF:
                continue
            for j in range(n):
                b = row_k[j]
                if b is INF:
                    continue
                cand = a + b
                old = row[j]
                if old is INF or cand < old:
                    row[j] = cand
    return out


def hausdorff_oracle(dc, left, right):
    """The closed form of the powerset lifting through the quantale
    operations, over a closure ``dc`` computed by an oracle loop."""
    q = dc.quantale
    return q.meet(q.join(dc.at(u, v) for u in left.members) for v in right.members)


def ext_plus_image(d):
    """A boolean graph in the sub-quantale {0, inf} of ext-plus: true as
    0, false as inf."""
    return VGraph(EXT_PLUS, d.carrier, [[F(0) if v else INF for v in row] for row in d.dist])


def fraction_transport(d, p, q):
    """Optimal transport on all of support(p) x support(q), the shared
    mass included, with the costs read off the ``Fraction`` closure and
    rescaled to integers entry by entry: the problem ``kantorovich_lp``
    solved before it shipped only the excess and read the integer
    closure.  An infinite cost is priced above every plan that avoids
    one, and a plan that still ships over one costs inf."""
    dc = fraction_closure(d)
    cost = [[dc.at(x, y) for y in q.support()] for x in p.support()]
    finite = [c for row in cost for c in row if not is_inf(c)]
    supply = [w for _x, w in p.items()]
    demand = [w for _y, w in q.items()]
    mass_scale = lcm(*(w.denominator for w in supply + demand))
    cost_scale = lcm(*(c.denominator for c in finite))
    units = [int(w * mass_scale) for w in supply]
    over = int(max(finite, default=F(0)) * cost_scale) * sum(units) + 1
    total = _min_cost_transport(units, [int(w * mass_scale) for w in demand],
                                [[over if is_inf(c) else int(c * cost_scale) for c in row]
                                 for row in cost])
    return INF if total >= over else F(total, mass_scale * cost_scale)


# -- generators -------------------------------------------------------------------

def names(n):
    return carrier([f"v{i}" for i in range(n)])


def ext_graph(rng, n, connected):
    """Random ext-plus graph; ``connected`` adds a ring so every pair is
    reachable, otherwise a sparse chord set leaves some pairs at inf."""
    dist = [[INF] * n for _ in range(n)]
    density = 0.3 if connected else 0.15
    for i in range(n):
        if connected:
            dist[i][(i + 1) % n] = F(rng.randint(1, 12), rng.choice([1, 2, 3]))
        for j in range(n):
            if i != j and rng.random() < density:
                dist[i][j] = F(rng.randint(0, 12), rng.choice([1, 2, 5]))
        dist[i][i] = rng.choice([F(0), F(1), INF])
    return VGraph(EXT_PLUS, names(n), dist)


def unit_graph(rng, n):
    grid = [F(i, 8) for i in range(9)] + [F(1, 3), F(2, 3)]
    dist = [[rng.choice(grid) for _ in range(n)] for _ in range(n)]
    return VGraph(UNIT_OPLUS, names(n), dist)


def random_dist(rng, elements, mass, size):
    support = rng.sample(list(elements), size)
    raw = [rng.randint(1, 9) for _ in support]
    total = sum(raw)
    return subdist({x: mass * F(r, total) for x, r in zip(support, raw)})


def random_pair(rng, d, mass=F(1), small=False):
    n = len(d.carrier)
    hi = max(1, n // 2) if small else n
    return (random_dist(rng, d.carrier, mass, rng.randint(1, hi)),
            random_dist(rng, d.carrier, mass, rng.randint(1, hi)))


# -- kantorovich_lp against the pricing LP -------------------------------------------

@pytest.mark.parametrize("connected", [True, False])
def test_lp_matches_pricing_lp_ext_plus(connected):
    rng = random.Random(101 if connected else 202)
    unreachable = 0
    for _ in range(25):
        d = ext_graph(rng, rng.randint(2, 5), connected)
        unreachable += sum(is_inf(v) for _x, _y, v in metric_closure(d).pairs())
        p, q = random_pair(rng, d)
        assert kantorovich_lp(d, p, q) == lp_oracle(d, p, q), (d.dist, p, q)
    assert (unreachable > 0) != connected


def test_lp_matches_pricing_lp_unit_oplus():
    rng = random.Random(303)
    truncated = 0
    for _ in range(25):
        d = unit_graph(rng, rng.randint(2, 5))
        truncated += any(a + b > 1 for a in d.dist[0] for b in d.dist[0])
        p, q = random_pair(rng, d)
        assert kantorovich_lp(d, p, q) == lp_oracle(d, p, q), (d.dist, p, q)
    assert truncated > 0


@pytest.mark.parametrize("mass", [F(0), F(1, 3), F(5, 7)])
def test_lp_matches_pricing_lp_subdistributions(mass):
    rng = random.Random(str(mass))
    for _ in range(10):
        d = ext_graph(rng, rng.randint(2, 5), rng.random() < 0.5) \
            if rng.random() < 0.5 else unit_graph(rng, rng.randint(2, 5))
        if mass == 0:
            p = q = subdist({})
        else:
            p, q = random_pair(rng, d, mass)
        assert p.mass() == q.mass() == mass
        assert kantorovich_lp(d, p, q) == lp_oracle(d, p, q), (d.dist, p, q)


def test_lp_matches_pricing_lp_small_supports():
    rng = random.Random(404)
    for _ in range(20):
        d = ext_graph(rng, 6, rng.random() < 0.5) if rng.random() < 0.5 \
            else unit_graph(rng, 6)
        p, q = random_pair(rng, d, small=True)
        assert len(p) <= 3 and len(q) <= 3
        assert kantorovich_lp(d, p, q) == lp_oracle(d, p, q), (d.dist, p, q)


def test_lp_dirac_pairs_read_the_capped_closure():
    # Each Dirac pair reads the closure entry: inf where no path joins the
    # two points, and the pricing LP is unbounded there.
    rng = random.Random(505)
    unreachable = 0
    for connected in (True, False):
        for _ in range(4):
            d = ext_graph(rng, 4, connected)
            dc = metric_closure(d)
            for x in d.carrier:
                for y in d.carrier:
                    value = kantorovich_lp(d, dirac(x), dirac(y))
                    assert value == dc.at(x, y)
                    assert value == lp_oracle(d, dirac(x), dirac(y))
                    unreachable += is_inf(value)
    assert unreachable > 0


LP_GRAPHS = [
    # d(A, E) = 5, d(D, B) = 5, d(D, E) = 0, every other pair of distinct
    # points at inf: the one coupling of finite cost ships A to E and D
    # to B, at 5; pricing inf at the largest finite entry made it 5/2.
    ({"elements": ["A", "B", "D", "E"],
      "dist": [["0", "inf", "inf", "5"], ["inf", "0", "inf", "inf"],
               ["inf", "5", "0", "0"], ["inf", "inf", "inf", "0"]]},
     "A:1/2,D:1/2|B:1/2,E:1/2", "5"),
    # Two points at inf both ways: no finite coupling.
    ({"elements": ["A", "B"], "dist": [["0", "inf"], ["inf", "0"]]}, "A:1|B:1", "inf"),
]


@pytest.mark.parametrize("graph,pair,expected", LP_GRAPHS, ids=["one-finite-plan", "none"])
def test_lp_reads_an_unreachable_pair_as_inf(graph, pair, expected, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(dict(graph, kind="vgraph", quantale="ext-plus")),
                    encoding="utf-8")
    assert main(["distance", "--model", str(path), "--pair", pair, "--method", "lp"]) == 0
    assert capsys.readouterr().out == f"{expected}  [exact]\n"
    d = model_from_json(json.loads(path.read_text(encoding="utf-8"))).graph
    p, q = (subdist([(x, F(w)) for x, w in (part.split(":") for part in side.split(","))])
            for side in pair.split("|"))
    assert kantorovich_lp(d, p, q) == fraction_transport(d, p, q) == lp_oracle(d, p, q)


# -- the excess problem against the unreduced oracles --------------------------------

def overlapping_pair(rng, d, mass):
    """``p`` of mass ``mass`` and a ``q`` of the same mass that keeps p's
    weight at some points of its support and spreads the rest over
    random points, so that the two overlap in part."""
    p = random_dist(rng, d.carrier, mass, rng.randint(1, len(d.carrier)))
    kept = [(x, w) for x, w in p.items() if rng.random() < 0.5]
    rest = mass - sum(w for _x, w in kept)
    if not rest:
        return p, subdist(kept)
    moved = random_dist(rng, d.carrier, rest, rng.randint(1, len(d.carrier)))
    return p, subdist(kept + list(moved.items()))


@pytest.mark.parametrize("kind", ["ext-plus", "unit-oplus"])
def test_excess_transport_matches_the_unreduced_oracles(kind, monkeypatch):
    import quantadist.monadlift as monadlift

    shipped = []

    def recorded(supply, demand, cost):
        shipped.append((supply, demand))
        return _min_cost_transport(supply, demand, cost)

    monkeypatch.setattr(monadlift, "_min_cost_transport", recorded)
    rng = random.Random(f"excess {kind}")
    unreachable = shared = 0
    for _ in range(12):
        n = rng.randint(2, 6)
        d = ext_graph(rng, n, connected=False) if kind == "ext-plus" else unit_graph(rng, n)
        unreachable += sum(is_inf(v) for _x, _y, v in metric_closure(d).pairs())
        pairs = [(dirac(x), dirac(y)) for x in d.carrier for y in d.carrier]
        for mass in (F(1), F(3, 5)):
            p, q = overlapping_pair(rng, d, mass)
            pairs += [(p, q), (q, p), (p, p)]
        for p, q in pairs:
            del shipped[:]
            value = kantorovich_lp(d, p, q)
            assert value == fraction_transport(d, p, q) == lp_oracle(d, p, q), \
                (d.dist, p, q)
            excess = {x: p.weight(x) - q.weight(x) for x in set(p.support() + q.support())}
            if p == q:
                assert value == 0 and shipped == []
                continue
            # The solver sees the net masses only: no point both sends and
            # receives, and the common mass never enters the problem.
            [(supply, demand)] = shipped
            assert len(supply) == sum(v > 0 for v in excess.values())
            assert len(demand) == sum(v < 0 for v in excess.values())
            mass_scale = lcm(*(w.denominator for _x, w in p.items() + q.items()))
            assert sum(supply) == sum(demand) == \
                sum(v for v in excess.values() if v > 0) * mass_scale
            shared += any(v == 0 for v in excess.values())
    assert shared > 0
    assert (unreachable > 0) == (kind == "ext-plus")


def test_lp_checks_in_order():
    c = carrier(["x", "y"])
    d = VGraph(BOOLEAN, c, [[True, False], [False, True]])
    half = subdist({"x": F(1, 2)})
    # Carrier membership first, then the quantale, then the masses.
    with pytest.raises(CarrierMismatchError):
        kantorovich_lp(d, dirac("x"), subdist({"z": F(1, 2)}))
    with pytest.raises(QuantaleError, match="real-valued"):
        kantorovich_lp(d, dirac("x"), half)
    with pytest.raises(ValueError, match="mass mismatch"):
        kantorovich_lp(VGraph(UNIT_OPLUS, c, [[F(0)] * 2] * 2), dirac("x"), half)


# -- kantorovich_lp against networkx ---------------------------------------------

def test_lp_matches_network_simplex_ext_plus():
    nx = pytest.importorskip("networkx")
    rng = random.Random(606)
    for _ in range(40):
        d = ext_graph(rng, rng.randint(3, 8), connected=True)
        dc = metric_closure(d)
        p, q = random_pair(rng, d, small=rng.random() < 0.3)
        mass_scale = lcm(*(w.denominator for _x, w in p.items() + q.items()))
        cost_scale = lcm(*(v.denominator for _x, _y, v in dc.pairs()))
        g = nx.DiGraph()
        for x, w in p.items():
            g.add_node(("s", x), demand=-int(w * mass_scale))
        for y, w in q.items():
            g.add_node(("t", y), demand=int(w * mass_scale))
        for x, _w in p.items():
            for y, _v in q.items():
                g.add_edge(("s", x), ("t", y), weight=int(dc.at(x, y) * cost_scale))
        cost, _flow = nx.network_simplex(g)
        assert kantorovich_lp(d, p, q) == F(cost, mass_scale * cost_scale)


# -- one-pass metric closure ---------------------------------------------------------

@pytest.mark.parametrize("quantale", [BOOLEAN, UNIT_OPLUS, EXT_PLUS])
def test_one_pass_closure_matches_two_pass(quantale):
    rng = random.Random(quantale.ident)
    for _ in range(40):
        n = rng.randint(1, 7)
        if quantale is BOOLEAN:
            d = VGraph(BOOLEAN, names(n),
                       [[rng.random() < 0.3 for _ in range(n)] for _ in range(n)])
        elif quantale is UNIT_OPLUS:
            d = unit_graph(rng, n)
        else:
            d = ext_graph(rng, n, rng.random() < 0.5)
        before = [row[:] for row in d.dist]
        closed = metric_closure(d)
        assert graph_equal(closed, two_pass_closure(d)), d.dist
        if quantale is BOOLEAN:
            assert closed.dist == [[v is not INF for v in row]
                                   for row in metric_closure(ext_plus_image(d)).dist]
        assert is_vcat(closed)
        assert d.dist == before


# -- the integer closure and the liftings that read it -------------------------------

COPRIME = [F(1, 7), F(3, 11), F(5, 13)]


def edge_graphs():
    """Graphs at the edges of the integer closure: coprime denominators,
    off-diagonals all inf with an inf or 1 diagonal, unit-oplus entries
    at 1, one point, no point."""
    c3 = names(3)
    out = [
        VGraph(EXT_PLUS, c3, [[INF, F(1, 7), INF], [INF, INF, F(3, 11)],
                              [F(5, 13), INF, INF]]),
        VGraph(EXT_PLUS, c3, [[F(1), F(3, 11), F(5, 13)], [F(1, 7), F(1), F(5, 13)],
                              [F(3, 11), F(1, 7), F(1)]]),
        VGraph(UNIT_OPLUS, c3, [[F(1), F(1, 7), F(1)], [F(1), F(1), F(3, 11)],
                                [F(5, 13), F(1), F(1)]]),
        VGraph(EXT_PLUS, c3, [[INF] * 3 for _ in range(3)]),
        VGraph(EXT_PLUS, c3, [[F(1) if i == j else INF for j in range(3)]
                              for i in range(3)]),
        VGraph(EXT_PLUS, c3, [[(INF, F(1), INF)[i] if i == j else INF for j in range(3)]
                              for i in range(3)]),
        VGraph(UNIT_OPLUS, c3, [[F(1)] * 3 for _ in range(3)]),
        VGraph(UNIT_OPLUS, names(4), [[F(1) if (i + j) % 2 else F(2, 3) for j in range(4)]
                                      for i in range(4)]),
        VGraph(EXT_PLUS, names(1), [[INF]]),
        VGraph(UNIT_OPLUS, names(1), [[F(1)]]),
        VGraph(EXT_PLUS, names(0), []),
    ]
    rng = random.Random(707)
    for _ in range(6):
        n = rng.randint(2, 6)
        out.append(VGraph(UNIT_OPLUS, names(n), [[rng.choice(COPRIME + [F(1)])
                                                  for _ in range(n)] for _ in range(n)]))
        out.append(VGraph(EXT_PLUS, names(n), [[rng.choice(COPRIME + [INF, F(2)])
                                                for _ in range(n)] for _ in range(n)]))
        out.append(ext_graph(rng, n, rng.random() < 0.5))
        out.append(unit_graph(rng, n))
    return out


def boolean_graphs():
    rng = random.Random(808)
    out = list(all_bool_graphs(names(2)))
    for _ in range(10):
        n = rng.randint(1, 5)
        out.append(VGraph(BOOLEAN, names(n),
                          [[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]))
    return out


def all_subsets(c):
    els = list(c.elements)
    return [finsubset(x for k, x in enumerate(els) if bits >> k & 1)
            for bits in range(1 << len(els))]


def test_scaled_closure_matches_the_fraction_closure():
    for d in edge_graphs():
        before = [row[:] for row in d.dist]
        oracle = fraction_closure(d)
        m, scale = scaled_closure(d)
        assert scale == lcm(*(v.denominator for row in d.dist for v in row
                              if not is_inf(v)))
        assert all(isinstance(v, int) for row in m for v in row if v is not None)
        assert [[INF if v is None else F(v, scale) for v in row] for row in m] == \
            oracle.dist, d.dist
        closed = metric_closure(d)
        assert graph_equal(closed, oracle) and graph_equal(closed, two_pass_closure(d))
        assert all(v is INF or type(v) is F for _x, _y, v in closed.pairs())
        assert is_vcat(closed)
        assert d.dist == before


def test_coprime_denominators_scale_exactly():
    d = VGraph(EXT_PLUS, names(3), [[F(0), F(1, 7), INF], [INF, F(0), F(3, 11)],
                                    [F(5, 13), INF, F(0)]])
    m, scale = scaled_closure(d)
    assert scale == 7 * 11 * 13
    assert m[0][2] == 11 * 13 + 3 * 7 * 13 and m[2][1] == 5 * 7 * 11 + 11 * 13
    assert metric_closure(d).at("v0", "v2") == F(1, 7) + F(3, 11)


def test_hausdorff_matches_the_fraction_expression():
    graphs = edge_graphs() + boolean_graphs()
    rng = random.Random(909)
    empty_left = empty_right = 0
    for d in graphs:
        dc = two_pass_closure(d) if d.quantale is BOOLEAN else fraction_closure(d)
        subsets = all_subsets(d.carrier)
        if len(subsets) > 16:
            subsets = [finsubset([])] + rng.sample(subsets, 15)
        for left in subsets:
            for right in subsets:
                value = hausdorff_directed(d, left, right)
                expected = hausdorff_oracle(dc, left, right)
                assert value == expected and type(value) is type(expected), \
                    (d.dist, left, right)
                if d.quantale is BOOLEAN:
                    assert value == (hausdorff_directed(ext_plus_image(d), left, right)
                                     is not INF)
                empty_left += not left.members and bool(right.members)
                empty_right += not right.members
    assert empty_left > 0 and empty_right > 0


def test_kantorovich_matches_the_fraction_costs():
    rng = random.Random(1010)
    for d in edge_graphs():
        if not len(d.carrier):
            assert kantorovich_lp(d, subdist({}), subdist({})) == F(0)
            continue
        for x in d.carrier:
            for y in d.carrier:
                assert kantorovich_lp(d, dirac(x), dirac(y)) == \
                    fraction_transport(d, dirac(x), dirac(y)), (d.dist, x, y)
        for mass in (F(1), F(2, 9)):
            for _ in range(2):
                p, q = random_pair(rng, d, mass)
                value = kantorovich_lp(d, p, q)
                assert value == fraction_transport(d, p, q), (d.dist, p, q)
                assert value == lp_oracle(d, p, q), (d.dist, p, q)
