import json
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest

from conftest import geo, graph_equal, graph_leq
from quantadist import cli
from quantadist.models import ModelFormatError, load_fixture, model_from_json
from quantadist.quantale import (BOOLEAN, EXT_PLUS, INF, UNIT_OPLUS, QuantaleError,
                                 parse_rational)
from quantadist.vgraph import (Carrier, CarrierMismatchError, FiniteMap, VGraph,
                               carrier, direct_image, graph_from_entries, is_vcat,
                               metric_closure, reindex)
from quantadist.suites import all_bool_graphs


def test_carrier_positions():
    c = carrier(["b", "a", "c"])
    assert [c.index(x) for x in ("b", "a", "c")] == [0, 1, 2]
    assert "a" in c and "d" not in c
    assert c == Carrier(("b", "a", "c")) and hash(c) == hash(Carrier(("b", "a", "c")))
    assert c != carrier(["a", "b", "c"])
    with pytest.raises(CarrierMismatchError):
        c.index("d")
    with pytest.raises(ValueError, match="duplicate"):
        carrier(["a", "a"])


def test_graph_leq_reflexive_and_bottom():
    d = geo()
    assert graph_leq(d, d)
    c = carrier(["x", "y"])
    ones = VGraph(UNIT_OPLUS, c, [[F(1)] * 2] * 2)
    zeros = VGraph(UNIT_OPLUS, c, [[F(0)] * 2] * 2)
    assert graph_leq(ones, zeros)  # numeric 1 is bottom
    assert not graph_leq(zeros, ones)


def test_graph_leq_matches_entrywise_reversed_numeric():
    rng = random.Random(3)
    c = carrier(["p", "q", "r"])
    grid = [F(i, 4) for i in range(5)]
    for _ in range(20):
        d1 = VGraph(UNIT_OPLUS, c, [[rng.choice(grid) for _ in range(3)] for _ in range(3)])
        d2 = VGraph(UNIT_OPLUS, c, [[rng.choice(grid) for _ in range(3)] for _ in range(3)])
        expected = all(d1.dist[i][j] >= d2.dist[i][j] for i in range(3) for j in range(3))
        assert graph_leq(d1, d2) == expected


def test_reindex():
    d = geo()
    c = d.carrier
    assert graph_equal(reindex(FiniteMap(c, c, {x: x for x in c}), d), d)
    dom = carrier(["u", "v"])
    const = FiniteMap(dom, d.carrier, {"u": "B", "v": "B"})
    pulled = reindex(const, d)
    assert all(v == F(0) for _x, _y, v in pulled.pairs())
    surj = FiniteMap(carrier(["u", "v", "w"]), carrier(["A", "B"]),
                     {"u": "A", "v": "B", "w": "B"})
    target = graph_from_entries(EXT_PLUS, carrier(["A", "B"]),
                                {("A", "B"): F(3), ("B", "A"): F(7)})
    out = reindex(surj, target)
    assert out.at("u", "v") == F(3) and out.at("v", "u") == F(7)
    assert out.at("v", "w") == EXT_PLUS.top  # copied diagonal entry


def test_reindex_functorial():
    a = carrier(["a0", "a1"])
    b = carrier(["b0", "b1", "b2"])
    f = FiniteMap(a, b, {"a0": "b1", "a1": "b2"})
    g = FiniteMap(b, a, {"b0": "a0", "b1": "a1", "b2": "a0"})
    d = graph_from_entries(UNIT_OPLUS, a, {("a0", "a1"): F(1, 2), ("a1", "a0"): F(1, 4)},
                           default=F(0))
    gf = FiniteMap(a, a, {x: g(f(x)) for x in a})  # g after f
    assert graph_equal(reindex(gf, d), reindex(f, reindex(g, d)))
    assert graph_equal(reindex(FiniteMap(a, a, {x: x for x in a}), d), d)


def test_direct_image():
    d = geo()
    c = d.carrier
    assert graph_equal(direct_image(FiniteMap(c, c, {x: x for x in c}), d), d)
    one = carrier(["*"])
    collapse = FiniteMap(d.carrier, one, {x: "*" for x in d.carrier})
    out = direct_image(collapse, d)
    assert out.at("*", "*") == EXT_PLUS.join(v for _x, _y, v in d.pairs())
    # Non-surjective map: unreached pairs get the empty join = bottom.
    two = carrier(["im", "miss"])
    inj = FiniteMap(carrier(["A"]), two, {"A": "im"})
    tiny = graph_from_entries(EXT_PLUS, carrier(["A"]), {("A", "A"): F(2)})
    out = direct_image(inj, tiny)
    assert out.at("im", "im") == F(2)
    assert out.at("im", "miss") is EXT_PLUS.bottom
    assert out.at("miss", "miss") is EXT_PLUS.bottom


def test_is_vcat():
    assert is_vcat(geo())
    c = carrier(["x"])
    bad_diag = VGraph(UNIT_OPLUS, c, [[F(1, 5)]])
    assert not is_vcat(bad_diag)
    tri = graph_from_entries(EXT_PLUS, carrier(["A", "B", "C"]),
                             {("A", "B"): F(3), ("B", "C"): F(4), ("A", "C"): F(8)},
                             default=F(0))
    assert not is_vcat(tri)


def brute_force_least_vcat(d):
    """Exhaustive oracle: least V-category above d over the value set
    generated by d's entries (valid for boolean graphs)."""
    assert d.quantale is BOOLEAN
    n = len(d.carrier)
    best = None
    for bits in product([False, True], repeat=n * n):
        cand = VGraph(BOOLEAN, d.carrier, [list(bits[i * n:(i + 1) * n]) for i in range(n)])
        if is_vcat(cand) and graph_leq(d, cand):
            if best is None or graph_leq(cand, best):
                best = cand
    return best


def test_metric_closure_examples():
    tri = graph_from_entries(EXT_PLUS, carrier(["A", "B", "C"]),
                             {("A", "B"): F(3), ("B", "C"): F(4), ("A", "C"): F(8)},
                             default=F(0))
    closed = metric_closure(tri)
    assert closed.at("A", "C") == F(7)
    assert is_vcat(closed)
    # A V-category is left unchanged.
    road = geo()
    assert graph_equal(metric_closure(road), road)
    # Diagonal saturation.
    c = carrier(["x"])
    d = VGraph(UNIT_OPLUS, c, [[F(1, 5)]])
    assert metric_closure(d).at("x", "x") == F(0)


def test_metric_closure_least_and_idempotent_boolean():
    c = carrier(["x", "y"])
    for d in all_bool_graphs(c):
        closed = metric_closure(d)
        assert is_vcat(closed)
        assert graph_leq(d, closed)
        assert graph_equal(metric_closure(closed), closed)
        oracle = brute_force_least_vcat(d)
        assert graph_equal(closed, oracle)
    # Monotone in the graph order.
    graphs = all_bool_graphs(c)
    for d1 in graphs[:16]:
        for d2 in graphs[:16]:
            if graph_leq(d1, d2):
                assert graph_leq(metric_closure(d1), metric_closure(d2))


def test_metric_closure_least_among_grid_vcats_unit():
    c = carrier(["x", "y", "z"])
    grid = [F(0), F(1, 2), F(1)]
    rng = random.Random(11)
    for _ in range(4):
        d = VGraph(UNIT_OPLUS, c, [[rng.choice(grid) for _ in range(3)] for _ in range(3)])
        closed = metric_closure(d)
        assert is_vcat(closed) and graph_leq(d, closed)
        for bits in product(grid, repeat=9):
            e = VGraph(UNIT_OPLUS, c, [list(bits[0:3]), list(bits[3:6]), list(bits[6:9])])
            if is_vcat(e) and graph_leq(d, e):
                assert graph_leq(closed, e)



# -- values are validated once, where they enter -----------------------------------

def count_validate(monkeypatch, q):
    """Record every value ``q.validate`` is called on."""
    calls = []
    validate = q.validate

    def counted(v):
        calls.append(v)
        return validate(v)

    monkeypatch.setattr(q, "validate", counted)
    return calls


def test_vgraph_document_validates_each_entry_once(monkeypatch):
    doc = load_fixture("transport.json")
    calls = count_validate(monkeypatch, EXT_PLUS)
    graph = model_from_json(doc).graph
    # One validation per distinct literal: "0", "3", "5" and "4".
    assert len(calls) == len({v for row in doc["dist"] for v in row}) == 4
    assert all(type(v) is F for _x, _y, v in graph.pairs())
    assert graph.at("A", "C") == F(5)
    del calls[:]
    assert graph_equal(metric_closure(graph), graph)
    assert calls == []


def test_vgraph_document_converts_each_weight_once(monkeypatch):
    """Loading a graph document parses each distribution weight once, in
    integers, and builds no ``Fraction`` for it; a named distribution is
    built on demand from the parsed rows and equals ``subdist`` of its
    weights.  ``subdist`` still converts the ints and strings other
    callers pass."""
    import quantadist.monadlift as monadlift

    calls, parsed = [], []

    class Counted(F):
        def __new__(cls, *args):
            calls.append(args)
            return super().__new__(cls, *args)

    def counted_parse(literal):
        parsed.append(literal)
        return parse_rational(literal)

    monkeypatch.setattr(monadlift, "Fraction", Counted)
    monkeypatch.setattr(monadlift, "parse_rational", counted_parse)
    doc = load_fixture("transport.json")
    instance = model_from_json(doc)
    weights = [w for named in doc["distributions"].values() for w in named.values()]
    assert parsed == weights
    assert calls == []
    del parsed[:]
    p = instance.distribution("P")
    assert parsed == [] and calls == [(7, 10), (1, 10), (1, 5)]
    assert p == monadlift.subdist({"A": F(7, 10), "B": F(1, 10), "C": F(1, 5)})
    assert instance.distribution("Q") == monadlift.subdist(doc["distributions"]["Q"])
    del calls[:]
    whole, half = monadlift.subdist({"x": 1}), monadlift.subdist([("y", "1/2")])
    assert [args for args in calls if args != (0,)] == [(1,), ("1/2",)]
    assert (whole.weights, half.weights) == ((("x", F(1)),), (("y", F(1, 2)),))
    assert type(whole.weights[0][1]) is Counted and type(half.weights[0][1]) is Counted


@pytest.mark.parametrize("quantale,entry,message", [
    pytest.param("ext-plus", "-3", "ext-plus value is negative: -3",
                 id="-3-ext-plus value is negative: -3"),
    pytest.param("ext-plus", [3], "expected rational string, got [3]",
                 id="entry1-expected rational string, got [3]"),
    pytest.param("ext-plus", True, "expected rational string, got boolean True",
                 id="True-expected rational string, got boolean True"),
    ("ext-plus", "-1/10000000000000000000000000000001",
     "ext-plus value is negative: -1/10000000000000000000000000000001"),
    ("ext-plus", "0/7", None),
    ("unit-oplus", "3/2", "unit-oplus value out of [0,1]: 3/2"),
    ("unit-oplus", "-1/2", "unit-oplus value out of [0,1]: -1/2"),
    ("unit-oplus", "10000000000000000000000000000001/10000000000000000000000000000000",
     "unit-oplus value out of [0,1]: 10000000000000000000000000000001/"
     "10000000000000000000000000000000"),
    ("unit-oplus", "1", None),
    ("unit-oplus", "4/4", None),
])
def test_vgraph_document_entry_errors(quantale, entry, message):
    """An entry out of the quantale's range is refused with the range in
    the message, and one at its edge is read; the other entries of the
    fixture lie in both ranges once divided by 10."""
    doc = load_fixture("transport.json")
    doc["quantale"] = quantale
    doc["dist"] = [[f"{v}/10" for v in row] for row in doc["dist"]]
    doc["dist"][2][0] = entry
    if message is None:
        assert model_from_json(doc).graph.at("C", "A") == F(entry)
    else:
        with pytest.raises(QuantaleError, match=re.escape(message)):
            model_from_json(doc)


def test_graph_from_entries_validates_each_value_once(monkeypatch):
    c = carrier(["x", "y", "z"])
    calls = count_validate(monkeypatch, EXT_PLUS)
    g = graph_from_entries(EXT_PLUS, c, {("x", "y"): 2, ("y", "x"): F(1, 2)})
    assert calls == [2, F(1, 2)]
    assert g.at("x", "y") == F(2) and type(g.at("x", "y")) is F
    assert g.at("z", "z") == F(0)
    del calls[:]
    g = graph_from_entries(EXT_PLUS, c, {("x", "y"): 2}, default=INF)
    assert calls == [INF, 2] and g.at("y", "z") is INF
    with pytest.raises(QuantaleError, match="ext-plus value is negative: -1"):
        graph_from_entries(EXT_PLUS, c, {("x", "y"): 2}, default=-1)
    with pytest.raises(QuantaleError, match="ext-plus value is negative: -2"):
        graph_from_entries(EXT_PLUS, c, {("x", "q"): -2})
    with pytest.raises(CarrierMismatchError, match="'q' is not a carrier element"):
        graph_from_entries(EXT_PLUS, c, {("x", "q"): 2})


@pytest.mark.parametrize("rows", [[["0", "3", "5"], ["3", "0", "4"]],
                                  [["0", "3", "5"], ["3", "0"], ["5", "4", "0"]]],
                         ids=["missing-row", "short-row"])
def test_vgraph_document_refuses_a_ragged_matrix(rows, tmp_path, capsys):
    doc = load_fixture("transport.json")
    doc["dist"] = rows
    with pytest.raises(ModelFormatError, match="does not match the carrier size"):
        model_from_json(doc)
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["distance", "--model", str(path), "--pair", "P|Q",
                     "--method", "lp"]) == 2
    assert "distance matrix does not match the carrier size" in capsys.readouterr().err
