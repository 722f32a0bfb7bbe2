from fractions import Fraction as F
from itertools import chain, combinations

import pytest

from quantadist.behaviour import (Certificate, CoalgebraModel, ModelError,
                                  beh_apply, beh_value, certify, kleene_gfp,
                                  reachable_states, trace_lower_bound, witness_bound)
from conftest import build_exceptions, build_probchain, model_to_json
from quantadist.canon import canon_key
from quantadist.distlaw import point_mask
from quantadist.functor import (ConstLeaf, IdLeaf, Inl, Inr, Tup,
                                exception_functor)
from quantadist.galois import BudgetError
from quantadist.models import ModelFormatError, model_from_json
from quantadist.monadlift import POWERSET, SUBDIST, dirac, finsubset, subdist
from quantadist.quantale import UNIT_OPLUS
from quantadist.vgraph import Carrier, VGraph, carrier, metric_closure



S = lambda *xs: finsubset(list(xs))
q = UNIT_OPLUS
EXCEPTIONS3 = build_exceptions(3).det()


def M(*names):
    """The state of ``build_exceptions(3)`` with the given members."""
    return EXCEPTIONS3.state(names)


def exception_certificate(n=3):
    entries = {(M("x0", "y0"), M("z0")): F(1, 4)}
    for i in range(1, n + 1):
        entries[(M(f"x{i}"), M(f"z{i}"))] = F(1, 4)
        entries[(M(f"y{i}"), M(f"z{i}"))] = F(1, 6)
    wits = {
        (M("x0", "x1", "y0"), M("z0", "z1")):
            [(((M("x0", "y0"), M("z0")), None), ((M("x1"), M("z1")), None))],
        (M("x0", "y0", "y1"), M("z0", "z1")):
            [(((M("x0", "y0"), M("z0")), None), ((M("y1"), M("z1")), None))],
    }
    return Certificate(build_exceptions(3).det(), entries, wits)


def probchain_certificate():
    dx, dxp, dy = dirac("x"), dirac("x'"), dirac("y")
    half = subdist({"x": F(1, 2), "x'": F(1, 2)})
    entries = {(dx, dy): F(1, 2), (dxp, dy): F(1, 2),
               (dy, dx): F(1, 2), (dy, dxp): F(1, 2)}
    wits = {
        (half, dy): [(((dx, dy), F(1, 2)), ((dxp, dy), F(1, 2)))],
        (dy, half): [(((dy, dx), F(1, 2)), ((dy, dxp), F(1, 2)))],
    }
    return Certificate(build_probchain().det(), entries, wits)


# -- the behaviour function -------------------------------------------------------

def test_beh_machine_formula(probchain):
    det = probchain.det()
    dx, dy = dirac("x"), dirac("y")
    half = subdist({"x": F(1, 2), "x'": F(1, 2)})
    table = {(half, dy): F(1, 3)}
    value = beh_value(det, lambda a, b: table.get((a, b), F(1)), dx, dy)
    # output difference is 0; the successor entry decides.
    assert value == F(1, 3)


def test_beh_exception_injection_cases(exceptions3):
    det = exceptions3.det()
    thrower = M("x3")      # terminal, raises 1/4
    stepper = M("x0")      # keeps transitioning
    bottom_case = beh_value(det, lambda a, b: F(0), stepper, thrower)
    assert bottom_case == q.bottom  # transition versus throw is the worst case
    top_case = beh_value(det, lambda a, b: F(1), thrower, stepper)
    assert top_case == q.top        # throw versus transition costs nothing
    both = beh_value(det, lambda a, b: F(1), thrower, M("z3"))
    assert both == F(1, 4)          # 1/2 minus 1/4


def test_beh_top_bound_keeps_output_differences(probchain):
    det = probchain.det()
    dxp, dy = dirac("x'"), dirac("y")
    value = beh_value(det, lambda a, b: q.top, dy, dxp)
    assert value == F(1, 2)  # outputs 1/2 versus 1


def test_beh_apply_missing_pair_raises(probchain):
    det = probchain.det()
    with pytest.raises(ModelError, match="no bound"):
        beh_apply(det, {}, [(dirac("x"), dirac("y"))])


# -- Kleene iteration ----------------------------------------------------------------

def test_kleene_exception_case_study(exceptions3):
    det = exceptions3.det()
    seeds = [M("x0", "y0"), M("z0")]
    states = reachable_states(det, seeds)
    assert len(states) == 19
    result = kleene_gfp(det, states)
    assert result.converged
    assert result.at(seeds[0], seeds[1]) == F(1, 4)
    # Iterates descend in the quantale order (ascend numerically) and
    # the fixpoint is genuinely reached.
    again = kleene_gfp(det, states, max_iters=result.iterations + 5)
    assert again.graph.dist == result.graph.dist
    probes = []
    for k in range(1, result.iterations + 1):
        truncated = kleene_gfp(det, states, max_iters=k)
        probes.append(truncated.at(seeds[0], seeds[1]))
    assert probes == sorted(probes)
    assert probes[-1] == F(1, 4)


def test_kleene_single_absorbing_state(probchain):
    det = probchain.det()
    dy = dirac("y")
    result = kleene_gfp(det, [dy], max_iters=5)
    assert result.converged and result.iterations == 1
    assert result.at(dy, dy) == q.top


def test_kleene_requires_successor_closed_carrier(probchain):
    det = probchain.det()
    with pytest.raises(ModelError, match="closed"):
        kleene_gfp(det, [dirac("x")])


def test_kleene_truncated_iterates_match_trace_bounds(probchain):
    # A depth-truncated run padded with top at the frontier computes
    # exactly the word-bounded trace values.
    det = probchain.det()
    dy, dx = dirac("y"), dirac("x")
    for depth in range(1, 7):
        frontier_pairs = {}
        value = _bounded_iterate(det, dy, dx, depth)
        assert value == trace_lower_bound(probchain, dy, dx, depth)


def _bounded_iterate(det, p, r, depth):
    def go(a, b, k):
        if k == 0:
            return det.law.quantale.top
        return beh_value(det, lambda x, y: go(x, y, k - 1), a, b)

    return go(p, r, depth)


# -- trace oracles ----------------------------------------------------------------------

def test_trace_table_values(probchain):
    det = probchain.det()
    # Expected payoffs after reading a^k from the two start states.
    state = dirac("x")
    payoffs = []
    for _ in range(4):
        payoffs.append(det.successor(state).items[0].atom)
        state = det.successor(state).items[1].items[0].payload
    assert payoffs == [F(1, 2), F(3, 4), F(7, 8), F(15, 16)]
    state = dirac("y")
    for _ in range(4):
        assert det.successor(state).items[0].atom == F(1, 2)
        state = det.successor(state).items[1].items[0].payload


def test_trace_bound_probchain_values(probchain):
    dy, dx = dirac("y"), dirac("x")
    for length in (1, 2, 5, 10):
        expected = F(1, 2) - F(1, 2 ** length)
        assert trace_lower_bound(probchain, dy, dx, length) == expected
    # The other orientation never sees a positive difference.
    assert trace_lower_bound(probchain, dx, dy, 10) == F(0)


def test_trace_bound_monotone_in_length(exceptions3):
    pair = (M("x0", "y0"), M("z0"))
    values = [trace_lower_bound(exceptions3, pair[0], pair[1], L)
              for L in range(1, 6)]
    assert values == sorted(values)
    assert values[-1] == F(1, 4)
    assert trace_lower_bound(exceptions3, pair[0], pair[1], 3) == F(0)


def test_trace_bound_on_a_shape_without_word_semantics():
    # An exception-shaped functor paired with the subdistribution monad
    # has no word characterization; its trace bound is still the
    # truncated Kleene iterate.
    model = CoalgebraModel(UNIT_OPLUS, exception_functor(["a", "b"]), SUBDIST,
                           carrier(["s", "t", "u"]), carrier(["a", "b"]),
                           {"s": Inr(Tup((IdLeaf(subdist({"t": F(1, 2), "u": F(1, 2)})),
                                          IdLeaf(dirac("s"))))),
                            "t": Inl(ConstLeaf(F(1, 4))),
                            "u": Inr(Tup((IdLeaf(dirac("t")), IdLeaf(dirac("u")))))})
    det = model.det()
    p, r = dirac("s"), dirac("u")
    values = [trace_lower_bound(model, p, r, depth) for depth in range(6)]
    assert values == [_bounded_iterate(det, p, r, depth) for depth in range(6)]
    assert values == sorted(values) and values[-1] > F(0)


# -- witnesses and certificates ------------------------------------------------------------

def test_witness_bound_powerset_example():
    cert = exception_certificate()
    pair = (M("x0", "x1", "y0"), M("z0", "z1"))
    value = witness_bound(cert, pair)
    assert value == F(1, 4)  # max(1/4, 1/4) beats the default 1


def test_witness_bound_subdist_example():
    cert = probchain_certificate()
    half = subdist({"x": F(1, 2), "x'": F(1, 2)})
    assert witness_bound(cert, (half, dirac("y"))) == F(1, 2)


ABC = carrier(["a", "b", "c"])


def A(*names):
    """The powerset state with the given members over the points a, b, c."""
    return point_mask(names, ABC)


def test_witness_bound_unit_only():
    model = CoalgebraModel(q, exception_functor(["a"]), POWERSET, ABC, carrier(["a"]),
                           {x: Inl(ConstLeaf(F(0))) for x in ABC})
    cert = Certificate(model.det(), {(A("a"), A("b")): F(1, 3)}, {})
    assert witness_bound(cert, (A("a"), A("b"))) == F(1, 3)
    assert witness_bound(cert, (A("b"), A("a"))) == q.bottom


def test_certify_exception_case_study():
    verdict = certify(exception_certificate())
    assert verdict.accepted and verdict.checked == 7


def test_certify_probchain_case_study():
    verdict = certify(probchain_certificate())
    assert verdict.accepted and verdict.checked == 4


def test_certify_rejects_lowered_entry():
    cert = exception_certificate()
    cert.entries[(M("x0", "y0"), M("z0"))] = F(1, 5)
    verdict = certify(cert)
    assert not verdict.accepted
    bad_pair = verdict.failures[0][:2]
    assert bad_pair == (S("x0", "y0"), S("z0"))
    assert "1/4" in verdict.failures[0][2]


def test_certify_monotone_under_uniform_weakening():
    # Raising every entry by the same amount weakens all claims at
    # least as fast as it raises the one-step bounds.
    cert = exception_certificate()
    for pair in list(cert.entries):
        cert.entries[pair] = min(F(1), cert.entries[pair] + F(1, 8))
    assert certify(cert).accepted


def test_certify_not_monotone_under_single_entry_weakening():
    # Raising a single entry that other support pairs lean on can
    # genuinely break their checks: the up-to bound is monotone in the
    # entries, so the main pair stops being covered.
    cert = exception_certificate()
    cert.entries[(M("y1"), M("z1"))] = F(1, 2)
    verdict = certify(cert)
    assert not verdict.accepted
    assert verdict.failures[0][:2] == (S("x0", "y0"), S("z0"))


def test_model_rejects_mismatched_labels():
    model = CoalgebraModel(UNIT_OPLUS, exception_functor(["a", "b"]), POWERSET,
                           carrier(["s"]), carrier(["a"]),
                           {"s": Inl(ConstLeaf(F(0)))})
    with pytest.raises(ModelFormatError, match="labels"):
        model_from_json(model_to_json(model))


def test_kleene_fixpoint_is_vcat(exceptions3):
    from quantadist.vgraph import is_vcat

    det = exceptions3.det()
    states = reachable_states(det, [M("x0", "y0"), M("z0")])
    result = kleene_gfp(det, states)
    assert result.converged
    assert is_vcat(result.graph)


#: ``kleene_gfp`` on ``build_exceptions(3)`` from ({x0,y0}, {z0}), as
#: computed on monad-valued states: the carrier's names and the fixpoint's
#: rows, in that order.
KLEENE_EXCEPTIONS3_NAMES = [
    "{x0,y0}",
    "{z0}",
    "{x0,x1,y0}",
    "{x0,y0,y1}",
    "{z0,z1}",
    "{x0,x1,x2,y0}",
    "{x0,x2,y0,y1}",
    "{x0,x1,y0,y2}",
    "{x0,y0,y1,y2}",
    "{z0,z1,z2}",
    "{x0,x1,x2,x3,y0}",
    "{x0,x2,x3,y0,y1}",
    "{x0,x1,x3,y0,y2}",
    "{x0,x3,y0,y1,y2}",
    "{x0,x1,x2,y0,y3}",
    "{x0,x2,y0,y1,y3}",
    "{x0,x1,y0,y2,y3}",
    "{x0,y0,y1,y2,y3}",
    "{z0,z1,z2,z3}",
]
KLEENE_EXCEPTIONS3_ROWS = [
    "0 1/4 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1",
    "0 0 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1",
    "0 0 0 1/12 1/4 1 1 1 1 1 1 1 1 1 1 1 1 1 1",
    "0 0 0 0 1/6 1 1 1 1 1 1 1 1 1 1 1 1 1 1",
    "0 0 0 0 0 1 1 1 1 1 1 1 1 1 1 1 1 1 1",
    "0 0 0 0 0 0 0 1/12 1/12 1/4 1 1 1 1 1 1 1 1 1",
    "0 0 0 0 0 0 0 1/12 1/12 1/4 1 1 1 1 1 1 1 1 1",
    "0 0 0 0 0 0 0 0 0 1/6 1 1 1 1 1 1 1 1 1",
    "0 0 0 0 0 0 0 0 0 1/6 1 1 1 1 1 1 1 1 1",
    "0 0 0 0 0 0 0 0 0 0 1 1 1 1 1 1 1 1 1",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 1/12 1/12 1/12 1/12 1/4",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 1/12 1/12 1/12 1/12 1/4",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 1/12 1/12 1/12 1/12 1/4",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 1/12 1/12 1/12 1/12 1/4",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1/6",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1/6",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1/6",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1/6",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
]


def test_kleene_carrier_names_and_matrix_on_mask_states(exceptions3):
    det = exceptions3.det()
    result = kleene_gfp(det, reachable_states(det, [M("x0", "y0"), M("z0")]))
    assert result.converged
    assert list(result.graph.carrier.elements) == KLEENE_EXCEPTIONS3_NAMES
    assert [" ".join(map(str, row)) for row in result.graph.dist] == \
        KLEENE_EXCEPTIONS3_ROWS
    assert [canon_key(det.value(s)) for s in result.states] == KLEENE_EXCEPTIONS3_NAMES


# -- exact up-to oracle ------------------------------------------------------------------------
#
# The certificate checker only bounds the up-to function through the
# listed witnesses.  ``u_exact`` computes it exactly for powerset models
# small enough to enumerate every decomposition, as the oracle the
# witness bounds are tested against.

def _subsets_with_union(universe, target):
    """All collections of the given subsets whose union is the target."""
    usable = [s for s in universe if all(m in target.members for m in s.members)]
    out = []
    for size in range(len(usable) + 1):
        for combo in combinations(usable, size):
            union = finsubset(chain.from_iterable(s.members for s in combo))
            if union == target:
                out.append(list(combo))
    return out


def u_exact(model, cand, pair, budget=10 ** 6):
    """Exact up-to value by enumerating every decomposition of the pair:
    the join (numeric min) over all monad values with the right
    flattened marginals of the lifted candidate distance ``cand``, a dict
    from pairs of monad values to values, bottom off its keys.

    Only the powerset monad is enumerable; subdistribution decompositions
    form a continuum and are refused.
    """
    if model.monad is not POWERSET:
        raise BudgetError("exact up-to values are only enumerable for powerset")
    q = model.quantale
    base = list(model.states.elements)
    if (2 ** len(base)) ** 3 > budget:
        raise BudgetError(
            f"closing the candidate over {2 ** len(base)} monad states exceeds "
            f"the budget of {budget}")
    all_subsets = [finsubset(c) for size in range(len(base) + 1)
                   for c in combinations(base, size)]
    left_options = _subsets_with_union(all_subsets, pair[0])
    right_options = _subsets_with_union(all_subsets, pair[1])
    if len(left_options) * len(right_options) > budget:
        raise BudgetError(
            f"{len(left_options) * len(right_options)} decompositions exceed "
            f"the budget of {budget}")
    keys = Carrier(tuple(canon_key(s) for s in all_subsets))
    n = len(all_subsets)
    index = {canon_key(s): i for i, s in enumerate(all_subsets)}
    dist = [[cand.get((all_subsets[i], all_subsets[j]), q.bottom) for j in range(n)]
            for i in range(n)]
    closed = metric_closure(VGraph(q, keys, dist))

    def lifted(collection_a, collection_b):
        # Directed Hausdorff over the candidate graph on monad states.
        return q.meet(
            q.join(closed.dist[index[canon_key(a)]][index[canon_key(b)]]
                   for a in collection_a)
            for b in collection_b)

    return q.join(lifted(t1, t2)
                  for t1 in left_options for t2 in right_options)


def tiny_powerset_model():
    func = exception_functor(["a"])
    states = carrier(["p", "r"])
    trans = {
        "p": Inr(Tup((IdLeaf(point_mask(["p"], states)),))),
        "r": Inl(ConstLeaf(F(1, 2))),
    }
    return CoalgebraModel(q, func, POWERSET, states, carrier(["a"]), trans)


def test_u_exact_extensive_and_below_witness_bounds():
    model = tiny_powerset_model()
    pairs = [(a, b) for a in [S("p"), S("r"), S("p", "r")]
             for b in [S("p"), S("r"), S("p", "r")]]
    cand = {pair: F(1, 4) for pair in pairs}
    det = model.det()
    cert = Certificate(det, {(det.state(a), det.state(b)): v
                             for (a, b), v in cand.items()}, {})
    for a, b in pairs:
        exact = u_exact(model, cand, (a, b))
        assert exact <= cand[(a, b)]                                     # extensive (numeric)
        assert witness_bound(cert, (det.state(a), det.state(b))) >= exact  # over-approximate


def test_u_exact_matches_hand_enumeration():
    model = tiny_powerset_model()
    cand = {(S("p"), S("r")): F(1, 3),
            (S("p", "r"), S("r")): F(1, 8)}
    # Decompositions of ({p}, {r}): the left side only splits as
    # collections of subsets of {p} covering it, i.e. {p} itself or
    # {p} plus the empty set; similarly on the right.
    value = u_exact(model, cand, (S("p"), S("r")))
    # Hand enumeration: the direct pair gives 1/3; adding the empty set
    # on either side can only worsen (the empty set pairs at bottom),
    # except as an extra left member which can only help the inner join.
    assert value == F(1, 3)
    # A pair defaulting to bottom stays at bottom without witnesses.
    assert u_exact(model, cand, (S("r"), S("p"))) == q.bottom


def test_u_exact_boolean_toy_matches_hand_enumeration():
    from quantadist.quantale import BOOLEAN

    func = exception_functor(["a"])
    states = carrier(["p", "r"])
    trans = {
        "p": Inr(Tup((IdLeaf(point_mask(["p"], states)),))),
        "r": Inr(Tup((IdLeaf(point_mask(["r"], states)),))),
    }
    model = CoalgebraModel(BOOLEAN, func, POWERSET, states, carrier(["a"]), trans)
    cand = {(S("p"), S("r")): True,
            (S("p", "r"), S("r")): True}
    # By hand: every decomposition of ({p},{r}) is covered by the direct
    # pair (join of top-valued lifts stays top); the reverse pair only
    # admits bottom-valued decompositions.
    assert u_exact(model, cand, (S("p"), S("r"))) is True
    assert u_exact(model, cand, (S("r"), S("p"))) is False
    # The union pair is decomposable through the top-valued entries.
    assert u_exact(model, cand, (S("p", "r"), S("r"))) is True


def test_u_exact_budget_refusals(probchain, exceptions3):
    cand = {}
    with pytest.raises(BudgetError, match="powerset"):
        u_exact(probchain, cand, (dirac("x"), dirac("y")))
    with pytest.raises(BudgetError, match="budget"):
        u_exact(exceptions3, cand, (S("x0"), S("z0")), budget=100)


def test_soundness_sandwich(exceptions3, probchain):
    # trace bounds <= converged fixpoint <= certified candidate, numerically.
    det = exceptions3.det()
    seeds = [M("x0", "y0"), M("z0")]
    states = reachable_states(det, seeds)
    fixpoint = kleene_gfp(det, states).at(seeds[0], seeds[1])
    cert_value = exception_certificate().entries[(seeds[0], seeds[1])]
    for L in range(1, 6):
        assert trace_lower_bound(exceptions3, seeds[0], seeds[1], L) <= fixpoint
    assert fixpoint <= cert_value
    dy, dx = dirac("y"), dirac("x")
    cand = probchain_certificate().entries[(dy, dx)]
    for L in range(1, 11):
        assert trace_lower_bound(probchain, dy, dx, L) <= cand
