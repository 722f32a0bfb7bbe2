"""The powerset mask program of ``DetCoalgebra.step_distance`` against
the term path it stands for: ``distance(successor(s), successor(t),
leaf)``.

On powerset, ``step_distance`` runs the lifted distance on the two
states' masks, built by one recursive builder over the functor
(``distlaw._mask_program``: coproduct kept members, leaf unions,
constant meets), and builds no successor term; a pair of point states
takes the unit law instead.  ``successor`` shares no code with it: it
runs the exchange law ``_zeta`` over the members' transitions.  Both
must give the term path's value and call ``leaf`` on the same pairs in
the same order, on every pair over the empty state, the point states, a
few multi-member states (a functor of constants alone reaches none) and
the states they all reach.
"""

import random
from fractions import Fraction as F

import pytest

from quantadist.behaviour import reachable_states
from quantadist.distlaw import DetCoalgebra, DistLaw
from quantadist.galois import BudgetError
from quantadist.functor import ConstF
from quantadist.monadlift import POWERSET
from quantadist.quantale import INF, UNIT_OPLUS
from test_determinize import CONST_BESIDE_POW, random_det
from test_point_states import LAWS, point_states

POWERSET_LAWS = [(name, law) for name, law in LAWS if law.monad is POWERSET] + [
    ("const-beside-pow", CONST_BESIDE_POW)]


def recording_leaf(q):
    """A leaf distance that records the pairs it reads; its value is a
    fixed function of the pair, top and bottom included."""
    pool = [q.top, F(1, 4), F(1, 2), q.bottom] if q is UNIT_OPLUS else \
        [q.top, F(1, 2), F(3), INF]
    calls = []

    def leaf(x, y):
        calls.append((x, y))
        return pool[(3 * x + 5 * y) % len(pool)]
    return leaf, calls


@pytest.mark.parametrize("name,law", POWERSET_LAWS, ids=[name for name, _law in POWERSET_LAWS])
def test_step_distance_matches_the_term_path(name, law):
    rng = random.Random(f"mask-program:{name}")
    q = law.quantale
    for _ in range(20):
        terms, _transitions = random_det(rng, law, n_states=5, n_terms=4)
        points = point_states(terms)
        sets = [sum(rng.sample(points, rng.randint(2, 5))) for _ in range(3)]
        states = reachable_states(terms, [0] + points + sets)
        # A fresh determinization, so members are compiled pair by pair
        # as the pairs first read them.
        masks = DetCoalgebra(law, terms.transitions, terms.states)
        rng.shuffle(states)
        for s in states:
            for t in states:
                leaf, calls = recording_leaf(q)
                want = terms.distance(terms.successor(s), terms.successor(t), leaf)
                oracle_calls = list(calls)
                calls.clear()
                assert masks.step_distance(s, t, leaf) == want, (s, t)
                assert calls == oracle_calls, (s, t)


def test_empty_state_reads_top_at_a_constant():
    """The constant of the empty state is the meet of no constants: top,
    as the term path's successor has it."""
    law = DistLaw(ConstF(), POWERSET, UNIT_OPLUS)
    det, _transitions = random_det(random.Random("empty-const"), law, n_states=3)
    leaf, calls = recording_leaf(UNIT_OPLUS)
    x = point_states(det)[0]
    atom = det.transitions[det.states.elements[0]].atom
    assert det.step_distance(0, x, leaf) == UNIT_OPLUS.residuate(UNIT_OPLUS.top, atom)
    assert det.step_distance(x, 0, leaf) == UNIT_OPLUS.residuate(atom, UNIT_OPLUS.top)
    assert det.step_distance(0, 0, leaf) == UNIT_OPLUS.top
    assert calls == []


@pytest.mark.parametrize("name,law", POWERSET_LAWS[:1], ids=[POWERSET_LAWS[0][0]])
def test_point_state_pairs_take_the_unit_law(name, law):
    """A pair of point states reads the two transition terms: it
    compiles neither and builds no successor; a pair with a multi-member
    side compiles its members."""
    det, _transitions = random_det(random.Random(f"unit:{name}"), law, n_states=5)
    points = point_states(det)
    leaf, _calls = recording_leaf(law.quantale)
    for s in points:
        for t in points:
            det.step_distance(s, t, leaf)
    assert det._compiled == 0
    assert det.memo == {}
    det.step_distance(points[0] | points[1], points[2], leaf)
    assert det._compiled == points[0] | points[1] | points[2]


def test_budget_counts_states_across_both_paths():
    """``max_states`` counts each distinct state read by ``successor`` or
    ``step_distance``, whichever reads it first."""
    law = POWERSET_LAWS[0][1]
    det, _transitions = random_det(random.Random("budget"), law, n_states=5)
    det.max_states = 4
    x, y, z = point_states(det)[:3]
    leaf, _calls = recording_leaf(law.quantale)
    det.step_distance(x, y, leaf)          # the unit law: x, y
    det.step_distance(x | y, x, leaf)      # the mask program: x|y
    det.successor(x | y)                   # read already
    det.step_distance(x | y, y, leaf)      # read already
    det.successor(z)                       # the fourth state
    with pytest.raises(BudgetError):
        det.step_distance(x | z, x, leaf)
    with pytest.raises(BudgetError):
        det.successor(y | z)
