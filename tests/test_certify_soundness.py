"""Soundness of ``certify``: when it accepts a certificate, every entry
is numerically at least the behavioural distance at its pair.

The distance is read off ``pair_gfp``.  On powerset models the pair
graph is finite and ``pair_gfp`` converges to the distance.  On
subdistributions a pair graph can be infinite (weights keep
multiplying), so the reference is the iterate at a fixed depth, a
numeric lower bound on the distance: an accepted entry below it is
unsound all the same.

Powerset certificates hold the exact distances on a random subset of
the pairs reachable from every pair of point states and from a few
pairs of sets, with union witnesses (the pairs of the subset inside a
pair's two sides, when they cover them) for the others.  Each accepted
one then has one entry lowered below its distance, which must be
rejected.

Subdistribution certificates, on the laws where witnesses are sound
(``DistLaw.witnesses_sound``), hold an entry for every pair of point
states, with coupling witnesses for the leaf pairs those read.  Each is
the least such certificate on a grid of values that ``certify``
accepts, found by raising each rejected entry one grid step at a time,
so lowering any raised entry a step must be rejected.  Where witnesses
are unsound the same search finds accepted entries below the distance.
"""

import random
from fractions import Fraction as F

import pytest

from quantadist.behaviour import Certificate, certify, pair_gfp
from quantadist.distlaw import DetCoalgebra, DistLaw
from quantadist.functor import exception_functor
from quantadist.monadlift import POWERSET, SUBDIST, dirac, subdist
from quantadist.quantale import EXT_PLUS, INF, UNIT_OPLUS
from quantadist.vgraph import carrier
from test_determinize import EXACT_LAWS, const_pool, random_det, random_term
from test_point_states import point_states

POWERSET_LAWS = [(name, law) for name, law in EXACT_LAWS if law.monad is POWERSET] + [
    ("exception-powerset/ext-plus", DistLaw(exception_functor(["a", "b"]), POWERSET, EXT_PLUS))]
SUBDIST_LAWS = [(name, law) for name, law in EXACT_LAWS
                if law.monad is SUBDIST and law.witnesses_sound]

GRIDS = {
    "unit-oplus": [F(k, 8) for k in range(9)],
    "ext-plus": [F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(3), INF],
}


def leaf_pairs(det, pair):
    """The leaf pairs ``pair``'s one-step distance reads."""
    reads = []
    det.step_distance(*pair, lambda x, y: reads.append((x, y)) or det.law.quantale.top)
    return reads


def pair_graph(det, query):
    """The pairs reachable from ``query`` through leaf pairs."""
    seen = {query}
    queue = [query]
    while queue:
        for pair in leaf_pairs(det, queue.pop()):
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return seen


def assert_sound(cert, distance):
    """``certify``'s verdict, after checking that an accepted certificate
    claims no entry numerically below ``distance`` at its pair."""
    q = cert.det.law.quantale
    verdict = certify(cert)
    if verdict.accepted:
        for pair, value in cert.entries.items():
            assert q.leq(value, distance[pair]), (pair, value, distance[pair])
    return verdict


def union_witness(pair, entries):
    """The support pairs inside ``pair``'s two sides, as a union witness,
    when they cover both sides."""
    left, right = pair
    parts = [(a, b) for a, b in entries if not a & ~left and not b & ~right]
    if parts and _union(a for a, _b in parts) == left and _union(b for _a, b in parts) == right:
        return tuple((part, None) for part in parts)
    return None


def _union(masks):
    out = 0
    for mask in masks:
        out |= mask
    return out


def lowered(value):
    """A value numerically below ``value``, which is not top."""
    return F(1000) if value is INF else value / 2


@pytest.mark.parametrize("name,law", POWERSET_LAWS, ids=[name for name, _law in POWERSET_LAWS])
def test_powerset_union_certificates_are_sound(name, law):
    rng = random.Random(f"soundness:{name}")
    q = law.quantale
    accepted = deep = witnessed = 0
    for _ in range(150):
        n = rng.randint(3, 6)
        det, _transitions = random_det(rng, law, n_states=n, n_terms=n, p_left=0.3)
        points = point_states(det)
        queries = [(a, b) for a in points for b in points] + [
            tuple(sum(rng.sample(points, rng.randint(1, 3))) for _side in range(2))
            for _query in range(3)]
        pairs = set().union(*(pair_graph(det, query) for query in queries))
        distance = {}
        for pair in pairs:
            result = pair_gfp(det, *pair)
            assert result.converged
            distance[pair] = result.value
        keep = rng.choice([1, 0.95, 0.85])
        entries = {pair: distance[pair] for pair in sorted(pairs) if rng.random() < keep}
        witnesses = {}
        for pair in sorted(pairs - entries.keys()):
            parts = union_witness(pair, entries)
            if parts:
                witnesses[pair] = [parts]
        cert = Certificate(det, entries, witnesses)
        if not assert_sound(cert, distance).accepted:
            continue
        accepted += 1
        witnessed += bool(witnesses)
        # Lower a claim, one whose pair's own step reads top where there
        # is one: its distance comes from the pairs it reaches.
        claims = [pair for pair in sorted(entries) if entries[pair] != q.top]
        far = [pair for pair in claims
               if det.step_distance(*pair, lambda x, y: q.top) == q.top]
        deep += bool(far)
        if claims:
            pair = rng.choice(far or claims)
            entries[pair] = lowered(entries[pair])
            assert not assert_sound(cert, distance).accepted, pair
    assert accepted >= 100 and deep >= 25 and witnessed >= 10, (accepted, deep, witnessed)


def couplings(left, right):
    """Two couplings of two subdistributions of equal mass, over pairs of
    point states: the north-west corner rule on their members in order,
    and the product scaled to their mass.  None when the masses differ,
    and only the empty coupling when both are empty."""
    mass = left.mass()
    if mass != right.mass():
        return []
    if not mass:
        return [()]
    corner = []
    xs, ys = [list(w) for w in left.weights], [list(w) for w in right.weights]
    i = j = 0
    while i < len(xs) and j < len(ys):
        w = min(xs[i][1], ys[j][1])
        corner.append(((dirac(xs[i][0]), dirac(ys[j][0])), w))
        xs[i][1] -= w
        ys[j][1] -= w
        i += not xs[i][1]
        j += not ys[j][1]
    scaled = tuple(((dirac(x), dirac(y)), w * v / mass)
                   for x, w in left.weights for y, v in right.weights)
    return [tuple(corner), scaled]


def random_distribution_det(rng, law, n):
    """The determinization of a random model of ``law`` on ``n`` states
    whose identity leaves hold distributions on one or two states: all
    of mass 1, so every leaf pair has couplings."""
    states = [f"s{i}" for i in range(n)]

    def payload():
        x, y = rng.sample(states, 2)
        w = rng.choice([F(1, 4), F(1, 2), F(1)])
        return subdist({x: w, y: 1 - w})
    transitions = {x: random_term(rng, law.functor, payload, const_pool(law)) for x in states}
    return DetCoalgebra(law, transitions, carrier(states))


def least_grid_certificate(det, grid):
    """The least entries on ``grid`` over the pairs of point states,
    with coupling witnesses at the leaf pairs they read, that ``certify``
    accepts, and each entry's index in ``grid``: every entry starts at
    the grid's least value and each rejected one is raised a step until
    none is."""
    points = point_states(det)
    support = [(a, b) for a in points for b in points]
    witnesses = {}
    for pair in support:
        for leaf_pair in leaf_pairs(det, pair):
            if leaf_pair not in witnesses:
                witnesses[leaf_pair] = couplings(*leaf_pair)
    step = dict.fromkeys(support, 0)
    while True:
        cert = Certificate(det, {pair: grid[k] for pair, k in step.items()}, witnesses)
        verdict = certify(cert)
        if verdict.accepted:
            return cert, step
        for left, right, _why in verdict.failures:
            step[(left, right)] += 1


def subdist_search(law, seed, models, depth):
    """For each of ``models`` random models of ``law``: its
    determinization, its least grid certificate with the entries' grid
    indices, and the entries below the ``depth``-th Kleene iterate (a
    numeric lower bound on the distance), with that iterate."""
    rng = random.Random(seed)
    grid = GRIDS[law.quantale.ident]
    q = law.quantale
    for _ in range(models):
        det = random_distribution_det(rng, law, rng.randint(2, 4))
        cert, step = least_grid_certificate(det, grid)
        unsound = []
        for pair, value in cert.entries.items():
            bound = pair_gfp(det, *pair, max_iters=depth).value
            if not q.leq(value, bound):
                unsound.append((pair, value, bound))
        yield det, cert, step, unsound


@pytest.mark.parametrize("name,law", SUBDIST_LAWS, ids=[name for name, _law in SUBDIST_LAWS])
def test_subdist_coupling_certificates_are_sound(name, law):
    grid = GRIDS[law.quantale.ident]
    claims = 0
    for det, cert, step, unsound in subdist_search(law, f"soundness:{name}", 25, 5):
        assert unsound == []
        raised = [pair for pair in step if step[pair]]
        claims += sum(0 < k < len(grid) - 1 for k in step.values())
        for pair in raised:
            cert.entries[pair] = grid[step[pair] - 1]
            assert not certify(cert).accepted, pair
            cert.entries[pair] = grid[step[pair]]
    assert claims >= 5, claims


def test_the_search_finds_unsound_witnesses_where_they_are_refused():
    """Over unit-oplus with a coproduct, witnesses are unsound
    (``DistLaw.witnesses_sound``) and ``models.certificate_from_json``
    refuses them.  Given such certificates directly, the same search
    finds accepted entries below the distance."""
    law = DistLaw(exception_functor(["a"]), SUBDIST, UNIT_OPLUS)
    assert not law.witnesses_sound
    found = [entry for _det, _cert, _step, unsound in subdist_search(law, "unsound", 60, 5)
             for entry in unsound]
    assert found
