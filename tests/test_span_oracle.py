"""The span layer's predicates against the pair-set oracles in
``tests/oracles.py``.

The package decides controlledness, the covering conditions and
isomorphism of spaces from block labels; the oracles build the quadratic
sets of pairs.  On seeded ``randgen`` draws and on perturbed coverings
(swapped images, a redirected orbit, a partial cover, a broken image,
a coarser source) verdicts, diagnostics, ValidationError messages and
returned bijections must be equal.  The one documented difference: an
uncontrolled covering candidate is a failed check in the package, where
the oracle raises.
"""

from collections import Counter
from random import Random

from coarsehom.axioms import subspace
from coarsehom.errors import ValidationError
from coarsehom.groups import GSet
from coarsehom.randgen import (
    FuzzConfig,
    random_controlled_map,
    random_covering,
    random_equivariant_map,
    random_space,
    random_span,
)
from coarsehom.spaces import (
    BornCoarseSpace,
    CoarseStructure,
    find_space_isomorphism,
    map_predicates,
    maximal_space,
)
from coarsehom.spans import is_bounded_coarse_covering
from oracles import (
    oracle_find_space_isomorphism,
    oracle_is_bounded_coarse_covering,
    oracle_map_predicates,
)

CFG = FuzzConfig(max_points=8, max_component=4, max_copies=2)
SEEDS = range(150)
UNCONTROLLED = "covering candidate is not controlled"


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as e:
        return ("raised", str(e))


def redirect_orbit(rng, w, W, Z):
    """w with the orbit of one point sent equivariantly to a random
    admissible image in Z (possibly another component)."""
    rep = rng.randrange(W.size)
    stab = W.carrier.stabilizer(rep)
    targets = [q for q in range(Z.size) if stab <= Z.carrier.stabilizer(q)]
    q = targets[rng.randrange(len(targets))]
    out = list(w)
    for g in W.group.elements():
        out[W.carrier.act(g, rep)] = Z.carrier.act(g, q)
    return tuple(out)


def perturbations(rng, W, w, Z):
    """(label, map, source space) variants of the covering w: W -> Z."""
    yield "covering", w, W
    if W.size >= 2:
        a, b = rng.sample(range(W.size), 2)
        swapped = list(w)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        yield "swapped", tuple(swapped), W
    for _ in range(3):
        yield "redirected", redirect_orbit(rng, w, W, Z), W
    orbits = W.carrier.orbits()
    if len(orbits) >= 2:
        drop = set(orbits[rng.randrange(len(orbits))])
        sub, incl = subspace(W, [p for p in range(W.size) if p not in drop])
        yield "partial", tuple(w[p] for p in incl), sub
    broken = list(w)
    broken[rng.randrange(W.size)] = rng.randrange(Z.size)
    yield "broken", tuple(broken), W
    yield "coarser", w, maximal_space(W.carrier)


KINDS = ("bounded coarse covering", "not injective", "does not cover", UNCONTROLLED, "not equivariant")


def test_covering_check_matches_the_oracle():
    seen = Counter()
    for seed in SEEDS:
        rng = Random(seed)
        Z = random_space(rng, CFG)
        if Z.size == 0:
            continue
        W, w = random_covering(rng, Z, CFG)
        for label, v, V in perturbations(rng, W, w, Z):
            new = outcome(is_bounded_coarse_covering, v, V, Z)
            old = outcome(oracle_is_bounded_coarse_covering, v, V, Z)
            if old == ("raised", UNCONTROLLED):
                old = (False, UNCONTROLLED)
            assert new == old, (seed, label, v)
            assert outcome(map_predicates, v, V, Z) == outcome(oracle_map_predicates, v, V, Z)
            seen.update(kind for kind in KINDS if kind in new[1])
    # every outcome occurs; condition 1 and "several components" cannot
    # fail once the map is controlled
    assert all(seen[kind] for kind in KINDS), seen


def test_covering_verdicts_on_controlled_maps_match_the_oracle():
    verdicts = Counter()
    for seed in SEEDS:
        rng = Random(seed)
        W = random_space(rng, CFG)
        if W.size == 0:
            continue
        f, Y = random_controlled_map(rng, W, CFG)
        assert map_predicates(f, W, Y) == oracle_map_predicates(f, W, Y) == (True, True, True)
        new = is_bounded_coarse_covering(f, W, Y)
        assert new == oracle_is_bounded_coarse_covering(f, W, Y), seed
        verdicts[new[0]] += 1
        # an arbitrary equivariant map is controlled or not
        X = random_space(rng, CFG, group=W.group)
        g = random_equivariant_map(rng, W.carrier, X.carrier)
        if g is not None:
            got = map_predicates(g, W, X)
            assert got == oracle_map_predicates(g, W, X), seed
            verdicts[("controlled", got[0])] += 1
    assert verdicts[True] and verdicts[False], verdicts
    assert verdicts[("controlled", True)] and verdicts[("controlled", False)], verdicts


def test_map_predicates_error_messages_match_the_oracle(free2_min, three_min):
    for f, X, Y in [((0,), free2_min, free2_min), ((0, 0), free2_min, free2_min),
                    ((0, 1), free2_min, three_min), ((0, 5), free2_min, free2_min)]:
        new = outcome(map_predicates, f, X, Y)
        assert new == outcome(oracle_map_predicates, f, X, Y)
        assert new[0] == "raised"
    assert outcome(map_predicates, (0,), free2_min, free2_min, "leg") == (
        "raised", "leg is not equivariant"
    )


def permuted(X, rng):
    """X transported along a random relabelling of its points."""
    pi = list(range(X.size))
    rng.shuffle(pi)
    action = []
    for row in X.carrier.action:
        new = [0] * X.size
        for x in range(X.size):
            new[pi[x]] = pi[row[x]]
        action.append(tuple(new))
    block = [0] * X.size
    for x in range(X.size):
        block[pi[x]] = X.coarse.block[x]
    carrier = GSet(X.group, X.size, tuple(action))
    return BornCoarseSpace(carrier, CoarseStructure(X.size, tuple(block)))


def test_isomorphism_search_returns_the_oracle_bijection():
    found = Counter()
    for seed in SEEDS:
        rng = Random(seed)
        X = random_space(rng, CFG)
        Y = permuted(X, rng)
        Z = random_space(rng, CFG, group=X.group)
        coarser = maximal_space(X.carrier)
        for A, B in [(X, Y), (Y, X), (X, Z), (Z, Y), (X, coarser), (coarser, Y)]:
            phi = find_space_isomorphism(A, B)
            assert phi == oracle_find_space_isomorphism(A, B), seed
            found[phi is not None] += 1
        # a pointwise veto, as span isomorphism uses it
        salt = rng.randrange(1 << 20)

        def allowed(p, q):
            return hash((p, q, salt)) % 5 != 0

        assert find_space_isomorphism(X, Y, allowed) == oracle_find_space_isomorphism(X, Y, allowed)
    assert found[True] and found[False], found


def test_span_apex_isomorphism_matches_the_oracle():
    for seed in SEEDS:
        rng = Random(seed)
        X = random_space(rng, CFG)
        s1, s2 = random_span(rng, X, CFG), random_span(rng, X, CFG)

        def allowed(p, q):
            return s1.left[p] == s2.left[q]

        assert find_space_isomorphism(s1.apex, s2.apex, allowed) == (
            oracle_find_space_isomorphism(s1.apex, s2.apex, allowed)
        ), seed
        assert find_space_isomorphism(s1.apex, s1.apex) == (
            oracle_find_space_isomorphism(s1.apex, s1.apex)
        ), seed
