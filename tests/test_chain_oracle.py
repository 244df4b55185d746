"""The chain layer against the whole-group oracle in ``tests/oracles.py``.

The package names every orbit by ``canonical_tuple`` and reads the
boundary and the chain maps off stabilizer orders; the oracle applies
every group element to every basis tuple.  Bases must be equal and
columns equal as dicts, on seeded random spaces with non-free actions,
on free and partly free carriers (the free-point fast paths), on
relative complexes, on spaces built from out-of-order block labels
and over a group table whose identity is not element 0.
"""

from random import Random

import pytest

from coarsehom.axioms import subspace
from coarsehom.groups import (
    Group,
    all_subgroups,
    coset_gset,
    cyclic_group,
    disjoint_union_gsets,
    symmetric_group,
)
from coarsehom.homology import (
    SpaceComplex,
    canonical_tuple,
    pullback_chain_cols,
    pushforward_chain_cols,
)
from coarsehom.randgen import (
    FuzzConfig,
    random_complementary_pair,
    random_space,
    random_span,
)
from coarsehom.spaces import (
    BornCoarseSpace,
    CoarseStructure,
    make_space,
    maximal_space,
    minimal_space,
)
from oracles import (
    oracle_boundary_cols,
    oracle_chain_basis,
    oracle_pullback_cols,
    oracle_pushforward_cols,
)

CFG = FuzzConfig(max_points=8, max_component=4)
MAXDEG = 2


def relabelled(group):
    """The same group with element g renamed g + 1 mod |G|, so that its
    identity is not element 0."""
    n = group.order
    table = [[0] * n for _ in range(n)]
    for a in group.elements():
        for b in group.elements():
            table[(a + 1) % n][(b + 1) % n] = (group.mul(a, b) + 1) % n
    return Group(tuple(map(tuple, table)), name=group.name + "'")


def assert_complex_matches(cx):
    """Bases are the oracle's and every boundary is the oracle's."""
    X = cx.X
    for n in range(MAXDEG + 2):
        assert cx.degree(n).basis == oracle_chain_basis(X, n)
        if n:
            assert cx.boundary_cols(n) == oracle_boundary_cols(X, cx.degree(n).basis, cx.degree(n - 1).basis)


def assert_span_matches(span):
    """Both legs of a span, as chain maps, are the oracle's."""
    cxX, cxW, cxY = (SpaceComplex(s, MAXDEG) for s in (span.src, span.apex, span.dst))
    for n in range(MAXDEG + 1):
        assert pullback_chain_cols(span.left, span.apex, span.src, cxW, cxX, n) == (
            oracle_pullback_cols(span.left, span.src, cxW.degree(n).basis, cxX.degree(n).basis)
        )
        assert pushforward_chain_cols(span.right, span.apex, span.dst, cxW, cxY, n) == (
            oracle_pushforward_cols(span.right, span.apex, cxW.degree(n).basis, cxY.degree(n).basis)
        )


def test_canonical_tuple_is_the_orbit_minimum_and_counts_the_stabilizer():
    for seed in range(60):
        rng = Random(seed)
        X = random_space(rng, CFG)
        act = X.carrier.action
        for _ in range(10):
            t = tuple(rng.randrange(X.size) for _ in range(rng.randrange(1, 5)))
            orbit = [tuple(row[x] for x in t) for row in act]
            stab = sum(1 for image in orbit if image == t)
            assert canonical_tuple(X, t) == (min(orbit), stab)


@pytest.mark.parametrize("seeds", [range(0, 40), range(40, 80)])
def test_chain_layer_matches_oracle_on_random_spaces(seeds):
    for seed in seeds:
        rng = Random(seed)
        X = random_space(rng, CFG)
        assert_complex_matches(SpaceComplex(X, MAXDEG))
        assert_span_matches(random_span(rng, X, CFG))


def test_relative_complexes_match_oracle():
    """Excision's relative complexes are complement complexes: relabelled
    into X (or Z), the complex of X - Y (or Z - Y) has the oracle's basis
    less the tuples inside Y, and the oracle's relative boundaries.  The
    two complements are one space, and the inclusion between them is the
    oracle's pushforward.  Most seeded pairs leave X - Y empty; the
    first 40 that do not are compared."""
    compared = 0
    for seed in range(200):
        rng = Random(seed)
        X = random_space(rng, CFG)
        Z, Ys = random_complementary_pair(rng, X)
        Y = set(Ys[-1])
        if Y == set(range(X.size)):
            continue
        Zspace, z_incl = subspace(X, Z)
        zy = {k for k, p in enumerate(z_incl) if p in Y}
        complements = []
        for space, inside, to_x in ((Zspace, zy, z_incl), (X, Y, range(X.size))):
            comp, incl = subspace(space, [p for p in range(space.size) if p not in inside])
            cx = SpaceComplex(comp, MAXDEG)
            rel = [[t for t in oracle_chain_basis(space, n) if not set(t) <= inside] for n in range(MAXDEG + 2)]
            for n in range(MAXDEG + 2):
                assert [tuple(incl[p] for p in t) for t in cx.degree(n).basis] == rel[n]
                if n:
                    assert cx.boundary_cols(n) == oracle_boundary_cols(space, rel[n], rel[n - 1])
            complements.append((comp, [to_x[p] for p in incl], cx))
        (A, a_pts, cxA), (B, b_pts, cxB) = complements
        assert A == B and a_pts == b_pts
        incl = tuple(b_pts.index(p) for p in a_pts)
        for n in range(MAXDEG + 2):
            assert pushforward_chain_cols(incl, A, B, cxA, cxB, n) == (
                oracle_pushforward_cols(incl, A, cxA.degree(n).basis, cxB.degree(n).basis)
            )
        compared += 1
        if compared == 40:
            break
    assert compared == 40


def test_out_of_order_block_labels_match_oracle():
    for seed in range(40):
        X = random_space(Random(seed), CFG)
        ncomps = len(X.components())
        labels = tuple(f"c{ncomps - b}" for b in X.coarse.block)  # the last block first
        Xr = BornCoarseSpace(X.carrier, CoarseStructure(X.size, labels))
        cx, cxr = SpaceComplex(X, MAXDEG), SpaceComplex(Xr, MAXDEG)
        assert_complex_matches(cxr)
        assert [cxr.degree(n) for n in range(MAXDEG + 2)] == [cx.degree(n) for n in range(MAXDEG + 2)]
        assert [cxr.boundary_cols(n) for n in range(1, MAXDEG + 2)] == [
            cx.boundary_cols(n) for n in range(1, MAXDEG + 2)
        ]


@pytest.mark.parametrize("make", [lambda: symmetric_group(3), lambda: cyclic_group(4)])
def test_group_with_identity_not_zero_matches_oracle(make):
    G = relabelled(make())
    assert G.identity != 0
    for seed in range(25):
        rng = Random(seed)
        X = random_space(rng, CFG, group=G)
        assert_complex_matches(SpaceComplex(X, MAXDEG))
        assert_span_matches(random_span(rng, X, CFG))


def carriers_with_free_points(G):
    """One and two regular orbits (every point free), and a regular
    orbit beside a fixed point or beside G/H for a proper H != 1."""
    regular = coset_gset(G, [G.identity])
    proper = next(H for H in all_subgroups(G) if 1 < len(H) < G.order)
    unions = ([regular, regular], [regular, coset_gset(G, G.elements())], [coset_gset(G, proper), regular])
    return [regular] + [disjoint_union_gsets(parts)[0] for parts in unions]


@pytest.mark.parametrize("make", [lambda: cyclic_group(4), lambda: symmetric_group(3)], ids=["C4", "S3"])
def test_free_points_match_oracle(make):
    """The free-point fast paths of ``canonical_tuple`` and ``chain_basis``
    against the whole-group oracle: free carriers and mixed ones, with
    the minimal, the maximal and seeded generated structures."""
    G = make()
    rng = Random(G.order)
    for carrier in carriers_with_free_points(G):
        spaces = [minimal_space(carrier), maximal_space(carrier)]
        for _ in range(2):
            a, b = rng.randrange(carrier.size), rng.randrange(carrier.size)
            pairs = frozenset(p for row in carrier.action for p in ((row[a], row[b]), (row[b], row[a])))
            spaces.append(make_space(carrier, [pairs]))
        for X in spaces:
            assert_complex_matches(SpaceComplex(X, MAXDEG))
            for _ in range(20):
                t = tuple(rng.randrange(X.size) for _ in range(rng.randrange(1, 5)))
                orbit = [tuple(row[x] for x in t) for row in carrier.action]
                assert canonical_tuple(X, t) == (min(orbit), orbit.count(t))
