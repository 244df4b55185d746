"""Coarse structures built from block labels against the pair-set oracles
in ``tests/oracles.py``.

The package's constructors (``tensor``, ``coproduct``, ``maximal_space``,
``restrict_by_partition``, ``induced_structure``) and
``randgen.random_controlled_map`` build block labels directly, and
``BornCoarseSpace(...)`` checks invariance block by block in O(|G| n).
The oracles are the earlier bodies that built O(n^2) sets of pairs.  On
seeded draws over every group of ``randgen.GROUP_CATALOG`` the
structures, the u-continuity stages, and for the random target also the
map and the generator state must be equal.  A guard test makes the
closure entourage raise, so no path below may build the pair set of a
structure.
"""

from random import Random

import pytest

from coarsehom.errors import ValidationError
from coarsehom.groups import GSet, cyclic_group, trivial_group, trivial_gset
from coarsehom.randgen import (
    GROUP_CATALOG,
    FuzzConfig,
    _invariant_pair_orbit,
    random_composable_spans,
    random_controlled_map,
    random_cospan,
    random_covering,
    random_equivariant_map,
    random_gset,
    random_space,
    random_span,
)
from coarsehom.spaces import (
    BornCoarseSpace,
    CoarseStructure,
    coproduct,
    empty_space,
    induced_structure,
    make_space,
    maximal_space,
    restrict_by_partition,
    tensor,
)
from coarsehom.spans import AdmissibleSquareCandidate, compose, is_admissible, pullback
from coarsehom.tape import (
    TapeEntourage,
    TapeMap,
    TapeSpace,
    tape_map_predicates,
    tape_projection_is_bounded_covering,
)
from oracles import (
    oracle_coproduct,
    oracle_induced_structure,
    oracle_is_invariant_structure,
    oracle_maximal_space,
    oracle_random_controlled_map,
    oracle_restrict_by_partition,
    oracle_tensor,
)

CFG = FuzzConfig(max_points=8, max_component=3, max_copies=2)
SEEDS = range(12)


def u_stages(carrier, coarse):
    """The stages check_u_continuity builds: the generator filtration, or
    the closure alone for a structure without generators."""
    gens = list(coarse.generators) or [coarse.closure_entourage()]
    return [make_space(carrier, gens[:k]).coarse for k in range(len(gens) + 1)]


def assert_same_space(new, old):
    assert new.carrier == old.carrier
    assert new.coarse == old.coarse
    assert new.name == old.name
    assert u_stages(new.carrier, new.coarse) == u_stages(old.carrier, old.coarse)


def assert_same_structure(carrier, new, old):
    assert new == old
    assert u_stages(carrier, new) == u_stages(carrier, old)


def validates(gs, labels):
    try:
        BornCoarseSpace(gs, CoarseStructure(gs.size, labels))
    except ValidationError as e:
        assert str(e) == "coarse structure is not G-invariant"
        return False
    return True


def test_invariance_check_rejects_a_non_invariant_partition():
    # the swap sends the block {0, 2} to {1, 3}, which is not a block
    gs = GSet(cyclic_group(2), 4, ((0, 1, 2, 3), (1, 0, 3, 2)))
    with pytest.raises(ValidationError, match="coarse structure is not G-invariant"):
        BornCoarseSpace(gs, CoarseStructure(4, (0, 1, 0, 2)))
    BornCoarseSpace(gs, CoarseStructure(4, (0, 0, 1, 1)))
    BornCoarseSpace(gs, CoarseStructure(4, (0, 1, 0, 1)))


def test_invariance_check_matches_the_pairwise_oracle():
    verdicts = set()
    for seed in SEEDS:
        rng = Random(seed)
        for make in GROUP_CATALOG:
            grp = make()
            gs = random_gset(rng, grp, CFG.max_points)
            for _ in range(6):
                labels = [rng.randrange(1 + rng.randrange(gs.size)) for _ in range(gs.size)]
                ok = validates(gs, labels)
                assert ok == oracle_is_invariant_structure(gs, CoarseStructure(gs.size, labels))
                verdicts.add(ok)
            X = random_space(rng, CFG, group=grp)
            assert validates(X.carrier, X.coarse.block)
            assert oracle_is_invariant_structure(X.carrier, X.coarse)
    assert verdicts == {True, False}


def test_constructors_match_the_pair_set_oracles():
    for seed in SEEDS:
        rng = Random(seed)
        for make in GROUP_CATALOG:
            grp = make()
            X = random_space(rng, CFG, group=grp)
            Y = random_space(rng, CFG, group=grp)
            empty = trivial_gset(grp, 0)

            assert_same_space(tensor(X, Y), oracle_tensor(X, Y))
            assert_same_space(tensor(X, Y, name="t"), oracle_tensor(X, Y, name="t"))
            assert tensor(X, maximal_space(empty)).coarse == oracle_tensor(X, maximal_space(empty)).coarse

            for parts in ([X, Y, X], [Y], [maximal_space(empty), X]):
                new, offsets = coproduct(parts, name="c")
                old, old_offsets = oracle_coproduct(parts, name="c")
                assert offsets == old_offsets
                assert_same_space(new, old)

            for gs in (X.carrier, Y.carrier, empty):
                assert_same_space(maximal_space(gs, name="m"), oracle_maximal_space(gs, name="m"))

            a, b = rng.randrange(X.size), rng.randrange(X.size)
            coarser = make_space(X.carrier, [_invariant_pair_orbit(X.carrier, a, b)])
            for parts in (X.components(), X.carrier.orbits(), coarser.components(), [range(X.size)]):
                assert_same_structure(
                    X.carrier, restrict_by_partition(X, parts), oracle_restrict_by_partition(X, parts)
                )

            A = random_gset(rng, grp, CFG.max_points)
            w = random_equivariant_map(rng, A, X.carrier)
            if w is not None:
                assert_same_structure(A, induced_structure(w, A, X), oracle_induced_structure(w, A, X))

            state = rng.getstate()
            f, T = random_controlled_map(rng, X, CFG)
            after = rng.getstate()
            rng.setstate(state)
            old_f, old_T = oracle_random_controlled_map(rng, X, CFG)
            assert (f, T.carrier, T.coarse, T.name) == (old_f, old_T.carrier, old_T.coarse, old_T.name)
            assert after == rng.getstate()


def test_random_span_of_an_empty_space():
    # W is empty, so the target is grown from the drawn parts alone; when
    # none is drawn it is the empty G-set
    for grp in (trivial_group(), cyclic_group(2)):
        X = empty_space(grp)
        for seed in range(10):
            span = random_span(Random(seed), X, CFG)
            assert span.apex.size == 0 and span.right == ()
            W = random_covering(Random(seed), X, CFG)[0]
            rng, old_rng = Random(seed), Random(seed)
            f, T = random_controlled_map(rng, W, CFG)
            old_f, old_T = oracle_random_controlled_map(old_rng, W, CFG)
            assert (f, T.carrier, T.coarse) == (old_f, old_T.carrier, old_T.coarse)
            assert rng.getstate() == old_rng.getstate()


def test_no_structure_builds_its_pair_set(monkeypatch, pt, three_min, chain3, free2_min):
    def refuse(self):
        raise AssertionError("a coarse structure built its pair set")

    monkeypatch.setattr(CoarseStructure, "closure_entourage", refuse)
    for X, Y in ((three_min, chain3), (chain3, pt), (free2_min, free2_min)):
        tensor(X, Y)
        coproduct([X, Y, X])
        maximal_space(X.carrier)
        restrict_by_partition(X, X.carrier.orbits())
        induced_structure(tuple(range(X.size)), X.carrier, X)
        BornCoarseSpace(X.carrier, X.coarse)
        for preset in ("discrete", "band"):
            T = TapeSpace(X, preset, "finite_window")
            proj = TapeMap("project", T, X, tuple(range(X.size)))
            tape_map_predicates(proj)
            tape_projection_is_bounded_covering(proj)
            tape_map_predicates(TapeMap("shift", T, T, tuple(range(X.size)), 1))
            rel = frozenset((x, x) for x in range(X.size)) | {(0, X.size - 1)}
            T.has_entourage(TapeEntourage(0, rel, frozenset({((1, 0), (1, 0))})))
    rng = Random(7)
    for X in (pt, three_min, chain3, free2_min):
        random_span(rng, X, CFG)
    for _ in range(10):
        compose(*random_composable_spans(rng, CFG))
        g, V, u, U, Z = random_cospan(rng, CFG)
        W, w, f = pullback(g, V, u, U, Z)
        assert is_admissible(AdmissibleSquareCandidate(W, U, V, Z, f, w, g, u))[0]
