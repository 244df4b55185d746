import pytest

from coarsehom.errors import ValidationError
from coarsehom.groups import GSet, trivial_gset
from coarsehom.spaces import (
    BornCoarseSpace,
    CoarseStructure,
    bounded_union,
    coarse_closure,
    coproduct,
    free_union_copies,
    generate_structure,
    induced_structure,
    make_space,
    map_predicates,
    maximal_space,
    minimal_space,
    point_space,
    restrict_by_partition,
    spaces_isomorphic,
    tensor,
)


def test_generate_structure_examples(triv):
    gs = trivial_gset(triv, 3)
    empty = generate_structure([], gs)
    assert empty.components() == [(0,), (1,), (2,)]
    full = frozenset((a, b) for a in range(3) for b in range(3))
    maxs = generate_structure([full], gs)
    assert maxs.components() == [(0, 1, 2)]
    one = generate_structure([frozenset({(0, 1), (1, 0)})], gs)
    assert one.components() == [(0, 1), (2,)]
    # membership: an entourage lies in the structure iff inside the closure
    assert one.contains(frozenset({(1, 0)}))
    assert not one.contains(frozenset({(0, 2)}))
    with pytest.raises(ValidationError):
        one.contains(frozenset({(0, 5)}))  # a pair off the carrier


def test_generate_structure_rejects_noninvariant(c2):
    gs = GSet(c2, 2, ((0, 1), (1, 0)))
    with pytest.raises(ValidationError):
        generate_structure([frozenset({(0, 1)})], gs)  # swap breaks it


def test_generate_idempotent(triv):
    gs = trivial_gset(triv, 4)
    s = generate_structure([frozenset({(0, 1), (1, 0)}), frozenset({(2, 3), (3, 2)})], gs)
    again = generate_structure([s.closure_entourage()], gs)
    assert s == again


def test_coarse_closure_idempotent_extensive(chain3):
    A = {0}
    closed = coarse_closure(chain3, A)
    assert set(A) <= set(closed)
    assert coarse_closure(chain3, closed) == closed
    assert set(closed) == {0, 1, 2}


def test_coarsely_disjoint(triv):
    # A and B are coarsely disjoint iff their coarse closures are disjoint
    gs = trivial_gset(triv, 4)
    X = make_space(gs, [frozenset({(0, 1), (1, 0)})])
    assert not coarse_closure(X, {0}) & coarse_closure(X, {2})
    assert coarse_closure(X, {0}) & coarse_closure(X, {1})


def test_restrict_by_partition(triv):
    gs = trivial_gset(triv, 3)
    X = maximal_space(gs)
    whole = restrict_by_partition(X, [(0, 1, 2)])
    assert whole == X.coarse
    singles = restrict_by_partition(X, [(0,), (1,), (2,)])
    assert singles.components() == [(0,), (1,), (2,)]
    split = restrict_by_partition(X, [(0, 1), (2,)])
    assert split.components() == [(0, 1), (2,)]


def test_restrict_rejects_non_equivariant(c2):
    gs = GSet(c2, 3, ((0, 1, 2), (1, 0, 2)))
    X = maximal_space(gs)
    with pytest.raises(ValidationError):
        restrict_by_partition(X, [(0,)])  # not a partition at all
    with pytest.raises(ValidationError):
        restrict_by_partition(X, [(0,), (1, 2)])  # blocks not permuted by C2


def test_induced_structure(triv):
    gs = trivial_gset(triv, 3)
    X = make_space(gs, [frozenset({(0, 1), (1, 0)})])
    ident = tuple(range(3))
    assert induced_structure(ident, gs, X) == X.coarse
    # constant map to a point pulls back to the maximal structure
    ptgs = trivial_gset(triv, 1)
    P = minimal_space(ptgs)
    const = (0, 0, 0)
    ind = induced_structure(const, gs, P)
    assert ind.components() == [(0, 1, 2)]


def test_induced_then_restricted_is_strictly_finer(triv):
    # projection I_min x X -> X: restriction along components refines
    X = maximal_space(trivial_gset(triv, 2))
    I = trivial_gset(triv, 2)
    W = bounded_union(I, X)
    proj = tuple(i % X.size for i in range(W.size))
    ind = induced_structure(proj, W.carrier, X)
    assert len(ind.components()) == 1
    restricted = restrict_by_partition(
        make_space(W.carrier, [ind.closure_entourage()]), W.components()
    )
    assert restricted == W.coarse
    assert len(restricted.components()) == 2


def test_tensor_examples(triv, pt, three_min):
    T = tensor(three_min, pt)
    assert spaces_isomorphic(T, three_min)
    A = make_space(trivial_gset(triv, 2), [frozenset({(0, 1), (1, 0)})])
    B = minimal_space(trivial_gset(triv, 2))
    prod = tensor(A, B)
    assert len(prod.components()) == len(A.components()) * len(B.components())


def test_coproduct_examples(triv, three_min):
    from coarsehom.spaces import empty_space

    C, offs = coproduct([three_min, empty_space(triv)])
    assert spaces_isomorphic(C, three_min)
    assert offs == [0, 3]


def test_bounded_free_union_coincide_for_finite_trivial_index(triv, chain3):
    I = trivial_gset(triv, 3)
    bd = bounded_union(I, chain3)
    fr = free_union_copies(I, chain3)
    assert bd.coarse == fr.coarse
    assert bd.carrier == fr.carrier
    cp, _ = coproduct([chain3, chain3, chain3])
    assert spaces_isomorphic(bd, cp)


def test_bounded_union_over_empty_index(triv, chain3):
    I = trivial_gset(triv, 0)
    bd = bounded_union(I, chain3)
    assert bd.size == 0


def test_map_predicates(triv, three_min):
    ident = tuple(range(3))
    assert map_predicates(ident, three_min, three_min) == (True, True, True)
    two = minimal_space(trivial_gset(triv, 2))
    const = (0, 0)
    assert map_predicates(const, two, point_space(triv)) == (True, True, True)
    # a non-controlled map: collapse of a discrete pair onto a related pair
    X = minimal_space(trivial_gset(triv, 2))
    Y = maximal_space(trivial_gset(triv, 2))
    back = (0, 1)
    controlled, _, _ = map_predicates(back, Y, X)
    assert not controlled


def test_space_isomorphism_search(c2, free2_min):
    other = minimal_space(GSet(c2, 2, ((0, 1), (1, 0))))
    assert spaces_isomorphic(free2_min, other)
    assert not spaces_isomorphic(free2_min, minimal_space(trivial_gset(c2, 2)))


def test_block_labels_are_numbered_canonically(triv):
    gs = trivial_gset(triv, 3)
    relabelled = BornCoarseSpace(gs, CoarseStructure(3, (1, 1, 0)))
    canonical = BornCoarseSpace(gs, CoarseStructure(3, (0, 0, 1)))
    assert relabelled.coarse == canonical.coarse
    assert relabelled.coarse.block == (0, 0, 1)
    assert spaces_isomorphic(relabelled, canonical)
    with pytest.raises(ValidationError, match="2 block labels for a carrier of size 3"):
        CoarseStructure(3, (0, 0))


def test_restrict_by_components_recovers_structure(chain3, free2_min):
    for X in (chain3, free2_min):
        assert restrict_by_partition(X, X.components()) == X.coarse


def test_components_form_a_gset(c2):
    from coarsehom.spaces import components_gset

    gs = GSet(c2, 4, ((0, 1, 2, 3), (1, 0, 3, 2)))
    X = make_space(gs, [frozenset({(0, 1), (1, 0)})])
    pi0, labels = components_gset(X)
    assert pi0.size == 3
    # the swapped pair forms one fixed block, the remaining two swap
    assert sorted(len(o) for o in pi0.orbits()) == [1, 2]


def test_space_with_single_entourage(triv, chain3):
    # X_U: the carrier of X with the structure generated by U alone
    U = frozenset({(0, 1), (1, 0)})
    XU = make_space(chain3.carrier, [U])
    assert XU.coarse.components() == [(0, 1), (2,)]
