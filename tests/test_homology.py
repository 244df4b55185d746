import pytest
from random import Random

from oracles import brute_force_homology
from coarsehom.errors import InternalCheckError, OutOfScopeError, ValidationError
from coarsehom.groups import GSet, trivial_gset
from coarsehom.homology import (
    SpaceComplex,
    chain_basis,
    homology,
    hom_is_identity,
    hom_is_multiplication_by,
    induced_map,
    pullback_chain_cols,
    scols_eq,
    scols_mul,
    span_chain_cols,
    transfer_chain,
    pushforward_chain,
    validate_chain_table,
)
from coarsehom.randgen import FuzzConfig, random_composable_spans, random_space
from coarsehom.spaces import (
    BornCoarseSpace,
    CoarseStructure,
    bounded_union,
    coproduct,
    empty_space,
    identity_map,
    make_space,
    maximal_space,
    minimal_space,
)
from coarsehom.spans import (
    compose,
    fold_morphism,
    make_span,
    projection_map,
    transfer_I,
)
from coarsehom.tape import TapeSpace

CFG = FuzzConfig(max_points=6, max_component=3)


def test_basis_point(pt):
    for n in range(4):
        assert len(chain_basis(pt, n)) == 1


def test_basis_two_points_minimal(triv):
    X = minimal_space(trivial_gset(triv, 2))
    assert len(chain_basis(X, 0)) == 2
    assert len(chain_basis(X, 1)) == 2  # only the diagonal tuples


def test_basis_free_orbit(free2_min):
    assert len(chain_basis(free2_min, 0)) == 1


def test_basis_rejects_tape(pt):
    with pytest.raises(OutOfScopeError):
        chain_basis(TapeSpace(pt, "discrete", "finite_window"), 0)


def test_boundary_point_alternates(pt):
    cx = SpaceComplex(pt, 3)
    for n in range(1, 4):
        col = cx.boundary_cols(n)[0]
        expected = {} if n % 2 else {0: 1}
        assert col == expected


def test_boundary_sign_convention(triv):
    X = maximal_space(trivial_gset(triv, 2))
    cx = SpaceComplex(X, 1)
    col = cx.boundary_cols(1)[cx.index[1][(0, 1)]]
    assert col == {cx.index[0][(1,)]: 1, cx.index[0][(0,)]: -1}


def test_dd_zero_random():
    rng = Random(9)
    for _ in range(20):
        X = random_space(rng, CFG)
        assert SpaceComplex(X, 2).check_dd_zero()


def test_homology_point(pt):
    assert homology(pt, 3).degrees == ((1, ()), (0, ()), (0, ()), (0, ()))


def test_homology_components(triv):
    for k in (1, 2, 3, 4):
        X = minimal_space(trivial_gset(triv, k))
        H = homology(X, 2)
        assert H.degrees == ((k, ()), (0, ()), (0, ()))


def test_homology_empty(triv):
    assert homology(empty_space(triv), 2).degrees == ((0, ()), (0, ()), (0, ()))


def test_homology_matches_brute_force_oracle():
    rng = Random(17)
    for _ in range(25):
        X = random_space(rng, CFG)
        assert homology(X, 2).degrees == brute_force_homology(X, 2)


def test_homology_free_c2_torsion(free2):
    X = maximal_space(free2)
    assert homology(X, 3).degrees == ((1, ()), (0, (2,)), (0, ()), (0, (2,)))
    assert brute_force_homology(X, 3) == ((1, ()), (0, (2,)), (0, ()), (0, (2,)))


def test_homology_does_not_depend_on_block_labels(c2):
    gs = trivial_gset(c2, 3)
    relabelled = BornCoarseSpace(gs, CoarseStructure(3, (1, 1, 0)))
    canonical = BornCoarseSpace(gs, CoarseStructure(3, (0, 0, 1)))
    assert homology(canonical, 2).degrees[0] == (2, ())
    assert homology(relabelled, 2) == homology(canonical, 2)


def test_class_of_rejects_non_cycle(triv):
    cx = SpaceComplex(maximal_space(trivial_gset(triv, 3)), 1)
    chain = [0] * len(cx.bases[1])
    chain[cx.index[1][(0, 1)]] = 1  # boundary (1) - (0) is not zero
    with pytest.raises(ValidationError):
        cx.homology_data(1).class_of(chain)


def test_corrupted_boundary_trips_cycle_self_check(triv, monkeypatch):
    cx = SpaceComplex(maximal_space(trivial_gset(triv, 3)), 1)
    not_a_cycle = {cx.index[1][(0, 1)]: 1}
    real = SpaceComplex.boundary_cols

    def corrupted(self, n):
        cols = real(self, n)
        return [not_a_cycle] + cols[1:] if n == 2 else cols

    monkeypatch.setattr(SpaceComplex, "boundary_cols", corrupted)
    with pytest.raises(InternalCheckError, match="not a cycle"):
        cx.homology_data(1)


def test_chain_table_validation(free2_min, c2):
    vec = validate_chain_table(free2_min, 0, {(0,): 2, (1,): 2})
    assert vec == [2]
    with pytest.raises(ValidationError):
        validate_chain_table(free2_min, 0, {(0,): 1, (1,): 2})  # not invariant
    X = minimal_space(trivial_gset(c2, 2))
    with pytest.raises(ValidationError):
        validate_chain_table(X, 1, {(0, 1): 1, (1, 0): 1})  # not controlled


def test_chain_vectors_from_outside_are_checked(free2_min):
    X = free2_min  # one free C2-orbit: a one-element basis in degree 0
    for bad in ([1, 2, 3], []):
        with pytest.raises(ValidationError, match="chain vector has"):
            pushforward_chain((0, 1), X, X, bad, 0)
        with pytest.raises(ValidationError, match="chain vector has"):
            transfer_chain((0, 1), X, X, bad, 0)
    for t in ((5,), (-1,), ("a",)):
        with pytest.raises(ValidationError, match="outside the carrier"):
            validate_chain_table(X, 0, {t: 1})


def test_pushforward_examples(triv, pt):
    X = minimal_space(trivial_gset(triv, 2))
    # identity
    v = validate_chain_table(X, 0, {(0,): 1, (1,): 2})
    assert pushforward_chain(identity_map(X), X, X, v, 0) == [1, 2]
    # fold X u X -> X doubles
    XX, offs = coproduct([X, X])
    fold = (0, 1, 0, 1)
    vv = validate_chain_table(XX, 0, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})
    assert pushforward_chain(fold, XX, X, vv, 0) == [2, 2]
    # constant map of an n-point min space to the point: n * (point)
    three = minimal_space(trivial_gset(triv, 3))
    ones = validate_chain_table(three, 0, {(0,): 1, (1,): 1, (2,): 1})
    assert pushforward_chain((0, 0, 0), three, pt, ones, 0) == [3]


def test_transfer_chain_examples(triv, pt):
    # w = id
    X = minimal_space(trivial_gset(triv, 2))
    v = validate_chain_table(X, 0, {(0,): 5, (1,): 1})
    assert transfer_chain(identity_map(X), X, X, v, 0) == [5, 1]
    # two copies of the point: the unit 0-chain pulls back to 1 on both
    I = trivial_gset(triv, 2)
    W = bounded_union(I, pt)
    unit = validate_chain_table(pt, 0, {(0,): 1})
    pulled = transfer_chain(projection_map(I, pt), W, pt, unit, 0)
    assert pulled == [1, 1]
    # folding back multiplies by |I|
    folded = pushforward_chain(projection_map(I, pt), W, pt, pulled, 0)
    assert folded == [2]


def test_transfer_requires_covering(triv):
    X = maximal_space(trivial_gset(triv, 2))
    WW = make_space(trivial_gset(triv, 4), [frozenset({(i, j) for i in range(4) for j in range(4)})])
    fold = (0, 1, 0, 1)
    with pytest.raises(ValidationError):
        transfer_chain(fold, WW, X, [0] * len(chain_basis(X, 0)), 0)


def test_chain_maps_commute_with_boundary():
    rng = Random(29)
    count = 0
    while count < 20:
        s1, s2 = random_composable_spans(rng, CFG)
        cxX = SpaceComplex(s1.src, 2)
        cxW = SpaceComplex(s1.apex, 2)
        cxY = SpaceComplex(s1.dst, 2)
        cols = [span_chain_cols(s1, cxX, cxW, cxY, n) for n in range(4)]
        for n in range(1, 4):
            lhs = scols_mul(cxY.boundary_cols(n), cols[n])
            rhs = scols_mul(cols[n - 1], cxX.boundary_cols(n))
            assert scols_eq(lhs, rhs)
        count += 1


def test_induced_map_identity(three_min):
    from coarsehom.spans import identity_span

    homs = induced_map(identity_span(three_min), 2)
    assert all(hom_is_identity(h) for h in homs)


def test_induced_map_well_defined_on_iso_classes(triv, three_min):
    # span-isomorphic representatives give equal chain maps
    I = trivial_gset(triv, 2)
    tr = transfer_I(three_min, I)
    W = tr.apex
    # permuted-apex representative: swap the two blocks
    perm = tuple((i + three_min.size) % W.size for i in range(W.size))
    tr2 = make_span(
        three_min,
        W,
        W,
        tuple(tr.left[perm[i]] for i in range(W.size)),
        perm,
    )
    cxX = SpaceComplex(three_min, 2)
    cxW = SpaceComplex(W, 2)
    for n in range(3):
        c1 = span_chain_cols(tr, cxX, cxW, cxW, n)
        # tr2 has right leg into W as well, but through the permutation;
        # the generalized morphisms agree, hence so do the chain maps
        c2 = span_chain_cols(tr2, cxX, cxW, cxW, n)
        assert scols_eq(c1, c2)


def test_fold_after_transfer_multiplies(triv, pt, three_min, free2_min):
    for X in (pt, three_min, free2_min):
        for k in (2, 3, 5):
            I = trivial_gset(X.group, k)
            comp = compose(transfer_I(X, I), fold_morphism(X, I))
            homs = induced_map(comp, 2)
            assert all(hom_is_multiplication_by(h, k) for h in homs)


def test_transfer_then_projection_is_identity(triv, three_min):
    from coarsehom.spans import component_projection

    I = trivial_gset(triv, 3)
    tr = transfer_I(three_min, I)
    p1 = component_projection(three_min, I, 1)
    comp = compose(tr, p1)
    homs = induced_map(comp, 2)
    assert all(hom_is_identity(h) for h in homs)


def test_induced_map_rejects_tape(pt):
    from coarsehom.spans import Span
    from coarsehom.tape import TapeMap, tape_bounded_union

    T = tape_bounded_union(pt)
    proj = TapeMap("project", T, pt, (0,))
    ident = TapeMap("shift", T, T, (0,), 0)
    with pytest.raises(OutOfScopeError):
        induced_map(Span(pt, T, T, proj, ident), 1)


def test_transfer_splits_as_identity_plus_smaller_transfer(triv, three_min):
    # under the block decomposition of the union, the transfer's chain map
    # restricted to the j-block is the identity and restricted to the
    # complement is the smaller transfer
    X = three_min
    I = trivial_gset(triv, 3)
    I2 = trivial_gset(triv, 2)
    W3 = bounded_union(I, X)
    W2 = bounded_union(I2, X)
    cxX = SpaceComplex(X, 2)
    cx3 = SpaceComplex(W3, 2)
    cx2 = SpaceComplex(W2, 2)
    for n in range(3):
        tr3 = pullback_chain_cols(projection_map(I, X), W3, X, cx3, cxX, n)
        tr2 = pullback_chain_cols(projection_map(I2, X), W2, X, cx2, cxX, n)
        # block j = 2 of tr3: rows supported on the last copy, relabeled;
        # blocks 0 and 1 share their point indices with the smaller union
        j = 2
        rest = [dict() for _ in range(len(cxX.bases[n]))]
        for col_idx, col in enumerate(tr3):
            for row, v in col.items():
                rep = cx3.bases[n][row]
                if all(p // X.size == j for p in rep):
                    xrep = tuple(p % X.size for p in rep)
                    assert cxX.index[n][xrep] == col_idx and v == 1
                else:
                    rest[col_idx][cx2.index[n][rep]] = v
        assert scols_eq(rest, tr2)


def test_one_cluster_free_c3_matches_textbook_values():
    # a single coarse cluster with a free C3 action computes the classical
    # cyclic-group homology (Z, Z/3, 0, Z/3) in degrees 0..3
    from coarsehom.groups import cyclic_group

    c3 = cyclic_group(3)
    free3 = GSet(c3, 3, tuple(tuple((x + g) % 3 for x in range(3)) for g in range(3)))
    X = maximal_space(free3)
    expected = ((1, ()), (0, (3,)), (0, ()), (0, (3,)))
    assert homology(X, 3).degrees == expected
    assert brute_force_homology(X, 3) == expected


def test_one_cluster_free_klein_four_matches_kunneth_values():
    # free V4 cluster: degrees 0..3 give Z, (Z/2)^2, Z/2, (Z/2)^3
    from coarsehom.groups import klein_four_group

    v4 = klein_four_group()
    free4 = GSet(v4, 4, tuple(tuple(x ^ g for x in range(4)) for g in range(4)))
    X = maximal_space(free4)
    expected = ((1, ()), (0, (2, 2)), (0, (2,)), (0, (2, 2, 2)))
    assert homology(X, 3).degrees == expected


def test_components_of_mixed_sizes_give_free_rank(triv):
    # two clusters of different sizes under the trivial group: Z^2 in
    # degree 0 and nothing above, matching per-cluster contractibility
    from coarsehom.spaces import coproduct

    cluster3 = maximal_space(trivial_gset(triv, 3))
    cluster2 = maximal_space(trivial_gset(triv, 2))
    X, _ = coproduct([cluster3, cluster2])
    assert homology(X, 2).degrees == ((2, ()), (0, ()), (0, ()))
    assert brute_force_homology(X, 2) == ((2, ()), (0, ()), (0, ()))
