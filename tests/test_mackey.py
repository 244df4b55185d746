import pytest
from random import Random

from oracles import brute_force_homology, gfin_spans_equal, identity_gfin_span, oracle_assembly_verdicts
from coarsehom.groups import (
    GROUP_PRESETS,
    coset_gset,
    cyclic_group,
    disjoint_union_gsets,
    family_all,
    family_trivial,
    product_gset,
    subgroup_class_representatives,
    symmetric_group,
    trivial_gset,
)
from coarsehom.mackey import (
    EMContext,
    _double_coset_spans,
    EM_object,
    GFinSpan,
    M,
    assembly,
    burnside_marks,
    compose_gfin_spans,
    double_coset_check,
    hom_equal,
    hom_sum,
    restriction_span,
    transfer_span,
)
from coarsehom.randgen import FuzzConfig, random_gfin_span, random_gset, random_group
from coarsehom.snf import mat_vec
from coarsehom.spans import is_admissible, AdmissibleSquareCandidate, make_span, pullback
from coarsehom.spaces import spaces_isomorphic, tensor, coproduct

CFG = FuzzConfig(max_points=6)


def test_identity_span_is_unit(c2):
    S = coset_gset(c2, frozenset([0]))
    T = trivial_gset(c2, 1)
    s = GFinSpan(S, T, S, tuple(range(2)), (0, 0))
    assert gfin_spans_equal(compose_gfin_spans(identity_gfin_span(S), s), s)
    assert gfin_spans_equal(compose_gfin_spans(s, identity_gfin_span(T)), s)


def test_double_self_composition_gives_two_free_orbits(c2):
    pt = trivial_gset(c2, 1)
    c2set = coset_gset(c2, frozenset([0]))
    s = GFinSpan(pt, pt, c2set, (0, 0), (0, 0))
    comp = compose_gfin_spans(s, s)
    assert comp.apex.size == 4
    assert sorted(len(o) for o in comp.apex.orbits()) == [2, 2]


def test_res_tr_apex_is_double_coset_sum(c2):
    tr = transfer_span(c2, frozenset([0]))
    res = restriction_span(c2, frozenset([0]))
    comp = compose_gfin_spans(res, tr)
    # apex C2 x C2 decomposes into two free orbits
    assert comp.apex.size == 4
    assert sorted(len(o) for o in comp.apex.orbits()) == [2, 2]


def test_composition_associative_fuzz():
    rng = Random(211)
    count = 0
    while count < 60:
        g = random_group(rng)
        A = random_gset(rng, g, 6)
        s1 = random_gfin_span(rng, A, CFG)
        s2 = random_gfin_span(rng, s1.dst, CFG)
        s3 = random_gfin_span(rng, s2.dst, CFG)
        lhs = compose_gfin_spans(compose_gfin_spans(s1, s2), s3)
        rhs = compose_gfin_spans(s1, compose_gfin_spans(s2, s3))
        assert gfin_spans_equal(lhs, rhs)
        count += 1


def test_m_preserves_coproducts_and_products(c2):
    A = coset_gset(c2, frozenset([0]))
    B = trivial_gset(c2, 2)
    AB, _ = disjoint_union_gsets([A, B])
    assert spaces_isomorphic(M(AB), coproduct([M(A), M(B)])[0])
    assert spaces_isomorphic(M(product_gset(A, B)), tensor(M(A), M(B)))


def test_m_span_validates_and_pullbacks_are_admissible(c2):
    tr = transfer_span(c2, frozenset([0]))
    res = restriction_span(c2, frozenset([0]))
    # every equivariant map of minimal spaces is a bounded covering, so a
    # Burnside span validates read either way; EMContext.em_morphism
    # builds the reversed span unvalidated
    for s in (tr, res):
        make_span(M(s.src), M(s.apex), M(s.dst), s.left, s.right)
        make_span(M(s.dst), M(s.apex), M(s.src), s.right, s.left)
    # coarse realization of the double-coset fiber product: both legs are
    # the projection C2/e -> pt, and the pullback square is admissible
    free = coset_gset(c2, frozenset([0]))
    proj = (0, 0)
    W, w, f = pullback(proj, M(free), proj, M(free), M(trivial_gset(c2, 1)))
    assert W.size == 4
    sq = AdmissibleSquareCandidate(W, M(free), M(free), M(trivial_gset(c2, 1)), f, w, proj, proj)
    ok, diag = is_admissible(sq)
    assert ok, diag


def test_em_object_values(c2, s3):
    assert EM_object(trivial_gset(c2, 1), 2).degrees == ((1, ()), (0, ()), (0, ()))
    # evaluation at G/H literally equals the homology of the minimal space
    for H in subgroup_class_representatives(s3):
        S = coset_gset(s3, H)
        assert EM_object(S, 1).degrees == tuple(brute_force_homology(M(S), 1))


def test_em_matches_plain_pushforward_on_embedded_maps(c2):
    # spans with identity right leg act as the pushforward of the left leg
    ctx = EMContext(1)
    S = coset_gset(c2, frozenset([0]))
    T = trivial_gset(c2, 1)
    proj = (0, 0)
    s = GFinSpan(T, S, S, proj, tuple(range(2)))
    h = ctx.em_morphism(s)[0]
    assert h.matrix == [[2]]  # fiber count of C2/e -> pt on H_0


def test_res_tr_is_multiplication_by_index(c2):
    ctx = EMContext(1)
    tr = transfer_span(c2, frozenset([0]))
    res = restriction_span(c2, frozenset([0]))
    comp = compose_gfin_spans(res, tr)
    h = ctx.em_morphism(comp)[0]
    assert h.matrix == [[2]]


@pytest.mark.parametrize(
    "gfn",
    [
        lambda: cyclic_group(2),
        lambda: cyclic_group(3),
        lambda: cyclic_group(4),
        lambda: symmetric_group(3),
    ],
)
def test_double_coset_all_pairs(gfn):
    g = gfn()
    reps = subgroup_class_representatives(g)
    for H in reps:
        for K in reps:
            assert double_coset_check(g, H, K, 1), (g.name, sorted(H), sorted(K))


def test_em_functoriality_fuzz():
    rng = Random(223)
    ctx_cache = {}
    count = 0
    while count < 60:
        g = random_group(rng)
        ctx = ctx_cache.setdefault(g.name, EMContext(1))
        A = random_gset(rng, g, 6)
        s1 = random_gfin_span(rng, A, CFG)
        s2 = random_gfin_span(rng, s1.dst, CFG)
        comp = compose_gfin_spans(s1, s2)
        lhs = ctx.em_morphism(comp)
        h1 = ctx.em_morphism(s1)
        h2 = ctx.em_morphism(s2)
        for n in range(2):
            assert hom_equal(lhs[n], h1[n].compose(h2[n]))
        count += 1


def test_em_additive_biproduct(c2):
    # EM(S u T) with inclusion/projection spans is a biproduct
    ctx = EMContext(1)
    S = coset_gset(c2, frozenset([0]))
    T = trivial_gset(c2, 2)
    ST, offs = disjoint_union_gsets([S, T])
    incl_S = tuple(offs[0] + x for x in range(S.size))
    incl_T = tuple(offs[1] + x for x in range(T.size))
    iS = GFinSpan(S, ST, S, tuple(range(S.size)), incl_S)
    pS = GFinSpan(ST, S, S, incl_S, tuple(range(S.size)))
    iT = GFinSpan(T, ST, T, tuple(range(T.size)), incl_T)
    pT = GFinSpan(ST, T, T, incl_T, tuple(range(T.size)))
    for n in range(2):
        em_iS = ctx.em_morphism(iS)[n]   # EM(ST) -> EM(S)
        em_pS = ctx.em_morphism(pS)[n]   # EM(S) -> EM(ST)
        em_iT = ctx.em_morphism(iT)[n]
        em_pT = ctx.em_morphism(pT)[n]
        from coarsehom.homology import hom_is_identity

        assert hom_is_identity(em_iS.compose(em_pS))
        assert hom_is_identity(em_iT.compose(em_pT))
        for mixed in (em_iS.compose(em_pT), em_iT.compose(em_pS)):
            for j in range(mixed.src.ngens):
                basis_vec = [1 if i == j else 0 for i in range(mixed.src.ngens)]
                assert mixed.dst.is_zero(mat_vec(mixed.matrix, basis_vec))
        # sum of the two round trips is the identity on EM(ST)
        rt = hom_sum([em_pS.compose(em_iS), em_pT.compose(em_iT)])
        assert hom_is_identity(rt)


def test_marks_examples(c2):
    pt = trivial_gset(c2, 1)
    assert burnside_marks(pt) == (1, 1)
    free = coset_gset(c2, frozenset([0]))
    assert burnside_marks(free) == (2, 0)
    prod = product_gset(free, free)
    assert burnside_marks(prod) == (4, 0)


def test_marks_multiplicative_under_point_span_composition():
    rng = Random(227)
    for _ in range(30):
        g = random_group(rng)
        pt = trivial_gset(g, 1)
        s1 = random_gfin_span(rng, pt, CFG)
        # force both endpoints to the point
        s1 = GFinSpan(pt, pt, s1.apex, (0,) * s1.apex.size, (0,) * s1.apex.size)
        s2 = random_gfin_span(rng, pt, CFG)
        s2 = GFinSpan(pt, pt, s2.apex, (0,) * s2.apex.size, (0,) * s2.apex.size)
        comp = compose_gfin_spans(s1, s2)
        m1 = burnside_marks(s1.apex)
        m2 = burnside_marks(s2.apex)
        mc = burnside_marks(comp.apex)
        assert mc == tuple(a * b for a, b in zip(m1, m2))


def test_marks_additive_under_disjoint_union(c2):
    A = coset_gset(c2, frozenset([0]))
    B = trivial_gset(c2, 2)
    AB, _ = disjoint_union_gsets([A, B])
    assert burnside_marks(AB) == tuple(
        a + b for a, b in zip(burnside_marks(A), burnside_marks(B))
    )


def test_assembly_full_family_is_iso(c2, s3):
    for g in (c2, s3):
        r = assembly(g, family_all(g), 0)
        assert r.injective and r.split
        assert r.assembly.is_isomorphism()


def test_assembly_agrees_with_oracle_small_groups():
    for gfn in (lambda: cyclic_group(2), lambda: cyclic_group(3), lambda: symmetric_group(3)):
        g = gfn()
        for fam in (family_all(g), family_trivial(g)):
            r = assembly(g, fam, 0)
            oi, osp = oracle_assembly_verdicts(g, fam)
            assert (r.injective, r.split) == (oi, osp)


def test_assembly_higher_degree_trivial(c2):
    r = assembly(c2, family_trivial(c2), 1)
    assert r.colimit.invariants() == (0, ()) and r.target.invariants() == (0, ())
    assert r.injective and r.split


def test_assembly_result_is_labeled_empirical(c2):
    r = assembly(c2, family_all(c2), 0)
    assert r.label == "empirical"
    assert "empirical" in r.verdict_line()


def test_m_of_empty_gset_is_empty_space(c2):
    from coarsehom.groups import GSet as GS

    empty = GS(c2, 0, ((), ()))
    assert M(empty).size == 0


def test_em_object_additive_over_disjoint_union(c2):
    A = coset_gset(c2, frozenset([0]))
    B = trivial_gset(c2, 2)
    AB, _ = disjoint_union_gsets([A, B])
    ra, rb = EM_object(A, 1).degrees, EM_object(B, 1).degrees
    rab = EM_object(AB, 1).degrees
    assert all(
        rab[n][0] == ra[n][0] + rb[n][0]
        and rab[n][1] == tuple(sorted(ra[n][1] + rb[n][1]))
        for n in range(2)
    )


def test_double_coset_s4_all_pairs_degree_0():
    s4 = symmetric_group(4)
    reps = subgroup_class_representatives(s4)
    assert len(reps) == 11
    for H in reps:
        for K in reps:
            assert double_coset_check(s4, H, K, 0), (sorted(H), sorted(K))


@pytest.mark.parametrize("name", ["S4", "A4", "A5"])
def test_double_coset_spans_pass_the_validator(name):
    # the one-step spans skip GFinSpan's validator: the same legs must pass it
    g = GROUP_PRESETS[name]()
    reps = subgroup_class_representatives(g)
    for H in reps:
        for K in reps:
            spans = _double_coset_spans(g, H, K)
            assert spans
            for s in spans:
                assert GFinSpan(s.src, s.dst, s.apex, s.left, s.right) == s
