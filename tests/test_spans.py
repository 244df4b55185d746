import pytest
from dataclasses import replace
from random import Random

from coarsehom import spaces, spans
from coarsehom.errors import InternalCheckError, ValidationError
from coarsehom.groups import GSet, trivial_gset
from coarsehom.randgen import FuzzConfig, random_composable_spans, random_cospan, random_space, random_span
from coarsehom.spaces import (
    bounded_union,
    compose_maps,
    coproduct,
    empty_space,
    identity_map,
    make_space,
    maximal_space,
    minimal_space,
    tensor,
    trivial_gset as _tg,
)
from coarsehom.spans import (
    AdmissibleSquareCandidate,
    Span,
    component_inclusion,
    component_projection,
    compose,
    embed,
    fold_morphism,
    hom_monoid_add,
    identity_span,
    is_admissible,
    is_bounded_coarse_covering,
    is_bounded_covering,
    make_span,
    projection_map,
    pullback,
    spans_isomorphic,
    transfer,
    transfer_I,
)

CFG = FuzzConfig(max_points=6, max_component=3, max_copies=2)


def test_identity_is_bounded_covering(three_min):
    ok, diag = is_bounded_covering(identity_map(three_min), three_min, three_min)
    assert ok, diag


def test_projection_is_bounded_coarse_covering(triv, three_min):
    I = trivial_gset(triv, 2)
    W = bounded_union(I, three_min)
    ok, diag = is_bounded_coarse_covering(projection_map(I, three_min), W, three_min)
    assert ok, diag


def test_fold_from_one_component_fails(triv):
    X = maximal_space(trivial_gset(triv, 2))
    WW = tensor(maximal_space(trivial_gset(triv, 2)), X)
    fold = tuple(i % X.size for i in range(WW.size))
    ok, diag = is_bounded_coarse_covering(fold, WW, X)
    assert not ok
    assert "condition 2" in diag


def test_covering_composition_closed(triv):
    rng = Random(5)
    from coarsehom.randgen import random_covering

    for _ in range(50):
        X = random_space(rng, CFG)
        W1, w1 = random_covering(rng, X, CFG)
        W2, w2 = random_covering(rng, W1, CFG)
        comp = tuple(w1[w2[i]] for i in range(W2.size))
        ok, diag = is_bounded_covering(comp, W2, X)
        assert ok, diag


def test_admissible_square_identity(three_min):
    ident = identity_map(three_min)
    sq = AdmissibleSquareCandidate(
        three_min, three_min, three_min, three_min, ident, ident, ident, ident
    )
    ok, diag = is_admissible(sq)
    assert ok, diag


def test_admissible_reports_the_first_non_equivariant_map(c2, free2, free2_min):
    # f is not equivariant and g is not controlled: equivariance comes first
    Vmax = maximal_space(free2)
    ident = identity_map(free2_min)
    sq = AdmissibleSquareCandidate(free2_min, free2_min, Vmax, free2_min, (0, 0), ident, ident, ident)
    with pytest.raises(ValidationError, match="square map f is not equivariant"):
        is_admissible(sq)


def _square_variants(rng, sq):
    """The square, and squares with one corner's structure made maximal or
    minimal or one map's orbit redirected."""
    yield sq
    for corner in "WUVZ":
        X = getattr(sq, corner)
        for other in (maximal_space(X.carrier), minimal_space(X.carrier)):
            yield replace(sq, **{corner: other})
    for leg, (src, dst) in {"f": "WU", "w": "WV", "g": "VZ", "u": "UZ"}.items():
        S, T = getattr(sq, src), getattr(sq, dst)
        if S.size == 0:
            continue
        rep = rng.randrange(S.size)
        stab = S.carrier.stabilizer(rep)
        q = rng.choice([q for q in range(T.size) if stab <= T.carrier.stabilizer(q)])
        out = list(getattr(sq, leg))
        for gg in S.group.elements():
            out[S.carrier.act(gg, rep)] = T.carrier.act(gg, q)
        yield replace(sq, **{leg: tuple(out)})


def test_admissible_matches_the_map_by_map_oracle(monkeypatch):
    from coarsehom import groups
    from oracles import oracle_is_admissible

    def outcome(fn, sq):
        try:
            return fn(sq)
        except ValidationError as e:
            return ("raised", str(e))

    calls = []
    real = groups.is_equivariant
    monkeypatch.setattr(groups, "is_equivariant", lambda *a: calls.append(1) or real(*a))
    rng = Random(17)
    verdicts = set()
    for _ in range(40):
        g, V, u, U, Z = random_cospan(rng, CFG)
        W, w, f = pullback(g, V, u, U, Z)
        for sq in _square_variants(rng, AdmissibleSquareCandidate(W, U, V, Z, f, w, g, u)):
            expected = outcome(oracle_is_admissible, sq)
            calls.clear()
            got = outcome(is_admissible, sq)
            assert got == expected
            verdicts.add(got[1])
            if got[0] != "raised":
                assert len(calls) == 4  # each map's equivariance, once
    assert "admissible" in verdicts and len(verdicts) >= 4


def test_pullback_completes_to_admissible_square():
    rng = Random(11)
    count = 0
    while count < 30:
        g, V, u, U, Z = random_cospan(rng, CFG)
        if V.size == 0 or U.size == 0:
            continue
        W, w, f = pullback(g, V, u, U, Z)
        sq = AdmissibleSquareCandidate(W, U, V, Z, f, w, g, u)
        ok, diag = is_admissible(sq)
        assert ok, diag
        okw, diagw = is_bounded_covering(w, W, V)
        assert okw, diagw
        count += 1


def test_pullback_with_identity_covering(three_min):
    ident = identity_map(three_min)
    W, w, f = pullback(ident, three_min, ident, three_min, three_min)
    assert W.size == three_min.size
    assert spans_isomorphic(
        make_span(three_min, W, three_min, w, f),
        identity_span(three_min),
    )


def test_pullback_point_fiber(triv, pt):
    # g picks a point of X, u is the union projection: fiber = I
    X = minimal_space(trivial_gset(triv, 2))
    I = trivial_gset(triv, 3)
    W = bounded_union(I, X)
    proj = projection_map(I, X)
    g = (0,)
    P, w, f = pullback(g, pt, proj, W, X)
    assert P.size == 3
    assert len(P.components()) == 3


def _duplicate_a_point(real):
    def corrupted(*args):
        carrier, pts = real(*args)
        return carrier, pts[:-1] + pts[:1]

    return corrupted


def _merge_all_blocks(real):
    return lambda size, block: real(size, (0,) * size)


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("fiber_product_gset", _duplicate_a_point, "comparison map fails"),
        ("CoarseStructure", _merge_all_blocks, "structure mismatch"),
    ],
)
def test_corrupt_fiber_product_trips_pullback_self_check(triv, monkeypatch, name, corrupt, message):
    # the cospan X -id-> X <-proj- I_min,min ox X has a six-point fiber
    # product with six components
    X = minimal_space(trivial_gset(triv, 2))
    I = trivial_gset(triv, 3)
    W = bounded_union(I, X)
    ident = identity_map(X)
    pullback(ident, X, projection_map(I, X), W, X)
    # the fiber product is built in spans, its structure from labels in spaces
    owner = spaces if name == "CoarseStructure" else spans
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    with pytest.raises(InternalCheckError, match=message):
        pullback(ident, X, projection_map(I, X), W, X)


def test_square_failing_cartesianness(triv):
    # apex a strict subspace of the pullback: two copies collapse to one
    X = minimal_space(trivial_gset(triv, 2))
    I = trivial_gset(triv, 2)
    W = bounded_union(I, X)
    proj = projection_map(I, X)
    ident = identity_map(X)
    sq = AdmissibleSquareCandidate(X, W, X, X, (0, 1), ident, ident, proj)
    ok, diag = is_admissible(sq)
    assert not ok
    assert "cartesian" in diag


def test_compose_embeds_functorially(triv, three_min):
    Y = minimal_space(trivial_gset(triv, 2))
    f = (0, 0, 1)
    g = (1, 0)
    lhs = compose(embed(f, three_min, Y), embed(g, Y, Y))
    rhs = embed(compose_maps(f, g), three_min, Y)
    assert spans_isomorphic(lhs, rhs)
    assert spans_isomorphic(embed(identity_map(Y), Y, Y), identity_span(Y))


def test_embed_rejects_non_morphism(triv):
    X = minimal_space(trivial_gset(triv, 2))
    Y = maximal_space(trivial_gset(triv, 2))
    with pytest.raises(ValidationError):
        embed((0, 1), Y, X)  # not controlled


def test_transfer_identity(three_min):
    tr = transfer(identity_map(three_min), three_min, three_min)
    assert spans_isomorphic(tr, identity_span(three_min))


def test_transfer_singleton_index_is_inclusion(triv, three_min):
    I = trivial_gset(triv, 1)
    tr = transfer_I(three_min, I)
    j0 = component_inclusion(three_min, I, 0)
    assert spans_isomorphic(tr, j0)


def test_projection_inclusion_identity(triv, three_min):
    I = trivial_gset(triv, 2)
    j0 = component_inclusion(three_min, I, 0)
    p0 = component_projection(three_min, I, 0)
    assert spans_isomorphic(compose(j0, p0), identity_span(three_min))


def test_transfer_decomposes_as_sum(triv, three_min):
    I = trivial_gset(triv, 2)
    j0 = component_inclusion(three_min, I, 0)
    j1 = component_inclusion(three_min, I, 1)
    tr = transfer_I(three_min, I)
    assert spans_isomorphic(hom_monoid_add(j0, j1), tr)
    # tr_{X,I} = tr_{X,I'} + j_i with I' = {1}: embed I' into I at slot 1
    trI1 = transfer_I(three_min, trivial_gset(triv, 1))
    W = bounded_union(I, three_min)
    relabel = make_span(
        three_min,
        trI1.apex,
        W,
        trI1.left,
        tuple(1 * three_min.size + x for x in range(three_min.size)),
    )
    assert spans_isomorphic(hom_monoid_add(relabel, j0), tr)


def test_hom_monoid_laws(triv, three_min):
    rng = Random(23)
    for _ in range(20):
        s1 = random_span(rng, three_min, CFG)
        s2 = make_span(three_min, s1.apex, s1.dst, s1.left, s1.right)
        # commutativity
        assert spans_isomorphic(hom_monoid_add(s1, s2), hom_monoid_add(s2, s1))
        # unit
        zero = Span(three_min, empty_space(three_min.group), s1.dst, (), ())
        assert spans_isomorphic(hom_monoid_add(s1, zero), s1)


def test_semi_additivity_pairing(triv):
    # for spans [A, a, s]: Q -> X and [B, b, t]: Q -> Y, the pairing
    # [A u B, a u b, s + t]: Q -> X u Y composed with the projections
    # p = [X, i, id] and q = [Y, j, id] recovers the two spans
    rng = Random(31)
    for _ in range(10):
        Q = random_space(rng, CFG)
        sA = random_span(rng, Q, CFG)
        sB = random_span(rng, Q, CFG)
        X, Y = sA.dst, sB.dst
        XY, offxy = coproduct([X, Y])
        AB, offab = coproduct([sA.apex, sB.apex])
        pairing = make_span(
            Q,
            AB,
            XY,
            tuple(list(sA.left) + list(sB.left)),
            tuple(
                [offxy[0] + v for v in sA.right] + [offxy[1] + v for v in sB.right]
            ),
        )
        p = make_span(XY, X, X, tuple(offxy[0] + x for x in range(X.size)), identity_map(X))
        q = make_span(XY, Y, Y, tuple(offxy[1] + y for y in range(Y.size)), identity_map(Y))
        assert spans_isomorphic(compose(pairing, p), sA)
        assert spans_isomorphic(compose(pairing, q), sB)


def test_spans_isomorphic_detects_difference(triv, three_min):
    I = trivial_gset(triv, 2)
    tr = transfer_I(three_min, I)
    j0 = component_inclusion(three_min, I, 0)
    assert not spans_isomorphic(tr, j0)
    assert spans_isomorphic(tr, tr)


def test_pullback_uniqueness_up_to_unique_iso():
    rng = Random(41)
    count = 0
    while count < 10:
        g, V, u, U, Z = random_cospan(rng, CFG)
        if V.size == 0 or U.size == 0:
            continue
        W, w, f = pullback(g, V, u, U, Z)
        if W.size == 0:
            continue
        # a second completion: permute the apex carrier
        perm = list(range(W.size))
        perm.reverse()
        # the reversed labeling must still be equivariant: relabel by building
        # the same pullback with swapped coordinate order
        pts = [(x, v) for x in range(U.size) for v in range(V.size) if g[v] == u[x]]
        index = {p: k for k, p in enumerate(pts)}
        G = Z.group
        action = tuple(
            tuple(index[(U.carrier.action[gg][x], V.carrier.action[gg][v])] for (x, v) in pts)
            for gg in G.elements()
        )
        from coarsehom.spaces import BornCoarseSpace, CoarseStructure

        labels = []
        blocks = {}
        for (x, v) in pts:
            key = (U.coarse.block[x], V.coarse.block[v])
            if key not in blocks:
                blocks[key] = len(blocks)
            labels.append(blocks[key])
        W2 = BornCoarseSpace(
            GSet(G, len(pts), action), CoarseStructure(len(pts), tuple(labels))
        )
        w2 = tuple(v for (x, v) in pts)
        f2 = tuple(x for (x, v) in pts)
        sq = AdmissibleSquareCandidate(W2, U, V, Z, f2, w2, g, u)
        ok, diag = is_admissible(sq)
        assert ok, diag
        # both completions give isomorphic spans over (V, U)
        s1 = Span(V, W, U, w, f)
        s2 = Span(V, W2, U, w2, f2)
        assert spans_isomorphic(s1, s2)
        count += 1


def test_composition_associativity_fuzz():
    rng = Random(2024)
    count = 0
    while count < 60:
        s1, s2 = random_composable_spans(rng, CFG)
        s3 = random_span(rng, s2.dst, CFG)
        lhs = compose(compose(s1, s2), s3)
        rhs = compose(s1, compose(s2, s3))
        assert spans_isomorphic(lhs, rhs)
        assert spans_isomorphic(compose(identity_span(s1.src), s1), s1)
        assert spans_isomorphic(compose(s1, identity_span(s1.dst)), s1)
        count += 1


def test_component_inclusions_sum_to_the_transfer(triv, three_min):
    I = trivial_gset(triv, 2)
    tr = transfer_I(three_min, I)
    j0 = component_inclusion(three_min, I, 0)
    j1 = component_inclusion(three_min, I, 1)
    assert spans_isomorphic(hom_monoid_add(j0, j1), tr)
    p0 = component_projection(three_min, I, 0)
    assert spans_isomorphic(compose(j0, p0), identity_span(three_min))
    assert not spans_isomorphic(j0, j1)


def test_transfer_decomposition_with_nontrivial_action(c2):
    # I = (free C2 orbit) u (fixed point); removing the fixed point leaves
    # the free orbit, and the transfer decomposes accordingly
    from coarsehom.groups import disjoint_union_gsets, coset_gset, trivial_gset

    X = minimal_space(GSet(c2, 2, ((0, 1), (1, 0))))
    free = coset_gset(c2, frozenset([0]))
    fixed = trivial_gset(c2, 1)
    I, offs = disjoint_union_gsets([free, fixed])         # indices 0,1 swap; 2 fixed
    tr = transfer_I(X, I)
    Ifree = free
    W_free = bounded_union(Ifree, X)
    W_all = bounded_union(I, X)
    tr_free = transfer_I(X, Ifree)
    relabeled = make_span(
        X,
        W_free,
        W_all,
        tr_free.left,
        tuple(range(2 * X.size)),  # the free block sits first in I x X
    )
    j2 = component_inclusion(X, I, 2)
    assert spans_isomorphic(hom_monoid_add(relabeled, j2), tr)


def test_compose_rejects_endpoint_mismatch(triv, three_min, pt):
    with pytest.raises(ValidationError):
        compose(identity_span(three_min), identity_span(pt))
    with pytest.raises(ValidationError):
        hom_monoid_add(identity_span(three_min), identity_span(pt))
    with pytest.raises(ValidationError):
        spans_isomorphic(identity_span(three_min), identity_span(pt))


def test_zero_morphism_absorbs_composition(triv, three_min, pt):
    zero = Span(three_min, empty_space(triv), pt, (), ())
    s = embed((0, 0, 0), three_min, pt)
    left = compose(zero, identity_span(pt))
    assert left.apex.size == 0
    right = compose(identity_span(three_min), zero)
    assert right.apex.size == 0
    assert spans_isomorphic(left, zero)
