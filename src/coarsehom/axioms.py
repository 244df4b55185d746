"""Axiom checkers for the homology theory: excision for equivariant
complementary pairs, coarse invariance, u-continuity, additivity for
coproducts, weak transfers, and strong additivity for free unions.

A complementary pair here is the operational form imported with the
homology axioms: an increasing equivariant family (Y_i) of invariant
subsets together with an invariant subset Z such that Z cup Y_i = X
for some i.  Flasqueness is witness-based and lives in the tape module
(finite nonempty spaces are never flasque).
"""

from __future__ import annotations

from .errors import InternalCheckError, ValidationError
from .groups import GSet, _trusted
from .snf import AbHom, direct_sum
from .spaces import (
    BornCoarseSpace,
    _space_from_labels,
    bounded_union,
    coproduct,
    free_union_family,
    make_space,
    maximal_space,
    tensor,
    trivial_gset,
)
from .spans import inclusion_at, projection_map
from .homology import (
    chain_map_commutes,
    homology_map_from_chain_cols,
    hom_is_identity,
    pullback_chain_cols,
    pushforward_chain_cols,
    scols_mul,
    space_complex,
)


def is_invariant_subset(X: BornCoarseSpace, A):
    A = set(A)
    return all(X.carrier.act(g, a) in A for g in X.group.elements() for a in A)


def subspace(X: BornCoarseSpace, A):
    """The invariant subset A with the induced structure; returns the
    space and the inclusion point map (subspace index -> X index)."""
    if not is_invariant_subset(X, A):
        raise ValidationError("subset is not G-invariant")
    pts = sorted(A)
    pos = {p: k for k, p in enumerate(pts)}
    action = tuple(
        tuple(pos[X.carrier.act(g, p)] for p in pts) for g in X.group.elements()
    )
    carrier = _trusted(GSet, X.group, len(pts), action)
    block = [X.coarse.block[p] for p in pts]
    # an invariant structure restricted to an invariant subset stays invariant
    return _space_from_labels(carrier, block, f"{X.name}|A"), tuple(pts)


def validate_complementary_pair(X, Z, Ys):
    """Z invariant, (Y_i) an equivariant big family, and Z cup Y_i = X
    for some member.

    A big family is increasing and absorbs thickenings: for every member
    and every structure entourage U there is a member containing the
    U-thickening; over a finite carrier this says the coarse closure of
    each member lies in a later member (so the top member is coarsely
    closed)."""
    from .spaces import coarse_closure

    if not is_invariant_subset(X, Z):
        raise ValidationError("Z is not invariant")
    prev = set()
    for Y in Ys:
        Y = set(Y)
        if not is_invariant_subset(X, Y):
            raise ValidationError("a family member is not invariant")
        if not prev <= Y:
            raise ValidationError("the family is not increasing")
        prev = Y
    if not Ys:
        raise ValidationError("the family is empty")
    top = set(Ys[-1])
    for Y in Ys:
        if not set(coarse_closure(X, Y)) <= top:
            raise ValidationError("the family does not absorb thickenings (not a big family)")
    if not any(set(Z) | set(Y) == set(range(X.size)) for Y in Ys):
        raise ValidationError("Z and the family never cover X: not a complementary pair")


def check_excision(X: BornCoarseSpace, Z, Ys, maxdeg=2):
    """The inclusion (Z, Z cap Y) -> (X, Y) induces an isomorphism of
    relative homology; Y is the stabilized member of the big family.

    Y is coarsely closed, and a chain lives on one coarse component, so
    the relative complex of (X, Y) is the complex of the subspace X - Y,
    and that of (Z, Z cap Y) the complex of Z - Y.  Since Z cup Y = X the
    two complements coincide and share one cached complex."""
    validate_complementary_pair(X, Z, Ys)
    Y = set(Ys[-1])
    Zspace, z_incl = subspace(X, Z)
    A, a_incl = subspace(Zspace, [k for k, p in enumerate(z_incl) if p not in Y])
    B, b_incl = subspace(X, [p for p in range(X.size) if p not in Y])
    pos = {p: k for k, p in enumerate(b_incl)}
    incl = tuple(pos[z_incl[k]] for k in a_incl)
    cxA, cxB = space_complex(A, maxdeg), space_complex(B, maxdeg)
    cols = [pushforward_chain_cols(incl, A, B, cxA, cxB, n) for n in range(maxdeg + 2)]
    if not chain_map_commutes(cols, cxA, cxB, maxdeg + 1):
        raise InternalCheckError("relative inclusion does not commute with the differential")
    verdicts = [
        homology_map_from_chain_cols(cols[n], cxA, cxB, n).is_isomorphism()
        for n in range(maxdeg + 1)
    ]
    return all(verdicts), verdicts


def two_point_max_space(group):
    return maximal_space(trivial_gset(group, 2), name="{0,1}_max,max")


def check_coarse_invariance(X: BornCoarseSpace, maxdeg=2):
    """The projection {0,1}_max,max ox X -> X induces an isomorphism."""
    D = two_point_max_space(X.group)
    Y = tensor(D, X)
    proj = tuple(idx % X.size for idx in range(Y.size))
    cxY = space_complex(Y, maxdeg)
    cxX = space_complex(X, maxdeg)
    cols = [
        pushforward_chain_cols(proj, Y, X, cxY, cxX, n) for n in range(maxdeg + 2)
    ]
    if not chain_map_commutes(cols, cxY, cxX, maxdeg + 1):
        raise InternalCheckError("projection chain map does not commute with the differential")
    verdicts = [
        homology_map_from_chain_cols(cols[n], cxY, cxX, n).is_isomorphism()
        for n in range(maxdeg + 1)
    ]
    return all(verdicts), verdicts


def check_u_continuity(X: BornCoarseSpace, maxdeg=2):
    """H(X) is the direct limit of H(X_U) over the invariant entourage
    filtration, computed as stabilization of the generator filtration.
    Returns (ok, stabilization index)."""
    gens = list(X.coarse.generators) or [X.coarse.closure_entourage()]
    stages = []
    for k in range(len(gens) + 1):
        stages.append(make_space(X.carrier, gens[:k], name=f"{X.name}_U{k}"))
    if stages[-1].coarse != X.coarse:
        raise InternalCheckError("generator filtration does not reach the structure")
    cxX = space_complex(X, maxdeg)
    ident = tuple(range(X.size))
    iso_from = None
    for k, Xk in enumerate(stages):
        cxK = space_complex(Xk, maxdeg)
        if all(
            homology_map_from_chain_cols(
                pushforward_chain_cols(ident, Xk, X, cxK, cxX, n), cxK, cxX, n
            ).is_isomorphism()
            for n in range(maxdeg + 1)
        ):
            if iso_from is None:
                iso_from = k
        else:
            iso_from = None
    ok = iso_from is not None
    return ok, iso_from


def check_weak_transfers(X: BornCoarseSpace, I: GSet, maxdeg=2):
    """p^ex_j o tr_I = id for every fixed j: the free-union transfer at
    chain level followed by the excision projection onto a component.

    I must be finite with trivial action; for finite index sets the free
    union carries the bounded union's structure.
    """
    if any(I.action[g] != tuple(range(I.size)) for g in I.group.elements()):
        raise ValidationError("weak transfers are stated for trivially acted index sets")
    if I.size == 0:
        raise ValidationError("the index set must be nonempty")
    W = bounded_union(I, X)
    cxX = space_complex(X, maxdeg)
    cxW = space_complex(W, maxdeg)
    tr_cols = [
        pullback_chain_cols(projection_map(I, X), W, X, cxW, cxX, n)
        for n in range(maxdeg + 1)
    ]
    for j in range(I.size):
        # p^ex_j restricts chains to copy j: the pullback along its inclusion
        incl = inclusion_at(X, I, j)
        for n in range(maxdeg + 1):
            comp = scols_mul(pullback_chain_cols(incl, X, W, cxX, cxW, n), tr_cols[n])
            if not hom_is_identity(homology_map_from_chain_cols(comp, cxX, cxX, n)):
                return False
    return True


def check_additivity(parts, maxdeg=2):
    """The inclusions induce an isomorphism from the direct sum of the
    parts' homology onto the homology of the coproduct."""
    X, offsets = coproduct(parts)
    cxX = space_complex(X, maxdeg)
    cxs = [space_complex(p, maxdeg) for p in parts]
    for n in range(maxdeg + 1):
        homs = []
        for p, off, cx in zip(parts, offsets, cxs):
            incl = tuple(off + x for x in range(p.size))
            cols = pushforward_chain_cols(incl, p, X, cx, cxX, n)
            homs.append(homology_map_from_chain_cols(cols, cx, cxX, n))
        hX = cxX.homology_data(n).group
        # side by side: the sum of the inclusions on the direct sum
        matrix = [[x for h in homs for x in h.matrix[i]] for i in range(hX.ngens)]
        if not AbHom(direct_sum([h.src for h in homs]), hX, matrix).is_isomorphism():
            return False
    return True


def check_strong_additivity(parts, maxdeg=2):
    """The restriction spans p_j^free assemble to an isomorphism from
    the homology of the free union onto the product of the parts'."""
    X, offsets = free_union_family(parts)
    cxX = space_complex(X, maxdeg)
    cxs = [space_complex(p, maxdeg) for p in parts]
    for n in range(maxdeg + 1):
        homs = []
        for p, off, cx in zip(parts, offsets, cxs):
            incl = tuple(off + x for x in range(p.size))
            # p_j^free acts by the transfer along the component inclusion:
            # restriction of chains to the block
            cols = pullback_chain_cols(incl, p, X, cx, cxX, n)
            homs.append(homology_map_from_chain_cols(cols, cxX, cx, n))
        # stacked: the product of the restrictions
        matrix = [row for h in homs for row in h.matrix]
        hX = cxX.homology_data(n).group
        if not AbHom(hX, direct_sum([h.dst for h in homs]), matrix).is_isomorphism():
            return False
    return True
