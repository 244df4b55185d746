"""Bounded coverings, admissible squares, pullbacks, and the span
category of transfers.

A span (W, w, f) from X to Y has a bounded covering as its left leg
and a controlled, proper and bornological right leg.  Generalized
morphisms are isomorphism classes of spans; composition pulls the
middle cospan back to an admissible square.  Equality of classes is
decided by an explicit equivariant isomorphism search on apexes.

Legs are validated once, where they enter: ``make_span``, ``transfer``
and ``embed`` check the maps they are given, and ``pullback`` checks its
cospan.  What is built from checked pieces is trusted, apart from the
self-checks that guard the constructions themselves (the pullback square
is admissible, the composite left leg is a covering); a failing
self-check raises InternalCheckError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InternalCheckError, OutOfScopeError, ValidationError
from .groups import GSet, fiber_product_gset, require_equivariant
from .spaces import (
    BornCoarseSpace,
    _blocks_to_blocks,
    _space_from_labels,
    bounded_union,
    compose_maps,
    coproduct,
    find_space_isomorphism,
    identity_map,
    map_predicates,
)
from .tape import TapeMap, TapeSpace, tape_map_predicates, tape_projection_is_bounded_covering


# -- covering validation -----------------------------------------------------


def is_bounded_coarse_covering(w, W: BornCoarseSpace, Z: BornCoarseSpace):
    """Conditions: (1) the induced structure restricted along pi_0(W)
    equals the structure of W; (2) every coarse component of W maps
    isomorphically onto a coarse component of Z.  Returns (ok, diagnostic);
    a map that is not controlled fails with its own diagnostic.

    On finite carriers condition 1 is controlledness.  The induced
    relation w^{-1}(C_Z), pairs with images in one block of Z, is already
    an equivalence relation, and the structure of W is its own component
    partition, so the restriction is w^{-1}(C_Z) cap C_W.  It equals C_W
    iff C_W lies in w^{-1}(C_Z), which is the controlled check.  A
    controlled map also sends each component into one block tb of Z; its
    images are distinct and fill tb iff they number |tb|.  Cost
    O(|G| |W| + |Z|), the equivariance check included.
    """
    controlled, _, _ = map_predicates(w, W, Z, "covering candidate")
    return _covering_verdict(controlled, w, W, Z)


def _covering_verdict(controlled, w, W: BornCoarseSpace, Z: BornCoarseSpace):
    """The verdict of ``is_bounded_coarse_covering`` for an equivariant
    map whose controlledness is already decided."""
    if not controlled:
        return False, "covering candidate is not controlled"
    zb = Z.coarse.block
    size = Counter(zb)
    for comp in W.components():
        images = [w[x] for x in comp]
        if len(set(images)) != len(images):
            dup = next(a for a in comp for b in comp if a < b and w[a] == w[b])
            return False, f"condition 2 fails: component {comp} not injective (witness point {dup})"
        if len(images) != size[zb[images[0]]]:
            return False, f"condition 2 fails: component {comp} does not cover its target component"
    return True, "bounded coarse covering"


def is_bounded_covering(w, W, Z):
    """Bounded covering check; returns (ok, diagnostic).

    Finite carriers: conditions 1 and 2 via the coarse covering check;
    bornologicity is trivial and condition 3 is automatic (a bounded set
    meets finitely many components, which give the partition), so it is
    verified structurally and skipped.  Tape sources: the symbolic
    projection check against the preset bounded family.
    """
    if isinstance(W, TapeSpace):
        if not isinstance(w, TapeMap):
            raise ValidationError("map from a tape space must be a TapeMap")
        if isinstance(Z, TapeSpace):
            is_ident = (
                w.kind == "shift"
                and w.shift == 0
                and tuple(w.fiber_images) == tuple(range(W.fiber.size))
                and W.fiber == Z.fiber
                and W.coarse_preset == Z.coarse_preset
            )
            if is_ident:
                # identity of the underlying coarse space with a possibly
                # shrunk bornology: conditions 1 and 2 are immediate, the
                # trivial partition settles condition 3, so the verdict is
                # just bornologicity
                _c, _p, born = tape_map_predicates(w)
                if born:
                    return True, "identity covering (bornology shrunk or equal)"
                return False, "identity candidate is not bornological"
            raise OutOfScopeError("tape-to-tape covering checks support identities only")
        return tape_projection_is_bounded_covering(w)
    ok, diag = is_bounded_coarse_covering(w, W, Z)
    if not ok:
        return ok, diag
    return True, diag + "; bornological (full bornologies); condition 3 automatic on finite carriers"


# -- spans -------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """A span (apex, left, right) from src to dst; left is a bounded
    covering, right is controlled, proper and bornological."""

    src: object
    apex: object
    dst: object
    left: object
    right: object

    def is_finite(self):
        return all(
            isinstance(s, BornCoarseSpace) for s in (self.src, self.apex, self.dst)
        )


def make_span(src, apex, dst, left, right):
    """A span from checked legs: left a bounded covering, right
    controlled, proper and bornological."""
    ok, diag = is_bounded_covering(left, apex, src)
    if not ok:
        raise ValidationError(f"left leg is not a bounded covering: {diag}")
    if isinstance(apex, TapeSpace):
        if not isinstance(right, TapeMap):
            raise ValidationError("map from a tape apex must be a TapeMap")
        c, p, b = tape_map_predicates(right)
    else:
        c, p, b = map_predicates(right, apex, dst)
    if not (c and p and b):
        raise ValidationError("right leg must be controlled, proper and bornological")
    return Span(src, apex, dst, left, right)


def identity_span(X):
    if isinstance(X, TapeSpace):
        ident = TapeMap("shift", X, X, tuple(range(X.fiber.size)), 0)
        return Span(X, X, X, ident, ident)
    ident = identity_map(X)
    return Span(X, X, X, ident, ident)


def embed(f, X, Y):
    """iota: a controlled proper map becomes the span (X^, id, f).

    On finite carriers the bornology replacement f^{-1}B is the full
    power set again, so the hat space is X itself.
    """
    if isinstance(X, TapeSpace) or isinstance(Y, TapeSpace):
        raise OutOfScopeError("embedding is implemented for finite carriers")
    controlled, proper, _ = map_predicates(f, X, Y)
    if not (controlled and proper):
        raise ValidationError("embed requires a controlled and proper map")
    # the identity is a bounded covering, and f was just checked
    return Span(X, X, Y, identity_map(X), tuple(f))


def transfer(w, W, X):
    """tr_w = [W, w, id]: X -> W for a validated bounded covering w."""
    ok, diag = is_bounded_covering(w, W, X)
    if not ok:
        raise ValidationError(f"transfer requires a bounded covering: {diag}")
    if isinstance(W, TapeSpace):
        ident = TapeMap("shift", W, W, tuple(range(W.fiber.size)), 0)
        return Span(X, W, W, w, ident)
    return Span(X, W, W, tuple(w), identity_map(W))


def projection_map(I: GSet, X: BornCoarseSpace):
    """Point (i, x) of I_min,min ox X has index i*X.size + x; project to x."""
    return tuple(idx % X.size for idx in range(I.size * X.size))


def transfer_I(X: BornCoarseSpace, I: GSet):
    """tr_{X,I}: X -> I_min,min ox X."""
    W = bounded_union(I, X)
    return transfer(projection_map(I, X), W, X)


def inclusion_at(X: BornCoarseSpace, I: GSet, i):
    """j_i: X -> I_min,min ox X for a G-fixed index i."""
    if any(I.action[g][i] != i for g in I.group.elements()):
        raise ValidationError("component inclusion needs a G-fixed index")
    return tuple(i * X.size + x for x in range(X.size))


def component_inclusion(X, I, i):
    """The morphism j_i as a generalized morphism (an embedded span)."""
    W = bounded_union(I, X)
    return embed(inclusion_at(X, I, i), X, W)


def component_projection(X, I, i):
    """p_i = [X, j_i, id]: I_min,min ox X -> X."""
    W = bounded_union(I, X)
    return make_span(W, X, X, inclusion_at(X, I, i), identity_map(X))


def fold_morphism(X, I: GSet):
    """rho: I_min,min ox X -> X for trivially acted I, as an embedded span."""
    W = bounded_union(I, X)
    return embed(projection_map(I, X), W, X)


# -- admissible squares and pullback ----------------------------------------


@dataclass(frozen=True)
class AdmissibleSquareCandidate:
    """The square with corners W (top left), U (top right), V (bottom
    left), Z (bottom right): f: W->U, w: W->V, g: V->Z, u: U->Z."""

    W: BornCoarseSpace
    U: BornCoarseSpace
    V: BornCoarseSpace
    Z: BornCoarseSpace
    f: tuple  # W -> U
    w: tuple  # W -> V
    g: tuple  # V -> Z
    u: tuple  # U -> Z


def pullback(g, V: BornCoarseSpace, u, U: BornCoarseSpace, Z: BornCoarseSpace):
    """Complete the cospan V -g-> Z <-u- U (g proper and bornological,
    u a bounded covering) to an admissible square.

    Returns (W, w, f): the fiber-product carrier {(v, x) | g(v) = u(x)}
    with the structure generated by w^{-1}(A) cap f^{-1}(B) and the
    bornology f^{-1}B_U (the full power set here).
    """
    controlled, proper, born = map_predicates(g, V, Z)
    if not (controlled and proper and born):
        raise ValidationError("pullback: g must be controlled, proper and bornological")
    ok, diag = is_bounded_covering(u, U, Z)
    if not ok:
        raise ValidationError(f"pullback: u is not a bounded covering: {diag}")

    # the fiber product of a checked cospan: its action is the restriction
    # of the diagonal one, and the intersection of two equivalence
    # relations is one, so it is a space by construction
    carrier, pts = fiber_product_gset(V.carrier, g, U.carrier, u)
    labels = tuple((V.coarse.block[v], U.coarse.block[x]) for (v, x) in pts)
    W = _space_from_labels(carrier, labels, "pullback")
    w = tuple(v for (v, x) in pts)
    f = tuple(x for (v, x) in pts)

    defect = _square_defect(AdmissibleSquareCandidate(W, U, V, Z, f, w, g, u))
    if defect:
        raise InternalCheckError(f"constructed pullback square is not admissible: {defect}")
    _require_covering_left_edge(is_bounded_covering(w, W, V))
    return W, w, f


def _square_defect(sq: AdmissibleSquareCandidate):
    """The square-shape part of admissibility, for a square whose maps are
    checked: returns the diagnostic of the first failing condition among
    commutation and cartesianness, or None.  When both hold, the left
    edge w is forced to be a bounded covering, which the callers check."""
    W, U, V = sq.W, sq.U, sq.V
    f, w, g, u = sq.f, sq.w, sq.g, sq.u
    for p in range(W.size):
        if g[w[p]] != u[f[p]]:
            return f"square does not commute at apex point {p}"

    # cartesian: the canonical comparison p -> (w(p), f(p)) must be an
    # isomorphism of G-coarse spaces onto the fiber product; it lands in
    # the fiber product because the square commutes
    over = Counter(u)
    fiber = sum(over[g[v]] for v in range(V.size))
    if fiber != W.size:
        return f"not cartesian: fiber product has {fiber} points, apex has {W.size}"
    seen = set()
    for p in range(W.size):
        if (w[p], f[p]) in seen:
            return f"not cartesian: comparison map fails at apex point {p}"
        seen.add((w[p], f[p]))
    # W carries the product structure iff its blocks and the pairs
    # (V-block, U-block) cut out the same partition, i.e. every point's
    # two classes begin at the same point; otherwise the earlier of the
    # two first points is related to p in exactly one of the structures
    first_w, first_vu = {}, {}
    for p in range(W.size):
        q = first_w.setdefault(W.coarse.block[p], p)
        r = first_vu.setdefault((V.coarse.block[w[p]], U.coarse.block[f[p]]), p)
        if q != r:
            return f"not cartesian: structure mismatch at pair ({min(q, r)},{p})"
    return None


def _require_covering_left_edge(verdict):
    """A non-covering left edge of a commuting cartesian square is a bug."""
    ok, diag = verdict
    if not ok:
        raise InternalCheckError(f"admissible square with non-covering left edge: {diag}")


def is_admissible(sq: AdmissibleSquareCandidate):
    """Check: the square commutes and is cartesian on underlying coarse
    spaces, g and f are proper and bornological, u is a bounded covering;
    cross-checks that the induced w is then a bounded covering.  Each map's
    equivariance is checked once, up front; the rest is read from block
    labels (finite maps are proper and bornological)."""
    W, U, V, Z = sq.W, sq.U, sq.V, sq.Z
    f, w, g, u = sq.f, sq.w, sq.g, sq.u
    require_equivariant(f, W.carrier, U.carrier, "square map f")
    require_equivariant(w, W.carrier, V.carrier, "square map w")
    require_equivariant(g, V.carrier, Z.carrier, "square map g")
    require_equivariant(u, U.carrier, Z.carrier, "square map u")

    if not _blocks_to_blocks(g, V, Z):
        return False, "g is not controlled+proper+bornological"
    if not _blocks_to_blocks(f, W, U):
        return False, "f is not controlled+proper+bornological"
    if not _blocks_to_blocks(w, W, V):
        return False, "w is not controlled"

    ok, diag = _covering_verdict(_blocks_to_blocks(u, U, Z), u, U, Z)
    if not ok:
        return False, f"u is not a bounded covering: {diag}"

    defect = _square_defect(sq)
    if defect:
        return False, defect
    _require_covering_left_edge(_covering_verdict(True, w, W, V))
    return True, "admissible"


# -- composition and the hom monoid -----------------------------------------


def compose(s1: Span, s2: Span):
    """Composite of spans s1: X -> Y and s2: Y -> Z, via the pullback of
    the middle cospan; returns the canonical representative span."""
    if s1.dst != s2.src:
        raise ValidationError("span endpoints do not match")
    if not (s1.is_finite() and s2.is_finite()):
        raise OutOfScopeError("span composition is implemented for finite carriers")
    P, wp, fp = pullback(s1.right, s1.apex, s2.left, s2.apex, s1.dst)
    left = compose_maps(wp, s1.left)
    right = compose_maps(fp, s2.right)
    ok, diag = is_bounded_covering(left, P, s1.src)
    if not ok:
        raise InternalCheckError(f"composite left leg not a covering: {diag}")
    # the composite of controlled maps is controlled
    return Span(s1.src, P, s2.dst, left, right)


def hom_monoid_add(s1: Span, s2: Span):
    """Sum in the hom commutative monoid: apex disjoint union, legs
    componentwise; the unit is the empty span."""
    if s1.src != s2.src or s1.dst != s2.dst:
        raise ValidationError("span endpoints do not match")
    if not (s1.is_finite() and s2.is_finite()):
        raise OutOfScopeError("hom-monoid sums are implemented for finite carriers")
    apex, offsets = coproduct([s1.apex, s2.apex])
    left = tuple(list(s1.left) + list(s2.left))
    right = tuple(list(s1.right) + list(s2.right))
    # a disjoint union of coverings is a covering, of controlled maps controlled
    return Span(s1.src, apex, s1.dst, left, right)


def spans_isomorphic(s1: Span, s2: Span):
    """Equality test of generalized morphisms: an equivariant structure
    preserving apex bijection commuting with both legs."""
    if s1.src != s2.src or s1.dst != s2.dst:
        raise ValidationError("span endpoints do not match")
    if isinstance(s1.apex, TapeSpace) or isinstance(s2.apex, TapeSpace):
        if not (isinstance(s1.apex, TapeSpace) and isinstance(s2.apex, TapeSpace)):
            return False
        a, b = s1.apex, s2.apex
        if (a.coarse_preset, a.born_preset) != (b.coarse_preset, b.born_preset):
            return False
        # preset-aware fiber comparison: fibers with commuting fiber legs
        la, ra = s1.left, s1.right
        lb, rb = s2.left, s2.right

        def fibleg(m):
            return tuple(m.fiber_images) if isinstance(m, TapeMap) else None

        def allowed(p, q):
            return fibleg(la)[p] == fibleg(lb)[q] and fibleg(ra)[p] == fibleg(rb)[q]

        return find_space_isomorphism(a.fiber, b.fiber, allowed) is not None

    def allowed(p, q):
        return s1.left[p] == s2.left[q] and s1.right[p] == s2.right[q]

    return find_space_isomorphism(s1.apex, s2.apex, allowed) is not None
