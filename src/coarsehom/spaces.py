"""G-bornological coarse spaces over finite carriers.

A coarse structure on a finite carrier is an ideal of subsets of W x W
closed under subsets, unions, inverses and composition, containing the
diagonal; it is determined by its largest member, an equivalence
relation, stored here as a partition of the carrier.  Bornologies on
finite carriers are forced to the full power set (a bornology covers
the carrier and is closed under finite unions), so properness and
bornologicity are trivially true for maps between finite spaces; the
predicates still run uniformly.

Entourages are plain frozensets of index pairs, checked against the
carrier size; they appear only where a user hands one in (``make_space``
generators, ``contains``).  Predicates (controlledness, the covering
conditions, isomorphism of spaces) read the block labels instead, in
O(|G| n) for a carrier of n points, and the constructors build block
labels.

``BornCoarseSpace(...)`` validates its arguments; spaces built here from
validated G-sets and checked generators or block labels are valid by
construction and skip that validator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import ValidationError
from .groups import (
    GSet,
    _trusted,
    disjoint_union_gsets,
    product_gset,
    require_equivariant,
    trivial_gset,
)


def _check_pairs(U, size):
    for a, b in U:
        if not (0 <= a < size and 0 <= b < size):
            raise ValidationError(f"entourage: pair ({a},{b}) outside carrier of size {size}")


def is_invariant_entourage(U, gset: GSet):
    act = gset.action
    return all((act[g][a], act[g][b]) in U for g in gset.group.elements() for (a, b) in U)


def _partition_from_relation(size, pairs):
    """A block label per point for the equivalence closure of the
    reflexive-symmetric hull (its union-find root)."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return tuple(find(x) for x in range(size))


@dataclass(frozen=True)
class CoarseStructure:
    """Generated coarse structure on a finite carrier.

    ``block[x]`` is the coarse component label of x.  Any hashable labels
    may be passed; they are renumbered 0, 1, ... in order of first
    appearance, so two structures are equal iff their closures
    (partitions) agree.
    """

    size: int
    block: tuple
    generators: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if len(self.block) != self.size:
            raise ValidationError(
                f"{len(self.block)} block labels for a carrier of size {self.size}"
            )
        number = {}
        block = tuple(number.setdefault(b, len(number)) for b in self.block)
        object.__setattr__(self, "block", block)

    def related(self, a, b):
        return self.block[a] == self.block[b]

    def closure_entourage(self):
        return frozenset(
            (a, b)
            for a in range(self.size)
            for b in range(self.size)
            if self.block[a] == self.block[b]
        )

    def contains(self, U):
        """Membership test: U is an entourage iff U lies inside the closure."""
        _check_pairs(U, self.size)
        return all(self.block[a] == self.block[b] for (a, b) in U)

    def components(self):
        """Blocks as sorted tuples, ordered by minimal point."""
        out = {}
        for x in range(self.size):
            out.setdefault(self.block[x], []).append(x)
        return [tuple(v) for v in out.values()]  # labels are numbered by least point


def generate_structure(gens, gset: GSet):
    """Smallest coarse structure containing the given invariant entourages."""
    gens = tuple(frozenset(U) for U in gens)
    for U in gens:
        _check_pairs(U, gset.size)
        if not is_invariant_entourage(U, gset):
            raise ValidationError("generator is not G-invariant")
    block = _partition_from_relation(gset.size, (p for U in gens for p in U))
    return CoarseStructure(gset.size, block, generators=gens)


@dataclass(frozen=True)
class BornCoarseSpace:
    """A finite G-bornological coarse space; the bornology is the full
    power set (forced, see module docstring)."""

    carrier: GSet
    coarse: CoarseStructure
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.coarse.size != self.carrier.size:
            raise ValidationError("coarse structure size does not match carrier")
        # the partition must be G-invariant: every g maps blocks into
        # blocks; checking every g covers g^-1 too, so g also preserves
        # unrelatedness
        if not all(_blocks_to_blocks(row, self, self) for row in self.carrier.action):
            raise ValidationError("coarse structure is not G-invariant")

    @property
    def group(self):
        return self.carrier.group

    @property
    def size(self):
        return self.carrier.size

    def is_finite(self):
        return True

    def components(self):
        return self.coarse.components()

    def __repr__(self):
        nm = self.name or "X"
        return f"Space({nm}, {self.size} pts, {len(self.components())} comps)"


def _space_from_labels(carrier, labels, name):
    """The space on a validated carrier whose blocks are the classes of
    ``labels``; the caller guarantees the partition is invariant."""
    return _trusted(BornCoarseSpace, carrier, CoarseStructure(carrier.size, labels), name)


def make_space(gset, generators=(), name=""):
    # generate_structure checks every generator's invariance, and the
    # equivalence closure of invariant relations is invariant
    return _trusted(BornCoarseSpace, gset, generate_structure(generators, gset), name)


def minimal_space(gset, name=""):
    return make_space(gset, (), name=name)


def maximal_space(gset, name=""):
    return _space_from_labels(gset, (0,) * gset.size, name)


def point_space(group):
    return minimal_space(trivial_gset(group, 1), name="pt")


def empty_space(group):
    return minimal_space(trivial_gset(group, 0), name="empty")


def components_gset(X: BornCoarseSpace):
    """pi_0(X) as a G-set together with the block label of each point."""
    comps = X.components()
    label = X.coarse.block  # canonical labels number the components in order
    firsts = [comp[0] for comp in comps]
    act = tuple(tuple(label[row[x]] for x in firsts) for row in X.carrier.action)
    return _trusted(GSet, X.group, len(comps), act), label


def coarse_closure(X: BornCoarseSpace, A):
    """[A]: union of the coarse components meeting A."""
    A = set(A)
    blocks = {X.coarse.block[a] for a in A}
    return frozenset(x for x in range(X.size) if X.coarse.block[x] in blocks)


def is_equivariant_partition(parts, gset: GSet):
    seen = set()
    for p in parts:
        if seen & set(p):
            return False
        seen.update(p)
    if seen != set(range(gset.size)):
        return False
    as_sets = {frozenset(p) for p in parts}
    return all(
        frozenset(gset.action[g][x] for x in p) in as_sets
        for g in gset.group.elements()
        for p in as_sets
    )


def restrict_by_partition(X: BornCoarseSpace, parts):
    """The structure generated by the intersections of structure entourages
    with the block entourage of an equivariant partition: the blocks of X
    cut by the parts."""
    if not is_equivariant_partition(parts, X.carrier):
        raise ValidationError("partition is not equivariant")
    part = {x: k for k, p in enumerate(parts) for x in p}
    return CoarseStructure(X.size, tuple((b, part[x]) for x, b in enumerate(X.coarse.block)))


def induced_structure(w, src_gset: GSet, target: BornCoarseSpace):
    """w^{-1} C: the maximal coarse structure on the source making w
    controlled; a point's block is the target block of its image."""
    require_equivariant(w, src_gset, target.carrier, "induced_structure map")
    return CoarseStructure(src_gset.size, tuple(map(target.coarse.block.__getitem__, w)))


def tensor(X: BornCoarseSpace, Y: BornCoarseSpace, name=""):
    """Product carrier; entourages generated by products of entourages, so
    the block of (x, y) is the pair of their blocks.  Point (x, y) has
    index x * Y.size + y."""
    if X.group != Y.group:
        raise ValidationError("tensor: group mismatch")
    gset = product_gset(X.carrier, Y.carrier)
    labels = [(a, b) for a in X.coarse.block for b in Y.coarse.block]
    return _space_from_labels(gset, labels, name or f"({X.name})x({Y.name})")


def coproduct(parts, name=""):
    """Disjoint union with blockwise structure; returns (space, offsets)."""
    if not parts:
        raise ValidationError("coproduct of an empty list; pass the group's empty space")
    if any(p.group != parts[0].group for p in parts):
        raise ValidationError("coproduct: group mismatch")
    gset, offsets = disjoint_union_gsets([p.carrier for p in parts])
    labels = [(k, b) for k, p in enumerate(parts) for b in p.coarse.block]
    return _space_from_labels(gset, labels, name), offsets


def min_space_of_gset(I: GSet, name=""):
    return minimal_space(I, name=name or "I_min,min")


def bounded_union(I: GSet, X: BornCoarseSpace, name=""):
    """The bounded union of I copies of X: I_min,min tensor X."""
    return tensor(min_space_of_gset(I), X, name=name or "bd_union")


def free_union_copies(I: GSet, X: BornCoarseSpace, name=""):
    """Free union of I copies of X; requires finite orbits (automatic here).

    The structure is generated by blockwise families (U_i); over a finite
    index set the closure coincides with the bounded union's closure.
    """
    return tensor(min_space_of_gset(I), X, name=name or "free_union")


def free_union_family(parts, name=""):
    """Free union of a finite family over a trivially-acted index set."""
    return coproduct(parts, name=name or "free_union")


def _blocks_to_blocks(f, X: BornCoarseSpace, Y: BornCoarseSpace):
    """Whether the X-block of x determines the Y-block of f(x): there are
    as many (X-block, Y-block) pairs as X-blocks."""
    xb = X.coarse.block
    return len(set(zip(xb, map(Y.coarse.block.__getitem__, f)))) == len(set(xb))


def map_predicates(f, X: BornCoarseSpace, Y: BornCoarseSpace, what="map"):
    """(controlled, proper, bornological) for a finite-carrier map; ``what``
    labels the equivariance error.  f is controlled iff it maps blocks
    to blocks."""
    require_equivariant(f, X.carrier, Y.carrier, what)
    return _blocks_to_blocks(f, X, Y), True, True


def identity_map(X):
    return tuple(range(X.size))


def compose_maps(f, g):
    """g after f."""
    return tuple(g[x] for x in f)


# -- isomorphism search ----------------------------------------------------


def _point_invariants(space):
    """Per point: (component size, orbit size, stabilizer order)."""
    comp = Counter(space.coarse.block)
    order = space.group.order
    orbits = map(set, zip(*space.carrier.action))  # G.x, point by point
    return [(comp[b], len(o), order // len(o)) for b, o in zip(space.coarse.block, orbits)]


def find_space_isomorphism(X: BornCoarseSpace, Y: BornCoarseSpace, allowed=None):
    """Search for an equivariant bijection X -> Y preserving the coarse
    structure; ``allowed(p, q)`` can veto images pointwise (used by span
    isomorphism to pin down leg compatibility).  Returns the bijection
    as a tuple, or None.

    Complete backtracking over orbit representatives, with candidates
    pruned by the invariants (component size, orbit size, stabilizer
    order), each computed once per space; carriers in intended use have
    at most 64 points.  A consistent orbit image is a bijection of orbits
    because the orbit sizes agree.  A full assignment is accepted when it
    maps blocks to blocks well-definedly in both directions.
    """
    if X.group != Y.group or X.size != Y.size:
        return None
    if sorted(Counter(X.coarse.block).values()) != sorted(Counter(Y.coarse.block).values()):
        return None

    inv_x = _point_invariants(X)
    inv_y = {}
    for y, key in enumerate(_point_invariants(Y)):
        inv_y.setdefault(key, []).append(y)

    rows = tuple(zip(X.carrier.action, Y.carrier.action))
    orbits = X.carrier.orbits()
    phi = [None] * X.size
    used = [False] * Y.size

    def orbit_image(rep, q):
        """g.rep -> g.q as a dict, or None if that is not well defined."""
        images = {}
        for row_x, row_y in rows:
            if images.setdefault(row_x[rep], row_y[q]) != row_y[q]:
                return None
        return images

    def assign_orbit(k):
        if k == len(orbits):
            # X and Y have equally many blocks, so a bijection mapping
            # blocks to blocks maps them onto blocks
            return tuple(phi) if _blocks_to_blocks(phi, X, Y) else None
        rep = orbits[k][0]
        for q in inv_y.get(inv_x[rep], []):
            if used[q]:
                continue
            if allowed is not None and not allowed(rep, q):
                continue
            images = orbit_image(rep, q)
            if images is None or any(used[v] for v in images.values()):
                continue
            if allowed is not None and any(not allowed(p, v) for p, v in images.items()):
                continue
            for p, v in images.items():
                phi[p] = v
                used[v] = True
            res = assign_orbit(k + 1)
            if res is not None:
                return res
            for p, v in images.items():
                phi[p] = None
                used[v] = False
        return None

    return assign_orbit(0)


def spaces_isomorphic(X, Y):
    return find_space_isomorphism(X, Y) is not None
