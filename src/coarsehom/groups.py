"""Finite groups by multiplication table, finite G-sets, subgroup
lattices with conjugacy data, separating families, and orbit categories.

Everything is index-based: group elements are 0..order-1, G-set points
are 0..size-1.  All values are immutable after construction.

Validation happens once, where outside data enters: the public
constructors ``Group(...)`` and ``GSet(...)`` (and, for documents, the
CLI's ``parse_workspace``).  G-sets derived from validated ones (cosets,
unions, products, fiber products) are valid by construction and are
built through ``_trusted``, which skips the validator; functions that
take raw arguments keep a cheap check on those.

Coset data is built once per (group, subgroup): the coset table
``_cosets`` and the G-set G/H of ``coset_gset`` are module-level
``lru_cache``s, cleared with the subgroup-lattice caches.  Double cosets
and orbit-category morphisms are read off them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from math import isqrt

from .errors import ValidationError

Subgroup = frozenset


def _trusted(cls, *values):
    """An instance of the frozen dataclass ``cls`` from its field values,
    built without running ``__post_init__``: only for objects that are
    valid by construction from validated ones.  Omitted trailing fields
    take their defaults."""
    obj = object.__new__(cls)
    for i, f in enumerate(fields(cls)):
        object.__setattr__(obj, f.name, values[i] if i < len(values) else f.default)
    return obj


@dataclass(frozen=True)
class Group:
    """A finite group given by a total multiplication table.

    ``table[a][b]`` is the product a*b.  The identity index, the inverse
    table and a generating set are derived and checked on construction.
    Associativity is checked on the generators only (Light's test): the
    b with (ab)c = a(bc) for all a and c contain the identity and are
    closed under products, so they contain every product of generators.
    """

    table: tuple
    name: str = "G"

    def __post_init__(self):
        n = len(self.table)
        if n == 0:
            raise ValidationError("group must be nonempty")
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise ValidationError("multiplication table is not square over 0..n-1")
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValidationError("no two-sided identity")
        object.__setattr__(self, "_identity", ident)
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == ident and self.table[b][a] == ident:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValidationError(f"element {a} has no inverse")
        object.__setattr__(self, "_inv", tuple(inv))
        object.__setattr__(self, "_hash", hash(self.table))
        # greedy generators in element order: the closure under right
        # multiplication by them is the whole table, associative or not
        gens, reached = [], {ident}
        for x in range(n):
            if x not in reached:
                gens.append(x)
                reached = _generate(reached, gens, self.mul)
        object.__setattr__(self, "_gens", tuple(gens))
        for s in gens:
            col = self.table[s]  # s*c for every c
            for a, row in enumerate(self.table):
                lhs, rhs = self.table[row[s]], tuple(map(row.__getitem__, col))
                if lhs != rhs:
                    c = next(c for c in range(n) if lhs[c] != rhs[c])
                    raise ValidationError(f"associativity fails at ({a},{s},{c})")

    @property
    def order(self):
        return len(self.table)

    @property
    def identity(self):
        return self._identity

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, g, a):
        """g * a * g^-1."""
        return self.table[self.table[g][a]][self._inv[g]]

    def elements(self):
        return range(self.order)

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"Group({self.name}, order={self.order})"

    def __eq__(self, other):
        return isinstance(other, Group) and self.table == other.table

    def __hash__(self):
        return self._hash


def _generate(start, gens, mul):
    """The closure of the elements ``start`` under right multiplication
    by ``gens``, found breadth first.  In a finite group every inverse is
    a positive power, so from the identity this is the subgroup <gens>,
    and from a subgroup generated by some of ``gens`` it is <gens>."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = mul(p, q)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return frozenset(seen)


def group_from_permutations(gens, name="G"):
    """Group generated by permutation tuples, elements sorted lexicographically
    (so the identity comes first)."""
    gens = [tuple(g) for g in gens]

    def compose(p, q):
        return tuple(p[i] for i in q)

    perms = sorted(_generate([tuple(range(len(gens[0])))], gens, compose))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    return Group(table, name=name)


def trivial_group():
    return Group(((0,),), name="1")


def cyclic_group(n):
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return Group(table, name=f"C{n}")


def klein_four_group():
    table = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    return Group(table, name="V4")


def dihedral_group(n):
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((-i) % n for i in range(n))
    return group_from_permutations([rot, refl], name=f"D{n}")


def symmetric_group(n):
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return group_from_permutations(gens or [(0,)], name=f"S{n}")


def alternating_group(n):
    gens = []
    for i in range(n - 2):
        p = list(range(n))
        p[i], p[i + 1], p[i + 2] = p[i + 1], p[i + 2], p[i]
        gens.append(tuple(p))
    return group_from_permutations(gens or [(0,)], name=f"A{n}")


GROUP_PRESETS = {
    "trivial": trivial_group,
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "C5": lambda: cyclic_group(5),
    "C6": lambda: cyclic_group(6),
    "V4": klein_four_group,
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "D4": lambda: dihedral_group(4),
    "A4": lambda: alternating_group(4),
    "A5": lambda: alternating_group(5),
}


@dataclass(frozen=True)
class GSet:
    """A finite set with a left action of a finite group.

    ``action[g][x]`` is g.x.  Validated to be a genuine action.  The
    transporter table ``transporters`` is built on first use and kept on
    the instance, outside the dataclass fields, so it takes no part in
    equality or hashing.
    """

    group: Group
    size: int
    action: tuple

    def __post_init__(self):
        G = self.group
        if len(self.action) != G.order:
            raise ValidationError("action table must have one row per group element")
        for row in self.action:
            if len(row) != self.size or any(not (0 <= x < self.size) for x in row):
                raise ValidationError("action row out of range")
        e = G.identity
        if self.action[e] != tuple(range(self.size)):
            raise ValidationError("identity does not act trivially")
        # g.(s.x) = (gs).x for the generators s gives it for every h by
        # induction on the length of h as a product of generators
        for s in G._gens:
            act_s = self.action[s]
            for g, act_g in enumerate(self.action):
                if tuple(map(act_g.__getitem__, act_s)) != self.action[G.mul(g, s)]:
                    raise ValidationError("action is not associative")

    def act(self, g, x):
        return self.action[g][x]

    def orbit(self, x):
        return frozenset(self.action[g][x] for g in self.group.elements())

    def orbits(self):
        """G-orbits as sorted tuples, ordered by minimal point."""
        seen = set()
        out = []
        for x in range(self.size):
            if x in seen:
                continue
            orb = sorted(self.orbit(x))
            seen.update(orb)
            out.append(tuple(orb))
        return out

    def stabilizer(self, x):
        return frozenset(g for g in self.group.elements() if self.action[g][x] == x)

    @cached_property
    def transporters(self):
        """The transporter table: per point x, the action rows of the g
        with g.x = min(G.x), in element order (a left coset of Stab(x)).
        Built once per G-set, on first use."""
        rows = self.action
        table = []
        for column in zip(*rows):  # column[g] = g.x
            m = min(column)
            table.append(tuple(row for row, gx in zip(rows, column) if gx == m))
        return tuple(table)

    def fixed_points(self, H):
        return [x for x in range(self.size) if all(self.action[g][x] == x for g in H)]

    def __repr__(self):
        return f"GSet(|{self.group.name}|={self.group.order}, size={self.size})"


def trivial_gset(group, size):
    if size < 0:
        raise ValidationError(f"a G-set cannot have negative size {size}")
    action = tuple(tuple(range(size)) for _ in group.elements())
    return _trusted(GSet, group, size, action)


@lru_cache(maxsize=None)
def _cosets(group, H):
    """The left cosets xH of the subgroup ``H`` (a frozenset) in the point
    order of ``coset_gset`` (by minimal element): (their minimal elements,
    the coset index of every element), both tuples.  Scanning in
    increasing order, the first element of a new coset is its minimum."""
    reps, where = [], [None] * group.order
    for x, row in enumerate(group.table):
        if where[x] is None:
            for h in H:
                where[row[h]] = len(reps)
            reps.append(x)
    return tuple(reps), tuple(where)


def _require_elements(group, H, what):
    """The cheap check of raw input before ``is_subgroup`` indexes it."""
    bad = [h for h in H if not (type(h) is int and 0 <= h < group.order)]
    if bad:
        raise ValidationError(f"{what}: {bad[0]!r} is not an element of the group")


def coset_gset(group, H):
    """The transitive G-set G/H, cosets ordered by minimal element.

    Built once per (group, subgroup).  The element check runs on every
    call, because {0, True} is the same cache key as {0, 1}; the subgroup
    check runs on every call that misses the cache, so a non-subgroup is
    rejected each time."""
    H = frozenset(H)
    _require_elements(group, H, "coset space")
    return _coset_space(group, H)


@lru_cache(maxsize=None)
def _coset_space(group, H):
    if not is_subgroup(group, H):
        raise ValidationError("coset space requires a subgroup")
    reps, where = _cosets(group, H)
    action = tuple(tuple(where[row[x]] for x in reps) for row in group.table)
    return _trusted(GSet, group, len(reps), action)


def coset_map(group, H, K, g):
    """Images of the map G/H -> G/K, xH -> xgK, on the coset indices of
    ``coset_gset`` (well defined when g^-1 H g <= K)."""
    reps, _ = _cosets(group, frozenset(H))
    _, where = _cosets(group, frozenset(K))
    table = group.table
    return tuple(where[table[x][g]] for x in reps)


def double_coset_representatives(group, K, H):
    """The least element of each double coset KgH, in increasing order.

    The double cosets are the K-orbits on the points of G/H.  Cosets are
    ordered by minimal element, so the first coset met in each orbit
    holds the least element of its double coset, and that coset's
    minimal element is it."""
    S = coset_gset(group, H)
    reps, _ = _cosets(group, frozenset(H))
    rows = [S.action[k] for k in K]
    seen = [False] * S.size
    out = []
    for p in range(S.size):
        if not seen[p]:
            out.append(reps[p])
            for row in rows:
                seen[row[p]] = True
    return out


def disjoint_union_gsets(parts):
    if not parts:
        raise ValidationError("need at least one part")
    G = parts[0].group
    if any(p.group != G for p in parts):
        raise ValidationError("group mismatch in disjoint union")
    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.size
    action = []
    for g in G.elements():
        row = []
        for p, off in zip(parts, offsets):
            row.extend(off + y for y in p.action[g])
        action.append(tuple(row))
    return _trusted(GSet, G, total, tuple(action)), offsets


def product_gset(a, b):
    """Cartesian product with diagonal action; point (x, y) has index x*b.size + y."""
    if a.group != b.group:
        raise ValidationError("group mismatch in product")
    G = a.group
    action = tuple(
        tuple(
            a.action[g][x] * b.size + b.action[g][y]
            for x in range(a.size)
            for y in range(b.size)
        )
        for g in G.elements()
    )
    return _trusted(GSet, G, a.size * b.size, action)


def fiber_product_gset(A, a, B, b):
    """The G-set {(x, y) | a(x) = b(y)} of two equivariant maps into one
    G-set, with the diagonal action; returns it with its points (x, y)
    in lexicographic order.  The legs must already be known equivariant."""
    fibers, rank = {}, []  # fibers[t]: the y with b(y) = t, increasing
    for y, t in enumerate(b):
        ys = fibers.setdefault(t, [])
        rank.append(len(ys))  # rank[y]: the position of y in its fiber
        ys.append(y)
    pts, start = [], []  # start[x]: the index of the first point (x, _)
    for x, t in enumerate(a):
        start.append(len(pts))
        pts.extend((x, y) for y in fibers.get(t, ()))
    # g.(x, y) = (g.x, g.y) lies in the fiber of x' = g.x, at rank[g.y]
    action = tuple(
        tuple(start[rowA[x]] + rank[rowB[y]] for x, y in pts)
        for rowA, rowB in zip(A.action, B.action)
    )
    return _trusted(GSet, A.group, len(pts), action), pts


def is_equivariant(f, src: GSet, dst: GSet):
    """Does g.f(x) = f(g.x) hold for every g and x?  Compared row by row:
    per g, the images (g.f(x))_x against (f(g.x))_x.  Length and range
    come first, so a negative image cannot index from the end."""
    if len(f) != src.size or (f and not (0 <= min(f) and max(f) < dst.size)):
        return False
    for g in src.group.elements():
        row = dst.action[g]
        if [row[y] for y in f] != [f[x] for x in src.action[g]]:
            return False
    return True


def require_equivariant(f, src, dst, what="map"):
    if src.group != dst.group:
        raise ValidationError(f"{what}: group mismatch")
    if not is_equivariant(f, src, dst):
        raise ValidationError(f"{what} is not equivariant")


# -- subgroup lattice ------------------------------------------------------


def subgroup_key(H):
    return (len(H), tuple(sorted(H)))


@lru_cache(maxsize=None)
def all_subgroups(group):
    """Every subgroup, sorted by order then element list.

    Cyclic extension: starting from the trivial subgroup, each new
    subgroup H is extended by one element g outside it, closing H under
    its generators and g.  Since <H, g> = <H, gh> for h in H, one g per
    left coset gH suffices.
    """
    trivial = frozenset([group.identity])
    gens_of = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in _cosets(group, H)[0]:
                if g in H:
                    continue
                gens = gens_of[H] + (g,)
                K = _generate(H, gens, group.mul)
                if K not in gens_of:
                    gens_of[K] = gens
                    nxt.append(K)
        frontier = nxt
    return tuple(sorted(gens_of, key=subgroup_key))


def conjugate_subgroup(group, g, H):
    return frozenset(group.conj(g, h) for h in H)


@lru_cache(maxsize=None)
def conjugacy_classes_of_subgroups(group):
    """Classes as tuples of subgroups; each class sorted, classes sorted by
    their representative (smallest member under subgroup_key)."""
    remaining = set(all_subgroups(group))
    classes = []
    while remaining:
        H = min(remaining, key=subgroup_key)
        cls = {conjugate_subgroup(group, g, H) for g in group.elements()}
        remaining -= cls
        classes.append(tuple(sorted(cls, key=subgroup_key)))
    classes.sort(key=lambda cls: subgroup_key(cls[0]))
    return tuple(classes)


def subgroup_class_representatives(group):
    return [cls[0] for cls in conjugacy_classes_of_subgroups(group)]


def is_subgroup(group, H):
    H = frozenset(H)
    if group.identity not in H:
        return False
    return all(group.mul(a, b) in H and group.inv(a) in H for a in H for b in H)


def is_normal_in(group, H, K):
    """H normal in K (both subgroups of group, H <= K assumed)."""
    return all(conjugate_subgroup(group, k, H) == H for k in K)


def commutator_subgroup(group, H):
    comms = {
        group.mul(group.mul(a, b), group.inv(group.mul(b, a))) for a in H for b in H
    }
    return _generate([group.identity], comms, group.mul)


def is_solvable_subgroup(group, H):
    cur = frozenset(H)
    while len(cur) > 1:
        nxt = commutator_subgroup(group, cur)
        if nxt == cur:
            return False
        cur = nxt
    return True


@dataclass(frozen=True)
class SubgroupFamily:
    """A set of subgroups closed under conjugation and under subgroups."""

    group: Group
    members: frozenset
    name: str = "F"

    def __post_init__(self):
        for H in self.members:
            if not is_subgroup(self.group, H):
                raise ValidationError("family member is not a subgroup")
        if not self.members:
            raise ValidationError("a family must be nonempty")
        for H in self.members:
            for g in self.group.elements():
                if conjugate_subgroup(self.group, g, H) not in self.members:
                    raise ValidationError("family not closed under conjugation")
        for H in self.members:
            for K in all_subgroups(self.group):
                if K <= H and K not in self.members:
                    raise ValidationError("family not closed under subgroups")

    def __contains__(self, H):
        return frozenset(H) in self.members

    def class_representatives(self):
        return [
            cls[0]
            for cls in conjugacy_classes_of_subgroups(self.group)
            if cls[0] in self.members
        ]


def family_all(group):
    return SubgroupFamily(group, frozenset(all_subgroups(group)), name="all")


def family_trivial(group):
    return SubgroupFamily(group, frozenset([frozenset([group.identity])]), name="triv")


def family_solvable(group):
    members = frozenset(
        H for H in all_subgroups(group) if is_solvable_subgroup(group, H)
    )
    return SubgroupFamily(group, members, name="sol")


def family_generated_by(group, seeds, name="F"):
    """Smallest family containing the given subgroups."""
    members = set()
    for H in seeds:
        H = frozenset(H)
        _require_elements(group, H, "family seed")
        if not is_subgroup(group, H):
            raise ValidationError("seed is not a subgroup")
        for g in group.elements():
            C = conjugate_subgroup(group, g, H)
            for K in all_subgroups(group):
                if K <= C:
                    members.add(K)
    return SubgroupFamily(group, frozenset(members), name=name)


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, isqrt(n) + 1))


def is_separating(group, family: SubgroupFamily):
    """True iff for every H normal in K with K/H of prime order,
    H and K lie on the same side of the family."""
    if family.group != group:
        raise ValidationError("family belongs to a different group")
    subs = all_subgroups(group)
    for K in subs:
        for H in subs:
            if not (H < K) or not _is_prime(len(K) // len(H)):
                continue
            if not is_normal_in(group, H, K):
                continue
            if (H in family.members) != (K in family.members):
                return False
    return True


# -- orbit category --------------------------------------------------------


@dataclass(frozen=True)
class OrbitMorphism:
    """An equivariant map G/H -> G/K, stored by images of coset indices."""

    src: int
    dst: int
    images: tuple


@dataclass(frozen=True)
class OrbitCategory:
    """The full subcategory of transitive G-sets with stabilizers in a family.

    Objects are G/H for conjugacy class representatives H; hom-sets are
    complete lists of equivariant maps.
    """

    group: Group
    subgroups: tuple
    objects: tuple  # GSet per object
    homs: dict = field(compare=False)  # (i, j) -> tuple of OrbitMorphism

    def all_morphisms(self):
        n = len(self.objects)
        for i in range(n):
            for j in range(n):
                yield from self.homs[(i, j)]


def orbit_category(group, family):
    """Or_F(G) on class representatives.  A map G/H -> G/K is determined
    by the image p = gK of the coset H, which must be an H-fixed point
    (g^-1 H g <= K); then xH -> x.p.  So Hom(G/H, G/K) has one map per
    point of (G/K)^H: one g per coset gK."""
    reps = family.class_representatives()
    objects = tuple(coset_gset(group, H) for H in reps)
    homs = {}
    for i, H in enumerate(reps):
        xs = _cosets(group, H)[0]
        for j, T in enumerate(objects):
            maps = sorted(tuple(T.action[x][p] for x in xs) for p in T.fixed_points(H))
            homs[(i, j)] = tuple(OrbitMorphism(i, j, m) for m in maps)
    return OrbitCategory(group, tuple(reps), objects, homs)
