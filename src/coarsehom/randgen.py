"""Seeded random generators for fuzzing: spaces, coverings, controlled
maps, spans, cospans, Burnside spans and complementary pairs.

The generator grammar is fixed so failures reproduce from the seed:
groups come from a small catalog; carriers are disjoint unions of coset
orbits capped at ``max_points``; coarse structures are generated by
random invariant symmetric pairs, rejecting merges that would push a
coarse component above ``max_component`` points.  Every finite bounded
covering is isomorphic to a block-indexed one (relabel apex points by
their image), so coverings are drawn in that normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .groups import (
    GSet,
    all_subgroups,
    coset_gset,
    cyclic_group,
    disjoint_union_gsets,
    klein_four_group,
    subgroup_class_representatives,
    symmetric_group,
    trivial_group,
    trivial_gset,
)
from .spaces import (
    BornCoarseSpace,
    _partition_from_relation,
    _space_from_labels,
    coproduct,
    empty_space,
    make_space,
)
from .spans import make_span
from .axioms import subspace


@dataclass(frozen=True)
class FuzzConfig:
    max_points: int = 8
    max_component: int = 3
    max_copies: int = 2


# ``random_space`` draws about DENSITY * 2 * n candidate pairs on n points
DENSITY = 0.35


GROUP_CATALOG = (
    trivial_group,
    lambda: cyclic_group(2),
    lambda: cyclic_group(3),
    lambda: cyclic_group(4),
    klein_four_group,
    lambda: symmetric_group(3),
)


def random_group(rng: Random):
    return GROUP_CATALOG[rng.randrange(len(GROUP_CATALOG))]()


def random_gset(rng: Random, group, max_points):
    """A disjoint union of coset orbits with at most max_points points."""
    reps = subgroup_class_representatives(group)
    parts = []
    total = 0
    while True:
        candidates = [H for H in reps if group.order // len(H) <= max_points - total]
        if not candidates or (parts and rng.random() < 0.4):
            break
        H = candidates[rng.randrange(len(candidates))]
        parts.append(coset_gset(group, H))
        total += parts[-1].size
        if total >= max_points:
            break
    if not parts:
        return trivial_gset(group, 1)
    gs, _ = disjoint_union_gsets(parts)
    return gs


def _invariant_pair_orbit(gs: GSet, a, b):
    out = set()
    for g in gs.group.elements():
        x, y = gs.action[g][a], gs.action[g][b]
        out.add((x, y))
        out.add((y, x))
    return frozenset(out)


def random_space(rng: Random, cfg: FuzzConfig = FuzzConfig(), group=None):
    """A random space whose coarse components stay small."""
    group = group or random_group(rng)
    gs = random_gset(rng, group, cfg.max_points)
    n = gs.size
    comp = list(range(n))

    def tfind(arr, x):
        while arr[x] != x:
            arr[x] = arr[arr[x]]
            x = arr[x]
        return x

    gens = []
    for _ in range(max(1, int(DENSITY * n * 2))):
        if n < 2:
            break
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        orbit_pairs = _invariant_pair_orbit(gs, a, b)
        trial = list(comp)
        for (x, y) in orbit_pairs:
            rx, ry = tfind(trial, x), tfind(trial, y)
            if rx != ry:
                trial[max(rx, ry)] = min(rx, ry)
        sizes = {}
        for x in range(n):
            r = tfind(trial, x)
            sizes[r] = sizes.get(r, 0) + 1
        if max(sizes.values()) > cfg.max_component:
            continue
        comp = trial
        gens.append(orbit_pairs)
    return make_space(gs, gens, name="fuzz")


def random_covering(rng: Random, Z: BornCoarseSpace, cfg: FuzzConfig = FuzzConfig()):
    """A bounded covering onto Z: a disjoint union of copies of the
    component-orbit subspaces, mapped by inclusion.  Returns (W, w)."""
    comps = Z.components()
    if not comps:
        return empty_space(Z.group), ()
    orbit_of = {}
    orbits = []
    for ci, comp in enumerate(comps):
        if ci in orbit_of:
            continue
        labels = {Z.coarse.block[Z.carrier.act(g, comp[0])] for g in Z.group.elements()}
        for l in labels:
            orbit_of[l] = len(orbits)
        orbits.append(sorted(labels))
    pieces = []
    incls = []
    for labels in orbits:
        pts = sorted(p for l in labels for p in comps[l])
        sub, incl = subspace(Z, pts)
        for _ in range(rng.randrange(0, cfg.max_copies + 1)):
            pieces.append(sub)
            incls.append(incl)
    if not pieces:
        pts = sorted(p for l in orbits[0] for p in comps[l])
        sub, incl = subspace(Z, pts)
        pieces.append(sub)
        incls.append(incl)
    W, _offsets = coproduct(pieces)
    w = []
    for incl in incls:
        w.extend(incl)
    return W, tuple(w)


def random_equivariant_map(rng: Random, A: GSet, B: GSet):
    """A random equivariant map A -> B, or None if none exists."""
    group = A.group
    f = [None] * A.size
    for orb in A.orbits():
        rep = orb[0]
        stab = A.stabilizer(rep)
        candidates = [q for q in range(B.size) if stab <= B.stabilizer(q)]
        if not candidates:
            return None
        img = candidates[rng.randrange(len(candidates))]
        for g in group.elements():
            f[A.action[g][rep]] = B.action[g][img]
    return tuple(f)


def random_controlled_map(rng: Random, W: BornCoarseSpace, cfg: FuzzConfig = FuzzConfig()):
    """A random controlled equivariant map out of W; the target carrier
    is grown from the orbit types of W, the target structure is generated
    by the image of the source structure plus invariant noise.
    Returns (f, Y)."""
    group = W.group
    target_parts = []
    for _ in range(rng.randrange(0, 2)):
        target_parts.append(random_gset(rng, group, max(1, cfg.max_points // 2)))
    images = {}
    for orb in W.carrier.orbits():
        rep = orb[0]
        stab = W.carrier.stabilizer(rep)
        candidates = []
        offset = 0
        for part in target_parts:
            for q in range(part.size):
                if stab <= part.stabilizer(q):
                    candidates.append(offset + q)
            offset += part.size
        if not candidates or rng.random() < 0.3:
            target_parts.append(coset_gset(group, stab))
            images[rep] = offset
        else:
            images[rep] = candidates[rng.randrange(len(candidates))]
    if len(target_parts) > 1:
        gs, _ = disjoint_union_gsets(target_parts)
    elif target_parts:
        gs = target_parts[0]
    else:  # W is empty and no part was drawn
        gs = trivial_gset(group, 0)
    f = [None] * W.size
    for orb in W.carrier.orbits():
        rep = orb[0]
        for g in group.elements():
            f[W.carrier.act(g, rep)] = gs.action[g][images[rep]]
    f = tuple(f)
    first = {}  # the f-image of each W-block, one pair per point
    pushed = [(f[first.setdefault(b, x)], f[x]) for x, b in enumerate(W.coarse.block)]
    noise = []  # at most one invariant pair orbit
    if gs.size >= 2 and rng.randrange(0, 2):
        a, b = rng.randrange(gs.size), rng.randrange(gs.size)
        if a != b:
            noise = list(_invariant_pair_orbit(gs, a, b))
    # an equivariant image of an invariant partition, joined with an
    # invariant orbit, stays invariant; the fallback drops the noise
    for pairs in (pushed + noise, pushed or noise):
        Y = _space_from_labels(gs, _partition_from_relation(gs.size, pairs), "target")
        if not Y.components() or max(map(len, Y.components())) <= 2 * cfg.max_component:
            break
    return f, Y


def random_span(rng: Random, X: BornCoarseSpace, cfg: FuzzConfig = FuzzConfig()):
    """A random generalized morphism out of X."""
    W, w = random_covering(rng, X, cfg)
    f, Y = random_controlled_map(rng, W, cfg)
    return make_span(X, W, Y, w, f)


def random_composable_spans(rng: Random, cfg: FuzzConfig = FuzzConfig()):
    """(s1: X -> Y, s2: Y -> Z) ready for composition."""
    X = random_space(rng, cfg)
    s1 = random_span(rng, X, cfg)
    s2 = random_span(rng, s1.dst, cfg)
    return s1, s2


def random_cospan(rng: Random, cfg: FuzzConfig = FuzzConfig()):
    """(g, V, u, U, Z): a proper bornological map and a bounded covering
    into a common target, the input of the pullback."""
    Z = random_space(rng, cfg)
    U, u = random_covering(rng, Z, cfg)
    group = Z.group
    parts = []
    imgs = []
    if Z.size:
        for _ in range(rng.randrange(1, 3)):
            q = rng.randrange(Z.size)
            stabq = Z.carrier.stabilizer(q)
            subs = [H for H in all_subgroups(group) if H <= stabq]
            S = subs[rng.randrange(len(subs))]
            if group.order // len(S) + sum(p.size for p in parts) > cfg.max_points:
                continue
            parts.append(coset_gset(group, S))
            imgs.append(q)
    if not parts:
        return (), empty_space(group), u, U, Z
    if len(parts) > 1:
        gs, offsets = disjoint_union_gsets(parts)
    else:
        gs, offsets = parts[0], [0]
    gmap = [None] * gs.size
    for part, off, q in zip(parts, offsets, imgs):
        # the identity coset has index 0 and stabilizer S <= Stab(q)
        for g in group.elements():
            gmap[off + part.action[g][0]] = Z.carrier.action[g][q]
    gmap = tuple(gmap)
    pairs = [
        (a, b)
        for a in range(gs.size)
        for b in range(gs.size)
        if Z.coarse.related(gmap[a], gmap[b])
    ]
    gens = []
    for _ in range(rng.randrange(0, 4)):
        if not pairs:
            break
        a, b = pairs[rng.randrange(len(pairs))]
        gens.append(_invariant_pair_orbit(gs, a, b))
    V = make_space(gs, gens, name="V")
    return gmap, V, u, U, Z


def random_invariant_subset(rng: Random, X: BornCoarseSpace):
    chosen = [orb for orb in X.carrier.orbits() if rng.random() < 0.5]
    return sorted(p for orb in chosen for p in orb)


def random_complementary_pair(rng: Random, X: BornCoarseSpace):
    """(Z, [Y1, Y2]) with Z cup Y2 = X, all invariant, Y1 increasing into
    Y2, and the family absorbing thickenings (Y2 coarsely closed)."""
    from .spaces import coarse_closure

    Z = set(random_invariant_subset(rng, X))
    rest = set(range(X.size)) - Z
    extra = set(random_invariant_subset(rng, X)) & Z
    Y2 = sorted(coarse_closure(X, rest | extra))
    y2set = set(Y2)
    Y1 = sorted(
        p
        for orb in X.carrier.orbits()
        if set(coarse_closure(X, orb)) <= y2set and rng.random() < 0.5
        for p in coarse_closure(X, orb)
    )
    Y1 = sorted(set(Y1))
    return sorted(Z), [Y1, Y2]


def random_gfin_span(rng: Random, src: GSet, cfg: FuzzConfig = FuzzConfig()):
    """A random Burnside span out of src (apex and dst drawn fresh)."""
    from .mackey import GFinSpan

    group = src.group
    for _ in range(20):
        apex = random_gset(rng, group, cfg.max_points)
        left = random_equivariant_map(rng, apex, src)
        if left is None:
            continue
        dst = random_gset(rng, group, cfg.max_points)
        right = random_equivariant_map(rng, apex, dst)
        if right is None:
            continue
        return GFinSpan(src, dst, apex, left, right)
    # fall back to the empty apex, which maps anywhere
    apex = GSet(group, 0, tuple(() for _ in group.elements()))
    dst = random_gset(rng, group, cfg.max_points)
    return GFinSpan(src, dst, apex, (), ())
