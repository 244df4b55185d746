"""Tape carriers: N x (finite G-set), the one restricted class of
infinite spaces in scope.

The group acts on the finite fiber only.  Coarse presets on the N
direction are "discrete" (diagonal) and "band" (all |i-j| <= r);
bornology presets are "finite_window" (bounded iff the N-image is
finite) and "all".  Entourages are symbolic: a band part (radius,
fiber relation) plus a finite exception set, so membership is O(1).
Arbitrary symbolic entourages outside this class are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import OutOfScopeError, ValidationError
from .groups import is_equivariant
from .spaces import BornCoarseSpace, _blocks_to_blocks

INF = None  # infinite band radius marker


@dataclass(frozen=True)
class TapeEntourage:
    """Pairs ((i,x),(j,y)) with |i-j| <= radius and (x,y) in fiber_rel,
    together with finitely many explicit extra pairs.  radius None means
    no bound on |i-j|."""

    radius: object  # int >= 0 or None
    fiber_rel: frozenset
    extra: frozenset = frozenset()

    def contains(self, p, q):
        (i, x), (j, y) = p, q
        if (self.radius is INF or abs(i - j) <= self.radius) and (x, y) in self.fiber_rel:
            return True
        return (p, q) in self.extra


def band(radius, fiber_rel):
    return TapeEntourage(radius, frozenset(fiber_rel))


@dataclass(frozen=True)
class TapeSpace:
    """N x fiber with the group acting on the finite fiber."""

    fiber: BornCoarseSpace
    coarse_preset: str  # "discrete" | "band"
    born_preset: str  # "finite_window" | "all"
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.coarse_preset not in ("discrete", "band"):
            raise ValidationError(f"unknown tape coarse preset {self.coarse_preset!r}")
        if self.born_preset not in ("finite_window", "all"):
            raise ValidationError(f"unknown tape bornology preset {self.born_preset!r}")

    @property
    def group(self):
        return self.fiber.group

    def is_finite(self):
        return False

    def has_entourage(self, U: TapeEntourage):
        """Structure membership for the symbolic entourage class.  A fiber
        pair (x, y) is allowed iff x and y are points of one fiber block;
        anything else, a point off the fiber included, is not."""
        label = dict(enumerate(self.fiber.coarse.block)).get

        def related(x, y):
            b = label(x)
            return b is not None and b == label(y)

        in_blocks = all(related(x, y) for (x, y) in U.fiber_rel)
        if self.coarse_preset == "discrete":
            band_ok = (U.radius == 0 and in_blocks) or not U.fiber_rel
            extra_ok = all(i == j and related(x, y) for ((i, x), (j, y)) in U.extra)
        else:
            band_ok = (U.radius is not INF and in_blocks) or not U.fiber_rel
            extra_ok = all(related(x, y) for ((i, x), (j, y)) in U.extra)
        return band_ok and extra_ok

    def components_symbolic(self):
        """("per_index", fiber blocks) for discrete (components {i} x block),
        ("global", fiber blocks) for band (all indices of a block merge)."""
        blocks = self.fiber.components()
        kind = "per_index" if self.coarse_preset == "discrete" else "global"
        return kind, blocks

    def __repr__(self):
        return (
            f"Tape({self.name or 'T'}, {self.coarse_preset}/{self.born_preset}, "
            f"fiber {self.fiber.size} pts)"
        )


def tape_bounded_union(X: BornCoarseSpace, born_preset="finite_window", name=""):
    """The bounded union over I = N of copies of X: N_min,min tensor X."""
    return TapeSpace(X, "discrete", born_preset, name=name or "bd_union_N")


def tape_free_union(X: BornCoarseSpace, born_preset="finite_window", name=""):
    """Free union over I = N (trivial action, orbits finite).

    The generating entourages are the blockwise families (U_i); every
    U_i lies in the fiber closure, so over a finite fiber the symbolic
    normal form of the structure agrees with the bounded union's.
    """
    return TapeSpace(X, "discrete", born_preset, name=name or "free_union_N")


@dataclass(frozen=True)
class TapeMap:
    """Equivariant maps with tape source.

    kind "project": (i, x) -> fiber_images[x], target a finite space.
    kind "shift":   (i, x) -> (i + shift, fiber_images[x]), target a tape.
    """

    kind: str
    src: TapeSpace
    dst: object
    fiber_images: tuple
    shift: int = 0

    def __post_init__(self):
        if self.kind == "project":
            if not isinstance(self.dst, BornCoarseSpace):
                raise ValidationError("project map must target a finite space")
            if not is_equivariant(self.fiber_images, self.src.fiber.carrier, self.dst.carrier):
                raise ValidationError("tape map is not equivariant")
        elif self.kind == "shift":
            if not isinstance(self.dst, TapeSpace):
                raise ValidationError("shift map must target a tape space")
            if self.shift < 0:
                raise ValidationError("shift must be nonnegative on the half-line")
            if not is_equivariant(
                self.fiber_images, self.src.fiber.carrier, self.dst.fiber.carrier
            ):
                raise ValidationError("tape map is not equivariant")
        else:
            raise ValidationError(f"unknown tape map kind {self.kind!r}")

    def apply(self, point):
        i, x = point
        if self.kind == "project":
            return self.fiber_images[x]
        return (i + self.shift, self.fiber_images[x])


def tape_map_predicates(f: TapeMap):
    """(controlled, proper, bornological) for the supported tape map kinds.
    On the fiber, controlled means mapping blocks to blocks."""
    src = f.src
    if f.kind == "project":
        controlled = _blocks_to_blocks(f.fiber_images, src.fiber, f.dst)
        bornological = True  # every image lands in the bounded finite target
        # the finite target is itself bounded; its preimage is the whole tape
        proper = src.born_preset == "all" or src.fiber.size == 0
        return controlled, proper, bornological
    T = f.dst
    controlled = _blocks_to_blocks(f.fiber_images, src.fiber, T.fiber) and (
        src.coarse_preset == "discrete" or T.coarse_preset == "band"
    )
    bornological = src.fiber.size == 0 or not (
        src.born_preset == "all" and T.born_preset == "finite_window"
    )
    proper = src.fiber.size == 0 or not (
        src.born_preset == "finite_window" and T.born_preset == "all"
    )
    return controlled, proper, bornological


def tape_projection_is_bounded_covering(f: TapeMap):
    """Bounded-covering check for a tape-to-finite projection.

    Conditions 1 and 2 of a bounded coarse covering are decided
    symbolically.  Condition 3 quantifies over all bounded subsets; it
    is decided for the preset bounded-set family only (the windows
    [0, n] x F, plus the full carrier under the "all" preset) and the
    verdict is labeled preset-verified.
    """
    if f.kind != "project":
        raise ValidationError("bounded-covering check implemented for projections only")
    src, Y = f.src, f.dst
    diag = []
    controlled, _proper, _born = tape_map_predicates(f)
    if not controlled:
        return False, "tape map is not controlled"

    kind, blocks = src.components_symbolic()

    # condition 1: (w^{-1} C_Y)(pi_0) = C_src.  For the discrete preset the
    # component entourage cuts the induced infinite band down to radius 0,
    # leaving "same fiber block, images related", which is the source's
    # structure iff the map is controlled (checked above); for the band
    # preset the restriction keeps infinite bands, which never lie in the
    # finite-radius structure of the source.
    cond1 = kind == "per_index" or src.fiber.size == 0
    if not cond1:
        diag.append("condition 1: restricted induced structure differs from the source structure")

    # condition 2: every component maps isomorphically onto a component of Y;
    # being controlled, f maps each fiber block into one block of Y
    cond2 = True
    if kind == "global" and src.fiber.size > 0:
        cond2 = False
        diag.append("condition 2: a band component N x block cannot inject into a finite component")
    else:
        for comp in blocks:
            images = [f.fiber_images[x] for x in comp]
            tb = Y.coarse.block[images[0]]
            target = sorted(v for v in range(Y.size) if Y.coarse.block[v] == tb)
            if len(set(images)) != len(images) or sorted(set(images)) != target:
                cond2 = False
                diag.append(
                    f"condition 2: fiber component {comp} is not mapped bijectively onto a component"
                )
                break

    # condition 3 against the preset bounded family
    cond3 = True
    if src.born_preset == "finite_window":
        # every window [0, n] x F meets (n+1) * #blocks components: finite,
        # so the partition by components works for every window
        cond3 = True
    elif kind == "per_index" and src.fiber.size > 0:
        cond3 = False
        diag.append(
            "condition 3 (preset-verified): the bounded set N x F meets infinitely many "
            "coarse components, no finite coarsely disjoint partition exists"
        )
    ok = cond1 and cond2 and cond3
    return ok, ("; ".join(diag) if diag else "preset-verified bounded covering")


def check_flasque_witness(space, s):
    """Validate a flasqueness witness: an endomorphism s with
    (1) s close to the identity ((id x s)(diag) is an entourage),
    (2) iterates uniformly controlled, (3) escape from every bounded set.

    Finite spaces: the full carrier is bounded, so a nonempty finite
    space never escapes; the empty space is flasque via its identity.
    Tape spaces: decided symbolically for shift maps against the preset
    bounded family (the windows [0, n] x F).
    """
    if isinstance(space, BornCoarseSpace):
        if space.size == 0:
            return True, "empty space: conditions hold vacuously"
        return False, "finite nonempty space: the whole carrier is bounded and never escapes"
    if not isinstance(space, TapeSpace):
        raise OutOfScopeError("flasqueness witness checks run on finite or tape carriers")
    if not isinstance(s, TapeMap) or s.kind != "shift" or s.src != space or s.dst != space:
        raise ValidationError("witness must be a shift endomorphism of the tape space")

    reasons = []
    closeness = TapeEntourage(
        s.shift, frozenset((x, s.fiber_images[x]) for x in range(space.fiber.size))
    )
    cond1 = space.has_entourage(closeness)
    if not cond1:
        reasons.append("witness is not close to the identity")

    # iterates of a shift keep the band radius and push the fiber relation
    # through the finite monoid generated by the fiber map; the union over
    # all iterates is an entourage iff every iterate's relation is one
    phi = s.fiber_images
    probe_radius = 0 if space.coarse_preset == "discrete" else 1
    rel = space.fiber.coarse.closure_entourage()
    seen = set()
    cond2 = True
    while rel not in seen:
        seen.add(rel)
        if not space.has_entourage(TapeEntourage(probe_radius, rel)):
            cond2 = False
            reasons.append("an iterate of the witness is not controlled")
            break
        rel = frozenset((phi[x], phi[y]) for (x, y) in rel)

    if space.born_preset == "all" and space.fiber.size > 0:
        cond3 = False
        reasons.append("the full carrier is bounded under the 'all' preset; no escape")
    else:
        # image of s^k lies in [k, inf) x F, clearing the window [0, n] for k > n
        cond3 = s.shift > 0 or space.fiber.size == 0
        if not cond3:
            reasons.append("zero shift never leaves a window")
    ok = cond1 and cond2 and cond3
    return ok, ("; ".join(reasons) if reasons else "witness validated on the preset bounded family")
