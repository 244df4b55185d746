from random import Random

import pytest
from oracles import oracle_has_entourage

from coarsehom.errors import ValidationError
from coarsehom.groups import trivial_gset
from coarsehom.randgen import FuzzConfig, random_space
from coarsehom.spaces import make_space, maximal_space, minimal_space
from coarsehom.tape import (
    TapeEntourage,
    TapeMap,
    TapeSpace,
    band,
    check_flasque_witness,
    tape_bounded_union,
    tape_free_union,
    tape_map_predicates,
    tape_projection_is_bounded_covering,
)


@pytest.fixture
def fiber(triv):
    gs = trivial_gset(triv, 2)
    return make_space(gs, [frozenset({(0, 1), (1, 0)})], name="fiber")


def test_entourage_inverse_and_membership(fiber):
    E = TapeEntourage(1, frozenset({(0, 1)}), frozenset({(((5, 0)), ((9, 1)))}))
    assert E.contains((3, 0), (4, 1))
    assert E.contains((5, 0), (9, 1))
    assert not E.contains((9, 1), (5, 0))  # the inverse pair is not a member


def test_structure_membership(fiber):
    disc = TapeSpace(fiber, "discrete", "finite_window")
    bnd = TapeSpace(fiber, "band", "finite_window")
    R = fiber.coarse.closure_entourage()
    assert disc.has_entourage(band(0, R))
    assert not disc.has_entourage(band(1, R))
    assert bnd.has_entourage(band(7, R))
    assert not bnd.has_entourage(TapeEntourage(None, R))


def _random_entourage(rng, size):
    """Fiber pairs and extra pairs over the points -1..size, so that some
    lie off the fiber."""
    pts = range(-1, size + 1)

    def pair():
        return rng.choice(pts), rng.choice(pts)

    rel = frozenset(pair() for _ in range(rng.randrange(4)))
    extra = frozenset(
        ((rng.randrange(4), x), (rng.randrange(4), y))
        for (x, y) in (pair() for _ in range(rng.randrange(3)))
    )
    return TapeEntourage(rng.choice((0, 1, 3, None)), rel, extra)


def test_has_entourage_matches_the_pair_set_oracle(fiber, triv):
    fibers = [fiber, minimal_space(trivial_gset(triv, 2)), maximal_space(trivial_gset(triv, 3))]
    rng = Random(0)
    fibers += [random_space(rng, FuzzConfig()) for _ in range(10)]
    verdicts = set()
    for X in fibers:
        R = X.coarse.closure_entourage()
        entourages = [band(0, R), band(2, R), TapeEntourage(None, R), band(1, frozenset())]
        entourages += [_random_entourage(rng, X.size) for _ in range(40)]
        entourages += [
            TapeEntourage(r, frozenset(), frozenset({((i, x), (j, y))}))
            for r in (0, None)
            for (i, j) in ((2, 2), (2, 5))
            for (x, y) in sorted(R)[:3]
        ]
        for preset in ("discrete", "band"):
            T = TapeSpace(X, preset, "finite_window")
            for U in entourages:
                got = T.has_entourage(U)
                assert got == oracle_has_entourage(T, U), (X, preset, U)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_bounded_and_free_union_agree_over_finite_fiber(fiber):
    bd = tape_bounded_union(fiber)
    fr = tape_free_union(fiber)
    assert bd.coarse_preset == fr.coarse_preset
    assert bd.born_preset == fr.born_preset
    # identity is a morphism both ways: same symbolic normal form
    ident = TapeMap("shift", bd, fr, tuple(range(fiber.size)), 0)
    assert tape_map_predicates(ident) == (True, True, True)


def test_projection_predicates(fiber):
    T = tape_bounded_union(fiber)
    proj = TapeMap("project", T, fiber, tuple(range(fiber.size)))
    controlled, proper, bornological = tape_map_predicates(proj)
    assert controlled and bornological
    assert not proper  # preimage of the bounded finite target is the whole tape


def test_projection_is_bounded_covering(fiber):
    T = tape_bounded_union(fiber)
    proj = TapeMap("project", T, fiber, tuple(range(fiber.size)))
    ok, diag = tape_projection_is_bounded_covering(proj)
    assert ok, diag


def test_projection_with_all_bornology_fails_condition_3(fiber):
    T = TapeSpace(fiber, "discrete", "all")
    proj = TapeMap("project", T, fiber, tuple(range(fiber.size)))
    ok, diag = tape_projection_is_bounded_covering(proj)
    assert not ok
    assert "condition 3" in diag


def test_band_projection_is_not_a_covering(fiber):
    T = TapeSpace(fiber, "band", "finite_window")
    proj = TapeMap("project", T, fiber, tuple(range(fiber.size)))
    ok, diag = tape_projection_is_bounded_covering(proj)
    assert not ok


def test_flasque_shift_accepted(fiber):
    T = TapeSpace(fiber, "band", "finite_window")
    s = TapeMap("shift", T, T, tuple(range(fiber.size)), 1)
    ok, diag = check_flasque_witness(T, s)
    assert ok, diag


def test_flasque_rejections(fiber, pt, three_min):
    # nonempty finite spaces are never flasque
    for X in (pt, three_min, fiber):
        ok, _ = check_flasque_witness(X, None)
        assert not ok
    # the empty space is flasque via its identity
    from coarsehom.spaces import empty_space
    from coarsehom.groups import trivial_group

    ok, _ = check_flasque_witness(empty_space(trivial_group()), None)
    assert ok
    # zero shift never escapes
    T = TapeSpace(fiber, "band", "finite_window")
    s0 = TapeMap("shift", T, T, tuple(range(fiber.size)), 0)
    ok, diag = check_flasque_witness(T, s0)
    assert not ok
    # discrete preset: the shift is not close to the identity
    D = TapeSpace(fiber, "discrete", "finite_window")
    s1 = TapeMap("shift", D, D, tuple(range(fiber.size)), 1)
    ok, diag = check_flasque_witness(D, s1)
    assert not ok
    # the 'all' bornology never lets anything escape
    A = TapeSpace(fiber, "band", "all")
    sA = TapeMap("shift", A, A, tuple(range(fiber.size)), 1)
    ok, diag = check_flasque_witness(A, sA)
    assert not ok


def test_tape_map_validation(fiber, c2):
    T = tape_bounded_union(fiber)
    with pytest.raises(ValidationError):
        TapeMap("shift", T, T, tuple(range(fiber.size)), -1)
    with pytest.raises(ValidationError):
        TapeMap("banana", T, T, tuple(range(fiber.size)))
    from coarsehom.spaces import minimal_space as mins
    from coarsehom.groups import GSet as GS

    swap_fiber = mins(GS(c2, 2, ((0, 1), (1, 0))))
    Ts = tape_bounded_union(swap_fiber)
    with pytest.raises(ValidationError):
        TapeMap("project", Ts, swap_fiber, (0, 0))  # not equivariant


def test_identity_with_shrunk_bornology_is_covering(fiber):
    from coarsehom.spans import is_bounded_covering

    small = TapeSpace(fiber, "band", "finite_window")
    big = TapeSpace(fiber, "band", "all")
    ident = lambda src, dst: TapeMap("shift", src, dst, tuple(range(fiber.size)), 0)
    ok, diag = is_bounded_covering(ident(small, big), small, big)
    assert ok, diag
    # the other direction inflates the bornology and fails bornologicity
    ok, diag = is_bounded_covering(ident(big, small), big, small)
    assert not ok
    assert "bornological" in diag


def test_tape_maps_are_controlled_iff_fiber_blocks_go_to_blocks(fiber, triv):
    discrete = minimal_space(trivial_gset(triv, 2))
    for preset in ("discrete", "band"):
        T = TapeSpace(fiber, preset, "finite_window")
        D = TapeSpace(discrete, preset, "finite_window")
        assert not tape_map_predicates(TapeMap("shift", T, D, (0, 1), 0))[0]
        assert tape_map_predicates(TapeMap("shift", T, D, (1, 1), 0))[0]
        assert tape_map_predicates(TapeMap("shift", D, T, (0, 1), 0))[0]
        assert not tape_map_predicates(TapeMap("project", T, discrete, (0, 1)))[0]
        assert tape_map_predicates(TapeMap("project", T, discrete, (1, 1)))[0]
