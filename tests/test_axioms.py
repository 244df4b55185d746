import pytest
from random import Random

from oracles import weak_transfer_projection_cols

from coarsehom.axioms import (
    check_additivity,
    check_coarse_invariance,
    check_excision,
    check_strong_additivity,
    check_u_continuity,
    check_weak_transfers,
    subspace,
    validate_complementary_pair,
)
from coarsehom.errors import ValidationError
from coarsehom.groups import trivial_gset
from coarsehom.randgen import (
    FuzzConfig,
    random_complementary_pair,
    random_group,
    random_space,
)
from coarsehom.homology import SpaceComplex, pullback_chain_cols
from coarsehom.spaces import bounded_union, coproduct, make_space, maximal_space, minimal_space
from coarsehom.spans import inclusion_at

CFG = FuzzConfig(max_points=6, max_component=3)


def test_subspace_inherits_structure(chain3):
    sub, incl = subspace(chain3, [0, 1])
    assert sub.size == 2
    assert len(sub.components()) == 1
    assert incl == (0, 1)


def test_complementary_pair_validation(triv, chain3):
    X = chain3  # one component 0-1-2
    # the whole space with the empty-start family
    validate_complementary_pair(X, list(range(3)), [[], list(range(3))])
    with pytest.raises(ValidationError):
        validate_complementary_pair(X, [0], [[1]])  # never covers
    with pytest.raises(ValidationError):
        validate_complementary_pair(X, list(range(3)), [[1]])  # not closed under thickening


def test_excision_trivial_pair(chain3):
    ok, verdicts = check_excision(chain3, list(range(3)), [[], list(range(3))], 2)
    assert ok and all(verdicts)


def test_excision_coproduct_pair(triv):
    X1 = minimal_space(trivial_gset(triv, 2))
    X2 = maximal_space(trivial_gset(triv, 2))
    X, offs = coproduct([X1, X2])
    ok, verdicts = check_excision(X, [0, 1], [[2, 3]], 2)
    assert ok and all(verdicts)


def test_excision_fuzz():
    rng = Random(101)
    for _ in range(40):
        X = random_space(rng, CFG)
        Z, Ys = random_complementary_pair(rng, X)
        ok, verdicts = check_excision(X, Z, Ys, 2)
        assert ok, (Z, Ys, verdicts)


def test_coarse_invariance_examples(pt, three_min, chain3, free2_min):
    for X in (pt, three_min, chain3, free2_min):
        ok, verdicts = check_coarse_invariance(X, 2)
        assert ok, verdicts


def test_coarse_invariance_fuzz():
    rng = Random(103)
    for _ in range(20):
        X = random_space(rng, CFG)
        ok, verdicts = check_coarse_invariance(X, 2)
        assert ok, verdicts


def test_u_continuity_minimal_structure_constant(three_min):
    ok, stab = check_u_continuity(three_min, 2)
    assert ok and stab == 0


def test_u_continuity_chain_stabilizes(chain3):
    ok, stab = check_u_continuity(chain3, 2)
    assert ok
    assert stab == 2  # both generators needed to reach the closure


def test_u_continuity_fuzz():
    rng = Random(107)
    for _ in range(15):
        X = random_space(rng, CFG)
        ok, _ = check_u_continuity(X, 2)
        assert ok


def test_weak_transfers_examples(pt, chain3):
    for sz in (1, 3):
        assert check_weak_transfers(pt, trivial_gset(pt.group, sz), 2)
    assert check_weak_transfers(chain3, trivial_gset(chain3.group, 2), 2)


def test_weak_transfers_fuzz():
    rng = Random(109)
    for _ in range(10):
        X = random_space(rng, CFG)
        sz = 1 + rng.randrange(4)
        assert check_weak_transfers(X, trivial_gset(X.group, sz), 2)


def test_weak_transfers_rejects_nontrivial_action(free2, free2_min):
    with pytest.raises(ValidationError):
        check_weak_transfers(free2_min, free2, 2)


def test_additivity_examples(triv):
    X1 = minimal_space(trivial_gset(triv, 2))
    X2 = maximal_space(trivial_gset(triv, 2))
    assert check_additivity([X1, X2], 2)
    assert check_strong_additivity([X1, X2], 2)
    assert check_strong_additivity([minimal_space(trivial_gset(triv, 1))], 2)


def test_strong_additivity_two_points(triv):
    parts = [minimal_space(trivial_gset(triv, 1)), minimal_space(trivial_gset(triv, 1))]
    assert check_strong_additivity(parts, 2)


def test_additivity_fuzz():
    rng = Random(113)
    for _ in range(10):
        g = random_group(rng)
        parts = [random_space(rng, CFG, group=g) for _ in range(1 + rng.randrange(3))]
        assert check_additivity(parts, 2)
        assert check_strong_additivity(parts, 2)


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_weak_transfer_projection_is_pullback_along_inclusion(seed):
    """p^ex_j of the weak-transfer check, the pullback along the
    inclusion of copy j, equals the hand-built projection."""
    rng = Random(seed)
    for _ in range(6):
        X = random_space(rng, CFG)
        I = trivial_gset(X.group, 1 + rng.randrange(3))
        W = bounded_union(I, X)
        cxX, cxW = SpaceComplex(X, 2), SpaceComplex(W, 2)
        for j in range(I.size):
            for n in range(3):
                cols = pullback_chain_cols(inclusion_at(X, I, j), X, W, cxX, cxW, n)
                assert cols == weak_transfer_projection_cols(X, j, cxX, cxW, n)
