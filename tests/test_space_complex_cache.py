"""The shared complex cache ``homology.space_complex``: sharing complexes
between calls changes no result, no caller mutates a shared complex,
space names do not split entries, and excision reads both of its
complements from one entry."""

from dataclasses import replace
from random import Random

import pytest

from coarsehom.axioms import (
    check_additivity,
    check_coarse_invariance,
    check_excision,
    check_strong_additivity,
    check_u_continuity,
    check_weak_transfers,
)
from coarsehom.groups import GSet, family_all, family_trivial, symmetric_group, trivial_gset
from coarsehom.homology import SpaceComplex, induced_map, space_complex
from coarsehom.mackey import EMContext, assembly, double_coset_check
from coarsehom.randgen import (
    FuzzConfig,
    random_complementary_pair,
    random_gfin_span,
    random_gset,
    random_space,
    random_span,
)
from coarsehom.spaces import make_space, maximal_space

CFG = FuzzConfig(max_points=6, max_component=3)


@pytest.fixture(autouse=True)
def cold_cache():
    space_complex.cache_clear()
    yield
    space_complex.cache_clear()


def _homs(homs):
    return [(h.src.invariants(), h.dst.invariants(), h.matrix) for h in homs]


def _calls(seed):
    rng = Random(seed)
    X = random_space(rng, CFG)
    X2 = random_space(rng, CFG, group=X.group)
    I = trivial_gset(X.group, 2)
    span = random_span(rng, X, CFG)
    s3 = symmetric_group(3)
    S = random_gset(rng, s3, 6)
    gspan = random_gfin_span(rng, S, CFG)
    H, K = frozenset({0}), frozenset(s3.elements())

    def em():
        return _homs(EMContext(1).em_morphism(gspan))

    def asm(fam):
        r = assembly(s3, fam, 0)
        return (r.colimit.invariants(), r.target.invariants(), r.assembly.matrix, r.injective, r.split)

    return [
        lambda: check_coarse_invariance(X, 2),
        lambda: check_u_continuity(X, 2),
        lambda: check_weak_transfers(X, I, 2),
        lambda: check_additivity([X, X2], 2),
        lambda: check_strong_additivity([X, X2], 2),
        lambda: _homs(induced_map(span, 2)),
        em,
        lambda: double_coset_check(s3, H, K, 1),
        lambda: double_coset_check(s3, K, H, 1),
        lambda: asm(family_trivial(s3)),
        lambda: asm(family_all(s3)),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cold_and_warm_cache_agree(seed):
    calls = _calls(seed)
    cold = []
    for call in calls:
        space_complex.cache_clear()
        cold.append(call())
    space_complex.cache_clear()
    warm = []
    for call in calls:  # the second run of each call finds its own complexes
        warm.append((call(), call()))
    assert space_complex.cache_info().hits > 0
    for c, (w1, w2) in zip(cold, warm):
        assert c == w1 == w2


def test_shared_complexes_stay_unmodified(monkeypatch):
    built = []
    init = SpaceComplex.__init__

    def recording_init(self, X, maxdeg):
        init(self, X, maxdeg)
        built.append(self)

    monkeypatch.setattr(SpaceComplex, "__init__", recording_init)
    rng = Random(21)
    for _ in range(12):
        X = random_space(rng, CFG)
        Z, Ys = random_complementary_pair(rng, X)
        X2 = random_space(rng, CFG, group=X.group)
        assert check_coarse_invariance(X, 2)[0]
        assert check_excision(X, Z, Ys, 2)[0]
        assert check_u_continuity(X, 2)[0]
        assert check_weak_transfers(X, trivial_gset(X.group, 2), 2)
        assert check_additivity([X, X2], 2)
        assert check_strong_additivity([X, X2], 2)
    monkeypatch.undo()
    info = space_complex.cache_info()
    assert info.misses == len(built) and info.hits > 0
    for cx in built:
        fresh = SpaceComplex(cx.X, cx.N)
        assert (cx.bases, cx.index, cx.stabs) == (fresh.bases, fresh.index, fresh.stabs)
        for n in range(1, cx.N + 2):
            assert cx.boundary_cols(n) == fresh.boundary_cols(n)
        for n in range(cx.N + 1):
            h, f = cx.homology_data(n), fresh.homology_data(n)
            assert h.invariants() == f.invariants()
            assert h.gen_cycles == f.gen_cycles


def test_equal_spaces_with_different_names_share_one_entry(c2):
    carrier = GSet(c2, 2, ((0, 1), (1, 0)))
    X = maximal_space(carrier, name="X")
    renamed = replace(X, name="Y")
    generated = make_space(carrier, [frozenset({(0, 1), (1, 0)})], name="Z")
    assert X == renamed == generated
    cx = space_complex(X, 2)
    assert space_complex(renamed, 2) is cx and space_complex(generated, 2) is cx
    assert space_complex.cache_info().currsize == 1


def test_excision_reads_both_complements_from_one_entry():
    """Z - Y and X - Y are one space: the second request hits the entry
    the first one made."""
    rng = Random(5)
    for _ in range(5):
        X = random_space(rng, CFG)
        Z, Ys = random_complementary_pair(rng, X)
        space_complex.cache_clear()
        assert check_excision(X, Z, Ys, 2)[0]
        info = space_complex.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
