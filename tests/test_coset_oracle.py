"""Coset tables, G/H, double cosets and orbit-category hom-sets against
the element-by-element oracles in ``tests/oracles.py``.

The package builds each coset table and each G/H once per (group,
subgroup), reads double cosets K\\G/H off the K-orbits on G/H and finds
Hom(G/H, G/K) from one g per coset gK.  The oracles are the earlier
bodies: a scan over every g in G, with cosets kept in dicts.
"""

import pytest
from oracles import (
    oracle_coset_gset,
    oracle_double_coset_representatives,
    oracle_orbit_category_homs,
)

from coarsehom.errors import ValidationError
from coarsehom.groups import (
    GROUP_PRESETS,
    _coset_space,
    _cosets,
    coset_gset,
    cyclic_group,
    double_coset_representatives,
    family_all,
    family_solvable,
    family_trivial,
    orbit_category,
    subgroup_class_representatives,
    symmetric_group,
)

PRESETS = [pytest.param(make, id=name) for name, make in GROUP_PRESETS.items()]


@pytest.mark.parametrize("make", PRESETS)
def test_double_coset_representatives_match_the_oracle(make):
    g = make()
    reps = subgroup_class_representatives(g)
    for K in reps:
        for H in reps:
            assert double_coset_representatives(g, K, H) == oracle_double_coset_representatives(
                g, K, H
            )


@pytest.mark.parametrize("make", PRESETS)
def test_orbit_category_homs_match_the_oracle(make):
    g = make()
    for family in (family_all(g), family_trivial(g), family_solvable(g)):
        cat = orbit_category(g, family)
        old = oracle_orbit_category_homs(g, family)
        assert cat.homs.keys() == old.keys()
        for key, morphisms in cat.homs.items():
            assert [m.images for m in morphisms] == old[key]
            assert all((m.src, m.dst) == key for m in morphisms)


@pytest.mark.parametrize("make", PRESETS)
def test_cached_coset_gset_equals_an_uncached_build(make):
    g = make()
    for H in subgroup_class_representatives(g):
        cached = coset_gset(g, H)
        assert coset_gset(g, sorted(H)) is cached
        assert cached == oracle_coset_gset(g, H)
        _coset_space.cache_clear()
        _cosets.cache_clear()
        assert coset_gset(g, H) == cached


def test_coset_gset_rejects_a_non_subgroup_on_every_call():
    s3 = symmetric_group(3)
    for _ in range(2):
        with pytest.raises(ValidationError, match="requires a subgroup"):
            coset_gset(s3, [0, 1, 2])
    coset_gset(s3, [0, 1])
    for _ in range(2):
        with pytest.raises(ValidationError, match="requires a subgroup"):
            coset_gset(s3, [0, 1, 2])


def test_a_cached_subgroup_does_not_admit_non_elements():
    # {0, True} and {0, 1.0} hash and compare equal to the cached {0, 1}
    c2 = cyclic_group(2)
    assert coset_gset(c2, [0, 1]).size == 1
    for raw in ([0, True], [0, 1.0]):
        for _ in range(2):
            with pytest.raises(ValidationError, match="not an element"):
                coset_gset(c2, raw)
