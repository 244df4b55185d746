"""Fiber products and component G-sets against the earlier bodies in
``tests/oracles.py``.

The package numbers the points of a fiber product by index arithmetic
(the first point over x, plus the rank of y in its fiber) and reads the
action of pi_0 off whole action rows; the oracles hash each (x, y) per
group element and index the action per component.  Points, action
tables and block labels must be identical.
"""

from random import Random

import pytest
from oracles import composable_gfin_span_pairs, oracle_components_gset, oracle_fiber_product_gset

from coarsehom.groups import (
    GROUP_PRESETS,
    GSet,
    family_all,
    fiber_product_gset,
    orbit_category,
    trivial_gset,
)
from coarsehom.mackey import compose_gfin_spans
from coarsehom.randgen import (
    FuzzConfig,
    random_equivariant_map,
    random_group,
    random_gset,
    random_space,
)
from coarsehom.spaces import components_gset, maximal_space, minimal_space, tensor

APEX_GROUPS = [pytest.param(name, id=name) for name in ("S4", "A4", "A5")]


def assert_same_fiber_product(A, a, B, b):
    carrier, pts = fiber_product_gset(A, a, B, b)
    old_carrier, old_pts = oracle_fiber_product_gset(A, a, B, b)
    assert pts == old_pts
    assert carrier == old_carrier  # group, size and action table


def assert_same_components(X):
    pi0, labels = components_gset(X)
    old_pi0, old_labels = oracle_components_gset(X)
    assert pi0 == old_pi0
    assert labels == old_labels


def test_fiber_products_of_random_maps_match_the_oracle():
    drawn = 0
    for seed in range(60):
        rng = Random(seed)
        g = random_group(rng)
        T = random_gset(rng, g, 4)
        A, B = random_gset(rng, g, 6), random_gset(rng, g, 6)
        a, b = random_equivariant_map(rng, A, T), random_equivariant_map(rng, B, T)
        if a is None or b is None:
            continue
        drawn += 1
        assert_same_fiber_product(A, a, B, b)
        assert_same_fiber_product(B, b, A, a)
        assert_same_fiber_product(A, a, A, a)
        # the empty G-set on either side
        empty = GSet(g, 0, tuple(() for _ in g.elements()))
        assert_same_fiber_product(empty, (), B, b)
        assert_same_fiber_product(A, a, empty, ())
    assert drawn >= 30


@pytest.mark.parametrize("name", list(GROUP_PRESETS))
def test_fiber_products_of_coset_maps_match_the_oracle(name):
    # one pair of orbit-category morphisms G/H1 -> G/K <- G/H2 per
    # (H1, H2, K): the first morphism of each nonempty hom-set
    g = GROUP_PRESETS[name]()
    cat = orbit_category(g, family_all(g))
    first = {key: morphisms[0] for key, morphisms in cat.homs.items() if morphisms}
    for (i, k), f in first.items():
        for (j, k2), h in first.items():
            if k2 == k:
                S1, S2 = cat.objects[i], cat.objects[j]
                assert_same_fiber_product(S1, f.images, S2, h.images)


@pytest.mark.parametrize("name", APEX_GROUPS)
def test_span_composition_apexes_match_the_oracle(name):
    g = GROUP_PRESETS[name]()
    for s1, s2 in composable_gfin_span_pairs(g):
        assert_same_fiber_product(s1.apex, s1.right, s2.apex, s2.left)
        apex = compose_gfin_spans(s1, s2).apex
        assert_same_components(minimal_space(apex))
        assert_same_components(maximal_space(apex))


def test_components_of_random_spaces_match_the_oracle():
    cfg = FuzzConfig()
    for seed in range(80):
        rng = Random(seed)
        X = random_space(rng, cfg)
        assert_same_components(X)
        Y = random_space(rng, cfg, group=X.group)
        assert_same_components(tensor(X, Y))
    assert_same_components(minimal_space(trivial_gset(GROUP_PRESETS["C2"](), 0)))
