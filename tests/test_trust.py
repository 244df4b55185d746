"""Objects derived from validated ones are built without re-running the
public validators; these tests re-validate what the derived constructors
build, on the fuzz seeds the other test modules use, through the public
constructors ``GSet(...)``, ``BornCoarseSpace(...)``, ``make_span`` and
``GFinSpan(...)``."""

from random import Random

import pytest

from coarsehom.axioms import subspace
from coarsehom.groups import (
    GSet,
    all_subgroups,
    coset_gset,
    disjoint_union_gsets,
    product_gset,
    trivial_gset,
)
from coarsehom.mackey import GFinSpan, compose_gfin_spans
from coarsehom.randgen import (
    GROUP_CATALOG,
    FuzzConfig,
    random_composable_spans,
    random_cospan,
    random_gfin_span,
    random_gset,
    random_invariant_subset,
    random_space,
)
from coarsehom.spaces import BornCoarseSpace, components_gset, coproduct, tensor
from coarsehom.spans import compose, hom_monoid_add, make_span, pullback

CFG = FuzzConfig(max_points=6, max_component=3, max_copies=2)
SEEDS = (5, 11, 41, 101, 211, 2024)


def revalidate_gset(gs):
    GSet(gs.group, gs.size, gs.action)


def revalidate_space(X):
    revalidate_gset(X.carrier)
    BornCoarseSpace(X.carrier, X.coarse)


def revalidate_span(s):
    for X in (s.src, s.apex, s.dst):
        revalidate_space(X)
    make_span(s.src, s.apex, s.dst, s.left, s.right)


def test_coset_trivial_union_and_product_gsets():
    for make in GROUP_CATALOG:
        grp = make()
        derived = [coset_gset(grp, H) for H in all_subgroups(grp)]
        derived += [trivial_gset(grp, n) for n in range(3)]
        for gs in list(derived):
            revalidate_gset(gs)
            revalidate_gset(disjoint_union_gsets([gs, derived[0]])[0])
            revalidate_gset(product_gset(gs, derived[-1]))


@pytest.mark.parametrize("seed", SEEDS)
def test_derived_spaces_and_spans(seed):
    rng = Random(seed)
    for _ in range(8):
        X = random_space(rng, CFG)
        revalidate_space(X)
        revalidate_gset(components_gset(X)[0])
        revalidate_space(subspace(X, random_invariant_subset(rng, X))[0])
        revalidate_space(coproduct([X, X])[0])
        revalidate_space(tensor(X, X))

        g, V, u, U, Z = random_cospan(rng, CFG)
        revalidate_space(pullback(g, V, u, U, Z)[0])

        s1, s2 = random_composable_spans(rng, CFG)
        revalidate_span(s1)
        revalidate_span(compose(s1, s2))
        revalidate_span(hom_monoid_add(s1, s1))

        src = random_gset(rng, X.group, CFG.max_points)
        t1 = random_gfin_span(rng, src, CFG)
        t2 = random_gfin_span(rng, t1.dst, CFG)
        c = compose_gfin_spans(t1, t2)
        revalidate_gset(c.apex)
        GFinSpan(c.src, c.dst, c.apex, c.left, c.right)
