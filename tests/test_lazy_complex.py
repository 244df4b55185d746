"""``SpaceComplex`` builds each degree's basis on first read, from one
``chain_basis`` call, and the slice tables on the first
``homology_data`` call; its memos hold no reference back to it, so it
is freed with its last reference and no garbage collection."""

import gc
import weakref
from collections import Counter
from random import Random

import pytest

from coarsehom import homology as homology_module
from coarsehom.errors import ValidationError
from coarsehom.homology import SpaceComplex, pullback_chain_cols, span_chain_cols
from coarsehom.randgen import FuzzConfig, random_space, random_span

CFG = FuzzConfig(max_points=6, max_component=3)
N = 2


@pytest.fixture
def built(monkeypatch):
    """Counts ``chain_basis`` calls per degree, and ``components_gset``
    calls (one per slice table) under the key "slices"."""
    counts = Counter()
    real_basis, real_comps = homology_module.chain_basis, homology_module.components_gset

    def counting_basis(X, n):
        counts[n] += 1
        return real_basis(X, n)

    def counting_comps(X):
        counts["slices"] += 1
        return real_comps(X)

    monkeypatch.setattr(homology_module, "chain_basis", counting_basis)
    monkeypatch.setattr(homology_module, "components_gset", counting_comps)
    return counts


def _spaces(count):
    rng = Random(11)
    return [random_space(rng, CFG) for _ in range(count)]


def test_a_fresh_complex_builds_nothing(built):
    for X in _spaces(10):
        SpaceComplex(X, N)
    assert built == Counter()


@pytest.mark.parametrize("upto", range(N + 1))
def test_chain_maps_build_only_the_degrees_they_read(built, upto):
    rng = Random(upto)
    for _ in range(8):
        span = random_span(rng, random_space(rng, CFG), CFG)
        built.clear()
        cxs = [SpaceComplex(s, N) for s in (span.src, span.apex, span.dst)]
        for n in range(upto + 1):
            span_chain_cols(span, *cxs, n)
            pullback_chain_cols(span.left, span.apex, span.src, cxs[1], cxs[0], n)
        assert built == Counter({n: 3 for n in range(upto + 1)})


def test_homology_data_builds_the_next_degree_and_the_slices_once(built):
    for X in _spaces(10):
        built.clear()
        cx = SpaceComplex(X, N)
        cx.homology_data(N)
        assert built == Counter({N - 1: 1, N: 1, N + 1: 1, "slices": 1})
        for n in range(N + 1):
            cx.homology_data(n)
        cx.check_dd_zero()
        assert built == Counter({**{n: 1 for n in range(N + 2)}, "slices": 1})


def test_degrees_outside_the_complex_are_rejected(built):
    cx = SpaceComplex(_spaces(1)[0], N)
    for n in (-1, N + 2):
        with pytest.raises(ValidationError):
            cx.degree(n)
    with pytest.raises(ValidationError):
        cx.boundary_cols(N + 2)
    with pytest.raises(ValidationError):
        cx.homology_data(N + 1)
    assert built == Counter()


def test_a_complex_dies_with_its_last_reference():
    """With the cycle collector off, a complex that has built every
    degree, boundary and homology group is freed by reference counting
    alone, and so is the homology data it handed out."""
    gc.disable()
    try:
        for X in _spaces(5):
            cx = SpaceComplex(X, N)
            for n in range(N + 2):
                cx.degree(n)
            assert cx.check_dd_zero()
            data = [cx.homology_data(n) for n in range(N + 1)]
            refs = [weakref.ref(cx)] + [weakref.ref(d) for d in data]
            del cx, data
            assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
