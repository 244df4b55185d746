from random import Random

import pytest
from oracles import (
    SUBGROUPS_PER_ORDER,
    composable_gfin_span_pairs,
    is_closed_subset,
    is_lattice,
    oracle_is_action,
    oracle_is_associative,
    oracle_is_equivariant,
    oracle_subgroups,
)

from coarsehom.errors import ValidationError
from coarsehom.groups import (
    GROUP_PRESETS,
    GSet,
    Group,
    alternating_group,
    all_subgroups,
    commutator_subgroup,
    conjugacy_classes_of_subgroups,
    coset_gset,
    cyclic_group,
    family_all,
    family_solvable,
    family_trivial,
    is_equivariant,
    is_separating,
    orbit_category,
    product_gset,
    subgroup_class_representatives,
    symmetric_group,
    trivial_group,
    trivial_gset,
)
from coarsehom.mackey import compose_gfin_spans
from coarsehom.randgen import GROUP_CATALOG, random_group, random_gset


def test_group_table_validation():
    with pytest.raises(ValidationError):
        Group(((0, 0), (0, 0)))  # no identity
    with pytest.raises(ValidationError):
        Group(((0, 1), (1, 1)))  # 1 has no inverse / not associative


# a Latin square with a two-sided identity (0) and inverses that is not
# a group: (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))

ALL_GROUPS = [pytest.param(make, id=name) for name, make in GROUP_PRESETS.items()] + [
    pytest.param(make, id=f"catalog{i}") for i, make in enumerate(GROUP_CATALOG)
]


@pytest.mark.parametrize("make", ALL_GROUPS)
def test_generator_checks_accept_every_group_and_its_gsets(make):
    g = make()  # every preset is built through the validating Group(...)
    assert oracle_is_associative(g.table)
    rng = Random(f"gset-{g.name}")
    for _ in range(6):
        S = random_gset(rng, g, 12)
        assert oracle_is_action(g, S.size, S.action)
        GSet(g, S.size, S.action)


@pytest.mark.parametrize("make", [p for p in ALL_GROUPS if p.values[0]().order > 1])
def test_generator_checks_reject_a_corrupted_action(make):
    # one entry changed in a row other than the identity's
    g = make()
    rng = Random(f"corrupt-{g.name}")
    tried = 0
    while tried < 6:
        S = random_gset(rng, g, 12)
        if S.size < 2:
            continue
        rows = [list(row) for row in S.action]
        h = rng.choice([x for x in g.elements() if x != g.identity])
        x = rng.randrange(S.size)
        rows[h][x] = rng.choice([y for y in range(S.size) if y != rows[h][x]])
        action = tuple(map(tuple, rows))
        assert not oracle_is_action(g, S.size, action)
        with pytest.raises(ValidationError, match="not associative"):
            GSet(g, S.size, action)
        tried += 1


def test_generator_checks_reject_a_nonassociative_loop():
    n = len(LOOP5)
    assert all(LOOP5[0][x] == x == LOOP5[x][0] for x in range(n))
    assert all(any(LOOP5[a][b] == 0 == LOOP5[b][a] for b in range(n)) for a in range(n))
    assert not oracle_is_associative(LOOP5)
    with pytest.raises(ValidationError, match="associativity fails"):
        Group(LOOP5)


def test_generator_checks_read_every_generator():
    # C2 x LOOP5 with (x, q) at index 2q + x: the first generator, (1, 0),
    # associates with everything, so only a later generator shows the failure
    c2 = ((0, 1), (1, 0))
    table = tuple(
        tuple(2 * LOOP5[i // 2][j // 2] + c2[i % 2][j % 2] for j in range(10)) for i in range(10)
    )
    assert not oracle_is_associative(table)
    with pytest.raises(ValidationError, match="associativity fails"):
        Group(table)
    # V4 (generators 1, 2) on three points: rows id, (01), (12) and
    # (12)(01) obey the law for 1 but not for 2, as (01)(12) != (12)(01)
    v4 = Group(tuple(tuple(a ^ b for b in range(4)) for a in range(4)))
    action = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 0, 1))
    assert not oracle_is_action(v4, 3, action)
    with pytest.raises(ValidationError, match="not associative"):
        GSet(v4, 3, action)


def test_identity_and_inverses():
    g = symmetric_group(3)
    e = g.identity
    for a in g.elements():
        assert g.mul(a, g.inv(a)) == e
        assert g.mul(e, a) == a


def test_orbits_swap_action(c2):
    swap = GSet(c2, 2, ((0, 1), (1, 0)))
    assert swap.orbits() == [(0, 1)]


def test_orbits_trivial_action(triv):
    X = trivial_gset(triv, 2)
    assert X.orbits() == [(0,), (1,)]


def test_orbits_mixed(c2):
    # C2/e disjoint C2/C2: 3 points, orbit sizes 2 and 1
    free = coset_gset(c2, frozenset([0]))
    fixed = coset_gset(c2, frozenset([0, 1]))
    from coarsehom.groups import disjoint_union_gsets

    gs, _ = disjoint_union_gsets([free, fixed])
    sizes = sorted(len(o) for o in gs.orbits())
    assert sizes == [1, 2]


def test_subgroup_counts():
    assert len(all_subgroups(cyclic_group(2))) == 2
    assert len(conjugacy_classes_of_subgroups(cyclic_group(2))) == 2
    assert len(all_subgroups(cyclic_group(4))) == 3
    s3 = symmetric_group(3)
    assert len(all_subgroups(s3)) == 6
    assert len(conjugacy_classes_of_subgroups(s3)) == 4


def test_subgroups_sorted_canonically():
    subs = all_subgroups(symmetric_group(3))
    keys = [(len(H), tuple(sorted(H))) for H in subs]
    assert keys == sorted(keys)


def test_class_sizes_sum_to_subgroup_count():
    for g in (cyclic_group(4), symmetric_group(3), symmetric_group(4)):
        classes = conjugacy_classes_of_subgroups(g)
        assert sum(len(c) for c in classes) == len(all_subgroups(g))


def test_a5_subgroup_lattice():
    a5 = alternating_group(5)
    assert a5.order == 60
    assert len(all_subgroups(a5)) == 59
    assert len(conjugacy_classes_of_subgroups(a5)) == 9


def test_separating_family_examples(c2):
    assert not is_separating(c2, family_trivial(c2))
    for g in (c2, cyclic_group(3), symmetric_group(3)):
        assert is_separating(g, family_all(g))


def test_solvable_family_of_a5_is_separating():
    a5 = alternating_group(5)
    sol = family_solvable(a5)
    assert len(all_subgroups(a5)) == 59
    assert len(sol.members) == 58  # everything except A5 itself
    assert frozenset(a5.elements()) not in sol.members
    assert is_separating(a5, sol)


def test_family_validation_rejects_non_closed(c2):
    from coarsehom.groups import SubgroupFamily

    with pytest.raises(ValidationError):
        SubgroupFamily(c2, frozenset([frozenset([0, 1])]))  # not subgroup-closed


def test_orbit_category_c2(c2):
    cat = orbit_category(c2)
    # objects ordered by subgroup order: G/e then G/C2
    assert [o.size for o in cat.objects] == [2, 1]
    assert len(cat.hom(0, 0)) == 2
    assert len(cat.hom(1, 0)) == 0
    # terminal object: exactly one map to G/G from anywhere
    assert len(cat.hom(0, 1)) == 1
    assert len(cat.hom(1, 1)) == 1


def test_orbit_category_s3_trivial_family(s3):
    cat = orbit_category(s3, family_trivial(s3))
    assert len(cat.objects) == 1
    assert len(cat.hom(0, 0)) == 6  # the Weyl group of the trivial subgroup


@pytest.mark.parametrize("gfn", [lambda: cyclic_group(2), lambda: cyclic_group(4), lambda: symmetric_group(3)])
def test_orbit_category_associative_and_unital(gfn):
    g = gfn()
    cat = orbit_category(g)
    n = len(cat.objects)
    for i in range(n):
        for j in range(n):
            for f in cat.hom(i, j):
                assert cat.compose(cat.identity(i), f).images == f.images
                assert cat.compose(f, cat.identity(j)).images == f.images
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for f in cat.hom(i, j):
                        for h in cat.hom(j, k):
                            for e in cat.hom(k, l):
                                assert (
                                    cat.compose(cat.compose(f, h), e).images
                                    == cat.compose(f, cat.compose(h, e)).images
                                )


def test_terminal_object_in_every_orbit_category():
    for g in (cyclic_group(3), symmetric_group(3)):
        cat = orbit_category(g)
        top = len(cat.objects) - 1
        assert cat.objects[top].size == 1
        for i in range(len(cat.objects)):
            assert len(cat.hom(i, top)) == 1


def test_stabilizer_and_fixed_points(c2):
    free = coset_gset(c2, frozenset([0]))
    assert free.stabilizer(0) == frozenset([0])
    assert free.fixed_points(frozenset([0, 1])) == []
    fixed = trivial_gset(c2, 2)
    assert fixed.fixed_points(frozenset([0, 1])) == [0, 1]


def test_coset_space_rejects_non_subgroup(c2):
    with pytest.raises(ValidationError):
        coset_gset(c2, frozenset([1]))


def test_separating_computes_primality():
    # {e} < C_p has prime index, so the trivial family is not separating;
    # p = 61 lies above any fixed list of small primes
    for p in (7, 61):
        g = cyclic_group(p)
        assert not is_separating(g, family_trivial(g))


def test_derived_gset_constructors_check_raw_arguments(c2):
    with pytest.raises(ValidationError, match="negative size"):
        trivial_gset(c2, -1)
    with pytest.raises(ValidationError, match="not an element"):
        coset_gset(c2, [0, 99])
    with pytest.raises(ValidationError, match="requires a subgroup"):
        coset_gset(symmetric_group(3), [0, 1, 2])


@pytest.mark.parametrize(
    "make",
    [pytest.param(make, id=name) for name, make in GROUP_PRESETS.items()]
    + [pytest.param(make, id=f"catalog{i}") for i, make in enumerate(GROUP_CATALOG)],
)
def test_all_subgroups_match_the_oracle(make):
    g = make()
    subs = all_subgroups(g)
    if g.order <= 12:
        assert subs == tuple(sorted(oracle_subgroups(g), key=lambda H: (len(H), sorted(H))))
        return
    # distinct subgroups, as many of each order as the textbook lists: all of them
    assert len(set(subs)) == len(subs)
    assert all(is_closed_subset(g, H) for H in subs)
    per_order = {}
    for H in subs:
        per_order[len(H)] = per_order.get(len(H), 0) + 1
    assert per_order == SUBGROUPS_PER_ORDER[g.name]
    assert is_lattice(subs)


def test_commutator_subgroups():
    s4, a4 = symmetric_group(4), alternating_group(4)
    # S4' = A4: the even permutations, the subgroup of order 12
    a4_in_s4 = next(H for H in all_subgroups(s4) if len(H) == 12)
    assert commutator_subgroup(s4, frozenset(s4.elements())) == a4_in_s4
    # A4' = V4: its only subgroup of order 4
    v4_in_a4 = next(H for H in all_subgroups(a4) if len(H) == 4)
    assert commutator_subgroup(a4, frozenset(a4.elements())) == v4_in_a4


def assert_transporter_table(X):
    """``X.transporters[x]`` is exactly the action rows of the g with
    g.x = min(G.x), in element order, and reading it leaves equality and
    hashing alone (against a validated copy)."""
    twin = GSet(X.group, X.size, X.action)
    for x in range(X.size):
        least = min(X.orbit(x))
        assert X.transporters[x] == tuple(
            X.action[g] for g in X.group.elements() if X.action[g][x] == least
        )
    assert len(X.transporters) == X.size
    assert X == twin and hash(X) == hash(twin)


@pytest.mark.parametrize("make", list(GROUP_PRESETS.values()), ids=list(GROUP_PRESETS))
def test_transporters_on_regular_gsets(make):
    g = make()
    regular = GSet(g, g.order, tuple(tuple(g.mul(a, x) for x in g.elements()) for a in g.elements()))
    assert_transporter_table(regular)
    assert_transporter_table(coset_gset(g, [g.identity]))


def test_transporters_on_random_and_derived_gsets():
    for seed in range(40):
        rng = Random(seed)
        g = random_group(rng)
        a = random_gset(rng, g, 6)
        b = random_gset(rng, g, 4)
        assert_transporter_table(a)
        assert_transporter_table(product_gset(a, b))
        assert_transporter_table(coset_gset(g, rng.choice(all_subgroups(g))))


@pytest.mark.parametrize("name", ["S4", "A4", "A5"])
def test_transporters_on_span_composition_apexes(name):
    g = GROUP_PRESETS[name]()
    for s1, s2 in composable_gfin_span_pairs(g):
        assert_transporter_table(compose_gfin_spans(s1, s2).apex)


def random_equivariant_map(rng, src, dst):
    """An equivariant map src -> dst sending each orbit representative
    to a point its stabilizer fixes, or None if some orbit has none."""
    f = [None] * src.size
    for orbit in src.orbits():
        choices = dst.fixed_points(src.stabilizer(orbit[0]))
        if not choices:
            return None
        y = rng.choice(choices)
        for src_row, dst_row in zip(src.action, dst.action):
            f[src_row[orbit[0]]] = dst_row[y]
    return f


def test_is_equivariant_matches_the_pointwise_oracle():
    """Row-by-row comparison gives the verdicts of the earlier pointwise
    body, on equivariant maps, perturbed ones, and images of the wrong
    length, negative or out of range (a negative image must not index
    from the end of an action row)."""
    verdicts = []
    for seed in range(60):
        rng = Random(seed)
        g = random_group(rng)
        src, dst = random_gset(rng, g, 6), random_gset(rng, g, 5)
        candidates = [[rng.randrange(dst.size) for _ in range(src.size)] for _ in range(2)]
        for _ in range(3):
            f = random_equivariant_map(rng, src, dst)
            if f is not None:
                broken = list(f)
                broken[rng.randrange(len(f))] = rng.randrange(dst.size)
                candidates += [f, broken]
        for f in list(candidates):
            candidates += [f[:-1], f + [0], [-1] + f[1:], f[:-1] + [dst.size], f[:-1] + [-dst.size]]
        for f in candidates:
            for pair in ((src, dst), (src, src)):
                verdict = is_equivariant(f, *pair)
                assert verdict == oracle_is_equivariant(f, *pair)
                verdicts.append(verdict)
        assert is_equivariant(tuple(range(src.size)), src, src)
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 60
