from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    mat_eq,
    mat_identity,
    naive_smith,
    oracle_is_split_injective,
    oracle_smith_normal_form,
    preimage_lattice,
)

from coarsehom import homology as homology_module
from coarsehom import snf as snf_module
from coarsehom.errors import ValidationError
from coarsehom.groups import GROUP_PRESETS, coset_gset
from coarsehom.homology import hom_is_identity, hom_is_multiplication_by, homology
from coarsehom.snf import (
    AbHom,
    FPAbGroup,
    direct_sum,
    kernel_basis,
    lattice_contains,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_int,
)
from coarsehom.spaces import maximal_space

small_matrices = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@st.composite
def wide_sparse_systems(draw):
    """Sparse m x n systems with m <= 12 and n up to 150: the shapes of
    the split-injectivity solves (few rows, many unknowns)."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 150))
    rng = draw(st.randoms(use_true_random=False))
    A = [[0] * n for _ in range(m)]
    for j in range(n):  # each unknown occurs in at most three equations
        for i in rng.sample(range(m), min(m, rng.randint(0, 3))):
            A[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
    x = [rng.randint(-2, 2) for _ in range(n)]
    b = [rng.randint(-3, 3) for _ in range(m)]
    return A, x, b


@st.composite
def reference_matrices(draw):
    """m <= 10, n <= 16, with entries in {-1, 0, 1} (unit pivots only) or
    in -6..6 (so non-unit pivots and the divisibility fold run)."""
    m = draw(st.integers(0, 10))
    n = draw(st.integers(0, 16))
    nonzero = draw(st.sampled_from([st.sampled_from((-1, 1)), st.integers(-6, 6)]))
    entry = st.one_of(st.just(0), nonzero)
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)], m, n


@settings(max_examples=300, deadline=None)
@given(reference_matrices())
def test_smith_normal_form_keeps_the_reference_pivots_and_transforms(case):
    """Every pivot, divisor and transform equals that of the reference
    implementation in ``tests/oracles.py``, in all four tracking modes."""
    A, m, n = case
    for track_u in (False, True):
        for track_v in (False, True):
            res = smith_normal_form(A, m, n, track_u=track_u, track_v=track_v)
            ref = oracle_smith_normal_form(A, m, n, track_u=track_u, track_v=track_v)
            for name in ("divisors", "pivots", "u_rows", "uinv_cols", "v_cols", "vinv_rows"):
                assert getattr(res, name) == getattr(ref, name), name


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_smith_diagonalizes_with_unimodular_transforms(A):
    m = len(A)
    n = len(A[0]) if m else 0
    res = smith_normal_form(A, m, n, track_u=True, track_v=True)
    D = mat_mul(mat_mul(res.U, A), res.V)
    at = {p: d for p, d in zip(res.pivots, res.divisors)}
    for i in range(m):
        for j in range(n):
            assert D[i][j] == at.get((i, j), 0)
    assert mat_eq(mat_mul(res.U, res.Uinv), mat_identity(m))
    assert mat_eq(mat_mul(res.V, res.Vinv), mat_identity(n))
    for a, b in zip(res.divisors, res.divisors[1:]):
        assert a > 0 and b % a == 0


@settings(max_examples=25, deadline=None)
@given(wide_sparse_systems())
def test_sparse_transforms_on_wide_systems(system):
    A, x, b = system
    m, n = len(A), len(A[0])
    res = smith_normal_form(A, m, n, track_u=True, track_v=True)
    D = mat_mul(mat_mul(res.U, A), res.V)
    at = {p: d for p, d in zip(res.pivots, res.divisors)}
    for i in range(m):
        for j in range(n):
            assert D[i][j] == at.get((i, j), 0)
    assert mat_eq(mat_mul(res.U, res.Uinv), mat_identity(m))
    assert mat_eq(mat_mul(res.V, res.Vinv), mat_identity(n))
    for a, c in zip(res.divisors, res.divisors[1:]):
        assert a > 0 and c % a == 0
    ax = mat_vec(A, x)
    sol = solve_int(A, ax, m, n)
    assert sol is not None and mat_vec(A, sol) == ax
    sol = solve_int(A, b, m, n)
    assert sol is None or mat_vec(A, sol) == b
    for k in kernel_basis(A, m, n):
        assert not any(mat_vec(A, k))


def test_untracked_transforms_have_no_views():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.U is res.Uinv is res.V is res.Vinv is None
    res = smith_normal_form([[2, 4], [6, 8]], track_v=True)
    assert res.U is None and res.V is not None


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_kernel_vectors_annihilate(A):
    m = len(A)
    n = len(A[0]) if m else 0
    for k in kernel_basis(A, m, n):
        assert all(v == 0 for v in mat_vec(A, k))


def test_solve_examples():
    assert solve_int([[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert solve_int([[2]], [3]) is None
    assert solve_int([[1, 1]], [5]) is not None
    assert solve_int([], [], 0, 3) == [0, 0, 0]


def test_vector_lengths_are_checked():
    h = AbHom(FPAbGroup(2, []), FPAbGroup(1, []), [[1, 1]])
    assert h.apply([2, 3]) == [5]
    for wrong in ([5], [1, 2, 3]):
        with pytest.raises(ValidationError, match="entries for 2 generators"):
            h.apply(wrong)
    for wrong in ([1, 7], []):
        with pytest.raises(ValidationError, match="entries for 1 rows"):
            solve_int([[1]], wrong)
    with pytest.raises(ValidationError, match="row 1 has 1 entries, not 2"):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(ValidationError, match="row 0 has 2 entries, not 1"):
        smith_normal_form([[1, 2]], 1, 1)


@settings(max_examples=50, deadline=None)
@given(small_matrices, st.lists(st.integers(-4, 4), max_size=4))
def test_solve_consistency(A, x):
    m = len(A)
    n = len(A[0]) if m else 0
    x = (x + [0] * n)[:n]
    b = mat_vec(A, x)
    sol = solve_int(A, b, m, n)
    assert sol is not None
    assert mat_vec(A, sol) == b


def test_lattice_membership():
    cols = [[2, 0], [0, 2]]
    assert lattice_contains(cols, [4, -2])
    assert not lattice_contains(cols, [1, 0])
    assert lattice_contains([], [0, 0])
    assert not lattice_contains([], [1, 0])


def test_fp_group_invariants():
    G = FPAbGroup(2, [[2, 0]])
    assert G.invariants() == (1, (2,))
    assert G.describe() == "Z + Z/2"
    H = FPAbGroup(3, [[1, 0, 0], [0, 3, 0], [0, 0, 0]])
    assert H.invariants() == (1, (3,))
    assert FPAbGroup(0, []).is_trivial()
    assert FPAbGroup(1, [[1]]).is_trivial()


def test_fp_reduce_and_equality():
    G = FPAbGroup(1, [[4]])
    assert G.equal([1], [5])
    assert not G.equal([1], [2])
    assert G.is_zero([8])
    assert G.order() == 4


def test_canonical_generators_project_to_basis():
    G = FPAbGroup(2, [[2, 0]])
    gens = G.canonical_generators()
    assert len(gens) == 2
    reduced = [G.reduce(g) for g in gens]
    # each generator reduces to a distinct unit coordinate vector
    assert sorted(reduced) == sorted({tuple(1 if i == j else 0 for i in range(2)) for j in range(2)})


def test_hom_validation():
    G = FPAbGroup(1, [[2]])
    H = FPAbGroup(1, [])
    with pytest.raises(ValidationError):
        AbHom(G, H, [[1]])  # 2 maps to 2 != 0 in Z
    AbHom(G, FPAbGroup(1, [[2]]), [[1]])  # fine: Z/2 -> Z/2


def test_hom_decision_procedures():
    Z = FPAbGroup(1, [])
    times2 = AbHom(Z, Z, [[2]])
    assert times2.is_injective()
    assert not times2.is_surjective()
    assert not times2.is_split_injective()
    ident = AbHom(Z, Z, [[1]])
    assert ident.is_isomorphism() and ident.is_split_injective()
    # Z -> Z + Z/2, injective and split
    tgt = FPAbGroup(2, [[0, 2]])
    inc = AbHom(Z, tgt, [[1], [0]])
    assert inc.is_injective() and inc.is_split_injective() and not inc.is_surjective()
    # Z/2 -> Z/4 by inclusion: injective but not split
    z2, z4 = FPAbGroup(1, [[2]]), FPAbGroup(1, [[4]])
    dbl = AbHom(z2, z4, [[2]])
    assert dbl.is_injective()
    assert not dbl.is_split_injective()
    # Z/2 -> Z/2 + Z/4 as a summand: split
    tgt2 = FPAbGroup(2, [[2, 0], [0, 4]])
    summand = AbHom(z2, tgt2, [[1], [0]])
    assert summand.is_split_injective()
    # quotient Z -> Z/2 is surjective, not injective
    q = AbHom(Z, z2, [[1]])
    assert q.is_surjective() and not q.is_injective()


def _random_hom(rng):
    """A hom Z^a / R -> dst with a, b <= 3, where R is all, a random
    subset, or integer multiples of the columns of the preimage lattice
    of dst's relations: injective, injective but not split, and split
    maps all occur."""
    a, b = rng.randint(0, 3), rng.randint(0, 3)
    M = [[rng.randint(-3, 3) for _ in range(a)] for _ in range(b)]
    dst = FPAbGroup(b, [[rng.randint(-4, 4) for _ in range(b)] for _ in range(rng.randint(0, 3))])
    lattice = preimage_lattice(AbHom(FPAbGroup(a, []), dst, M))
    mode = rng.choice(("all", "subset", "multiples"))
    if mode == "all":
        rels = lattice
    elif mode == "subset":
        rels = [c for c in lattice if rng.random() < 0.5]
    else:
        rels = [[k * x for x in c] for c in lattice for k in [rng.randint(1, 4)]]
    return AbHom(FPAbGroup(a, rels), dst, M)


def test_split_injectivity_matches_the_retraction_oracle():
    """Miyata's criterion (injective, and dst = src + coker as invariants)
    against the explicit search for a retraction, on 1,500 seeded maps."""
    rng = Random("split-injective")
    seen = set()
    for _ in range(1500):
        h = _random_hom(rng)
        verdict = h.is_split_injective()
        assert verdict == oracle_is_split_injective(h), (h.matrix, h.src.relations, h.dst.relations)
        seen.add((h.is_injective(), verdict))
    assert seen == {(False, False), (True, False), (True, True)}


def test_injectivity_and_surjectivity_match_the_kernel_oracle():
    """The verdicts read off one Smith form of [M | R] against the
    preimage lattice (an integer kernel) and the textbook reduction,
    including maps with no generators on either side."""
    rng = Random("inject-surject")
    seen = set()
    for _ in range(800):
        h = _random_hom(rng)
        a, b = h.src.ngens, h.dst.ngens
        injective = all(h.src.is_zero(p) for p in preimage_lattice(h))
        block = [list(row) + [c[i] for c in h.dst.relations] for i, row in enumerate(h.matrix)]
        divisors, rank = naive_smith(block) if b else ([], 0)
        surjective = rank == b and all(d == 1 for d in divisors)
        assert (h.is_injective(), h.is_surjective()) == (injective, surjective)
        seen.add((injective, surjective, a == 0, b == 0))
    assert {(i, s) for i, s, _a, _b in seen} == {(False, False), (False, True), (True, False), (True, True)}
    assert any(a0 for *_v, a0, _b in seen) and any(b0 for *_v, _a, b0 in seen)


@pytest.mark.parametrize(
    "matrix, src_relations, dst_relations, split",
    [
        pytest.param(
            [[3, -3, 2, 3], [-2, -2, -3, 1], [3, -3, 0, 0], [-2, -2, -3, 0]],
            [[38, 34, 0, 189], [53280, 47520, -108, 264120], [3922, 3498, -8, 19442]],
            [[4, 6, 0, -1], [0, 6, 0, 0], [1, -1, 4, 0]],
            False,
            id="not-injective",
        ),
        pytest.param(
            [[-1, 3, 2, -2], [-2, -2, 3, 1], [1, 3, 3, -3], [-3, -1, 2, -1]],
            [[51, -125, -10, -118], [-180, 444, 36, 420], [200, -487, -40, -460]],
            [[3, 0, 0, -1], [0, 0, 0, 4], [2, 6, 1, 6]],
            True,
            id="split",
        ),
    ],
)
def test_split_injectivity_pinned_cases(matrix, src_relations, dst_relations, split):
    # the oracle's retraction system is too slow here to run: its tracked
    # SNF blows up coefficients on these relations
    h = AbHom(FPAbGroup(4, src_relations), FPAbGroup(4, dst_relations), matrix)
    assert h.is_injective() == split
    assert h.is_split_injective() == split


def test_hom_equality_is_modulo_the_target():
    Z, Z4 = FPAbGroup(1, []), FPAbGroup(1, [[4]])
    assert AbHom(Z, Z4, [[1]]).equals(AbHom(Z, Z4, [[5]]))
    assert not AbHom(Z, Z4, [[1]]).equals(AbHom(Z, Z4, [[3]]))
    assert hom_is_multiplication_by(AbHom(Z4, Z4, [[7]]), 3)
    assert hom_is_identity(AbHom(Z4, Z4, [[5]]))


def test_hom_equality_mismatches_are_false_not_errors():
    Z, Z2, Z4 = FPAbGroup(1, []), FPAbGroup(1, [[2]]), FPAbGroup(1, [[4]])
    Z2sq = direct_sum([Z2, Z2])
    # Z/2 -> Z/4, 1 -> 2: the identity matrix would not descend
    doubling = AbHom(Z2, Z4, [[2]])
    assert not hom_is_identity(doubling)
    assert not hom_is_multiplication_by(doubling, 3)
    # shape mismatches
    fold = AbHom(Z2sq, Z2, [[1, 1]])
    assert not hom_is_identity(fold)
    assert not fold.equals(AbHom(Z, Z, [[1]]))
    assert not AbHom(Z, Z, [[1]]).equals(fold)
    assert not AbHom(Z, Z2sq, [[1], [0]]).equals(AbHom(Z, Z2, [[1]]))
    assert not fold.agrees_with([[1]])


def test_direct_sum_keeps_block_then_extra_relations():
    Z2, Z3 = FPAbGroup(1, [[2]]), FPAbGroup(2, [[0, 3]])
    S = direct_sum([Z2, Z3], [[1, 1, 0]])
    assert S.ngens == 3
    assert S.relations == [[2, 0, 0], [0, 0, 3], [1, 1, 0]]
    assert S.invariants() == (0, (6,))  # Z/2 + Z + Z/3 modulo (1, 1, 0) is Z/6


# -- the (1, 0) worklist against the reference --------------------------------


def assert_same_as_reference(A, m, n):
    """Divisors, pivots and transforms equal the reference's in all four
    tracking modes."""
    for track_u in (False, True):
        for track_v in (False, True):
            res = smith_normal_form(A, m, n, track_u=track_u, track_v=track_v)
            ref = oracle_smith_normal_form(A, m, n, track_u=track_u, track_v=track_v)
            for name in ("divisors", "pivots", "u_rows", "uinv_cols", "v_cols", "vinv_rows"):
                assert getattr(res, name) == getattr(ref, name), (name, track_u, track_v)


def seeded_matrix(rng, kind):
    """One m x n matrix of the given kind, m <= 60 and n <= 200."""
    if kind == "wide":  # few rows, many columns: the split-injectivity shape
        m, n = rng.randint(1, 4), rng.randint(20, 200)
    elif kind == "small":  # entries in -6..6 grow under elimination: keep it small
        m, n = rng.randint(1, 24), rng.randint(1, 60)
    else:
        m, n = rng.randint(1, 60), rng.randint(1, 120)
    if kind == "incidence":  # columns of two units: singletons appear as rows go
        A = [[0] * n for _ in range(m)]
        for j in range(n):
            for i, v in zip(rng.sample(range(m), min(m, 2)), (1, -1)):
                A[i][j] = v
        return A, m, n
    if kind == "cut":  # rows of two units: rows shrink to length 1
        A = [[0] * n for _ in range(m)]
        for i in range(m):
            for j, v in zip(rng.sample(range(n), min(n, 2)), (1, -1)):
                A[i][j] = v
        return A, m, n
    if kind == "small":
        values, density = [v for v in range(-6, 7) if v], rng.choice((0.05, 0.1, 0.2))
    else:
        values, density = (-1, 1), rng.choice((0.03, 0.1, 0.3))
    A = [[rng.choice(values) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    if kind == "holes":  # zero rows, zero columns and duplicate columns
        for i in rng.sample(range(m), m // 4):
            A[i] = [0] * n
        for j in rng.sample(range(n), n // 4):
            for row in A:
                row[j] = 0
        for _ in range(n // 5):
            a, b = rng.randrange(n), rng.randrange(n)
            for row in A:
                row[b] = row[a]
    return A, m, n


@pytest.mark.parametrize("kind", ["units", "small", "holes", "wide", "incidence", "cut"])
def test_worklist_keeps_the_reference_pivots_on_seeded_matrices(kind):
    """Up to 60 x 200: the (1, 0) worklist and the pruned scan choose
    every pivot the reference's full scan chooses."""
    rng = Random(f"snf-{kind}")
    for _ in range(12):
        A, m, n = seeded_matrix(rng, kind)
        assert_same_as_reference(A, m, n)


def recorded_snf_calls(monkeypatch, run):
    """Every matrix (dense, m, n) that ``run`` hands to smith_normal_form
    through the homology layer."""
    calls = []

    def record(dense, m=None, n=None, track_u=False, track_v=False):
        calls.append(([list(r) for r in dense], m, n))
        return smith_normal_form(dense, m, n, track_u, track_v)

    monkeypatch.setattr(snf_module, "smith_normal_form", record)
    monkeypatch.setattr(homology_module, "smith_normal_form", record)
    run()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("group, maxdeg", [("C6", 3), ("S3", 3), ("A4", 2)])
def test_worklist_keeps_the_reference_pivots_on_homology_matrices(monkeypatch, group, maxdeg):
    """The boundary and presentation matrices of a regular orbit with the
    maximal structure, in every tracking mode."""
    G = GROUP_PRESETS[group]()
    X = maximal_space(coset_gset(G, [G.identity]))
    calls = recorded_snf_calls(monkeypatch, lambda: homology(X, maxdeg))
    assert calls
    for A, m, n in calls:
        assert_same_as_reference(A, m, n)
