"""Acceptance suite: every criterion runs at its stated size and
tolerance (exact integer equality throughout) and prints one PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import subprocess
import sys
from random import Random

from oracles import brute_force_homology, oracle_assembly_verdicts
from coarsehom.axioms import (
    check_additivity,
    check_coarse_invariance,
    check_excision,
    check_strong_additivity,
    check_u_continuity,
    check_weak_transfers,
)
from coarsehom.groups import (
    GSet,
    all_subgroups,
    alternating_group,
    coset_gset,
    cyclic_group,
    family_solvable,
    subgroup_class_representatives,
    symmetric_group,
    trivial_group,
    trivial_gset,
)
from coarsehom.homology import (
    SpaceComplex,
    hom_is_multiplication_by,
    induced_map,
    pullback_chain_cols,
    pushforward_chain_cols,
    scols_eq,
    scols_mul,
)
from coarsehom.mackey import (
    EMContext,
    EM_object,
    GFinSpan,
    M,
    assembly,
    burnside_marks,
    compose_gfin_spans,
    double_coset_check,
    hom_equal,
)
from coarsehom.randgen import (
    FuzzConfig,
    random_composable_spans,
    random_complementary_pair,
    random_gfin_span,
    random_group,
    random_gset,
    random_space,
    random_span,
)
from coarsehom.spaces import (
    bounded_union,
    make_space,
    maximal_space,
    minimal_space,
    point_space,
)
from coarsehom.spans import (
    component_inclusion,
    component_projection,
    compose,
    fold_morphism,
    hom_monoid_add,
    identity_span,
    make_span,
    pullback,
    spans_isomorphic,
    transfer_I,
)
from coarsehom.tape import TapeMap, TapeSpace, check_flasque_witness


def report(num, name, ok):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_chain_identities_on_fuzzed_squares():
    """u* o w* = (wu)* and h_* o u* = v* o f_* as exact integer matrix
    identities in degrees 0..2, over at least 500 fuzzed admissible
    squares with all four spaces at most 8 points."""
    rng = Random(10001)
    cfg = FuzzConfig(max_points=5, max_component=3, max_copies=1)
    count = 0
    ok = True
    while count < 500:
        s1, s2 = random_composable_spans(rng, cfg)
        if max(s1.apex.size, s2.apex.size, s1.src.size, s1.dst.size, s2.dst.size) > 8:
            continue
        P, u, h = pullback(s1.right, s1.apex, s2.left, s2.apex, s1.dst)
        if P.size > 8:
            continue
        cxP = SpaceComplex(P, 2)
        cxW = SpaceComplex(s1.apex, 2)
        cxV = SpaceComplex(s2.apex, 2)
        cxX = SpaceComplex(s1.src, 2)
        cxY = SpaceComplex(s1.dst, 2)
        wu = tuple(s1.left[u[i]] for i in range(P.size))
        for n in range(3):
            pull_u = pullback_chain_cols(u, P, s1.apex, cxP, cxW, n)
            lhs = scols_mul(pull_u, pullback_chain_cols(s1.left, s1.apex, s1.src, cxW, cxX, n))
            rhs = pullback_chain_cols(wu, P, s1.src, cxP, cxX, n)
            if not scols_eq(lhs, rhs):
                ok = False
            lhs2 = scols_mul(pushforward_chain_cols(h, P, s2.apex, cxP, cxV, n), pull_u)
            rhs2 = scols_mul(
                pullback_chain_cols(s2.left, s2.apex, s1.dst, cxV, cxY, n),
                pushforward_chain_cols(s1.right, s1.apex, s1.dst, cxW, cxY, n),
            )
            if not scols_eq(lhs2, rhs2):
                ok = False
        count += 1
    report(1, f"chain identities on {count} squares", ok)


def test_criterion_2_transfer_fold_law():
    """Folding after the transfer multiplies homology by |I|, exactly,
    in degrees 0..2, for the three stated spaces and |I| in {2, 3, 5}."""
    triv = trivial_group()
    c2 = cyclic_group(2)
    spaces = [
        point_space(triv),
        minimal_space(trivial_gset(triv, 3)),
        minimal_space(GSet(c2, 2, ((0, 1), (1, 0)))),
    ]
    ok = True
    for X in spaces:
        for k in (2, 3, 5):
            I = trivial_gset(X.group, k)
            comp = compose(transfer_I(X, I), fold_morphism(X, I))
            homs = induced_map(comp, 2)
            if not all(hom_is_multiplication_by(h, k) for h in homs):
                ok = False
    report(2, "transfer-fold law |I| in {2,3,5}", ok)


def test_criterion_3_homotopy_category_laws():
    """p_i o j_i = id, the transfer decomposes as tr' + j_i, and span
    composition is associative and unital on at least 500 fuzzed triples."""
    triv = trivial_group()
    c2 = cyclic_group(2)
    ok = True
    for X in (minimal_space(trivial_gset(triv, 3)), minimal_space(GSet(c2, 2, ((0, 1), (1, 0))))):
        I = trivial_gset(X.group, 3)
        for i in range(3):
            ji = component_inclusion(X, I, i)
            pi = component_projection(X, I, i)
            if not spans_isomorphic(compose(ji, pi), identity_span(X)):
                ok = False
        # tr_{X, I} = tr_{X, I'} + j_2 with I' the first two indices
        tr = transfer_I(X, I)
        I2 = trivial_gset(X.group, 2)
        W3 = bounded_union(I, X)
        tr_sub = make_span(
            X,
            bounded_union(I2, X),
            W3,
            transfer_I(X, I2).left,
            tuple(idx for idx in range(2 * X.size)),
        )
        j2 = component_inclusion(X, I, 2)
        if not spans_isomorphic(hom_monoid_add(tr_sub, j2), tr):
            ok = False

    rng = Random(10003)
    cfg = FuzzConfig(max_points=5, max_component=3, max_copies=1)
    count = 0
    while count < 500:
        s1, s2 = random_composable_spans(rng, cfg)
        s3 = random_span(rng, s2.dst, cfg)
        if max(s1.apex.size, s2.apex.size, s3.apex.size) > 8:
            continue
        lhs = compose(compose(s1, s2), s3)
        rhs = compose(s1, compose(s2, s3))
        if not spans_isomorphic(lhs, rhs):
            ok = False
        if not spans_isomorphic(compose(identity_span(s1.src), s1), s1):
            ok = False
        if not spans_isomorphic(compose(s1, identity_span(s1.dst)), s1):
            ok = False
        count += 1
    report(3, f"homotopy-category laws on {count} triples", ok)


def test_criterion_4_homology_axioms_fuzzed():
    """Coarse invariance, excision, u-continuity, additivity, weak
    transfers and strong additivity as exact homology isomorphisms or
    identities on at least 200 fuzzed finite spaces, degrees 0..2."""
    rng = Random(10007)
    cfg = FuzzConfig(max_points=6, max_component=3)
    ok = True
    for trial in range(200):
        X = random_space(rng, cfg)
        good, _ = check_coarse_invariance(X, 2)
        ok = ok and good
        Z, Ys = random_complementary_pair(rng, X)
        good, _ = check_excision(X, Z, Ys, 2)
        ok = ok and good
        good, _ = check_u_continuity(X, 2)
        ok = ok and good
        I = trivial_gset(X.group, 2 + trial % 2)
        ok = ok and check_weak_transfers(X, I, 2)
        X2 = random_space(rng, cfg, group=X.group)
        ok = ok and check_additivity([X, X2], 2)
        ok = ok and check_strong_additivity([X, X2], 2)
        if not ok:
            break
    report(4, "homology axioms on 200 fuzzed spaces", ok)


def test_criterion_5_flasque_witness_validator():
    """Accepts the band-tape shift, rejects the identity on every
    nonempty finite fixture; 100% on the fixture set."""
    triv = trivial_group()
    c2 = cyclic_group(2)
    rng = Random(10009)
    finite_fixtures = [
        point_space(triv),
        minimal_space(trivial_gset(triv, 3)),
        maximal_space(trivial_gset(triv, 4)),
        minimal_space(GSet(c2, 2, ((0, 1), (1, 0)))),
        make_space(
            trivial_gset(triv, 3),
            [frozenset({(0, 1), (1, 0)}), frozenset({(1, 2), (2, 1)})],
        ),
    ] + [random_space(rng, FuzzConfig(max_points=6, max_component=3)) for _ in range(10)]
    ok = True
    for X in finite_fixtures:
        accepted, _ = check_flasque_witness(X, None)
        if accepted:
            ok = False
    fibers = [
        point_space(triv),
        minimal_space(trivial_gset(triv, 2)),
        maximal_space(trivial_gset(triv, 2)),
        minimal_space(GSet(c2, 2, ((0, 1), (1, 0)))),
    ]
    for fiber in fibers:
        T = TapeSpace(fiber, "band", "finite_window")
        for shift in (1, 2):
            s = TapeMap("shift", T, T, tuple(range(fiber.size)), shift)
            accepted, diag = check_flasque_witness(T, s)
            if not accepted:
                ok = False
    report(5, "flasqueness witness validator fixtures", ok)


def test_criterion_6_mackey_layer():
    """Double cosets exact for all (H, K) in C2, C3, C4, S3; EM
    functoriality exact on at least 300 fuzzed composable span pairs;
    marks multiplicativity exact; EM(G/H)_0 matches the brute-force
    oracle for every subgroup of S3."""
    ok = True
    for gfn in (
        lambda: cyclic_group(2),
        lambda: cyclic_group(3),
        lambda: cyclic_group(4),
        lambda: symmetric_group(3),
    ):
        g = gfn()
        reps = subgroup_class_representatives(g)
        for H in reps:
            for K in reps:
                if not double_coset_check(g, H, K, 1):
                    ok = False

    rng = Random(10013)
    cfg = FuzzConfig(max_points=6)
    ctxs = {}
    count = 0
    while count < 300:
        g = random_group(rng)
        ctx = ctxs.setdefault(g.name, EMContext(1))
        A = random_gset(rng, g, 6)
        s1 = random_gfin_span(rng, A, cfg)
        s2 = random_gfin_span(rng, s1.dst, cfg)
        comp = compose_gfin_spans(s1, s2)
        lhs = ctx.em_morphism(comp)
        h1 = ctx.em_morphism(s1)
        h2 = ctx.em_morphism(s2)
        for n in range(2):
            if not hom_equal(lhs[n], h1[n].compose(h2[n])):
                ok = False
        count += 1

    for _ in range(100):
        g = random_group(rng)
        pt = trivial_gset(g, 1)
        a1 = random_gfin_span(rng, pt, cfg)
        a1 = GFinSpan(pt, pt, a1.apex, (0,) * a1.apex.size, (0,) * a1.apex.size)
        a2 = random_gfin_span(rng, pt, cfg)
        a2 = GFinSpan(pt, pt, a2.apex, (0,) * a2.apex.size, (0,) * a2.apex.size)
        virt = compose_gfin_spans(a1, a2)
        m1, m2, mc = (burnside_marks(s.apex) for s in (a1, a2, virt))
        if mc != tuple(x * y for x, y in zip(m1, m2)):
            ok = False

    s3 = symmetric_group(3)
    for H in all_subgroups(s3):
        S = coset_gset(s3, H)
        if EM_object(S, 0).degrees != tuple(brute_force_homology(M(S), 0)):
            ok = False
    report(6, "Mackey layer (double cosets, functoriality x300, marks, oracle)", ok)


def test_criterion_7_assembly_shadow_a5():
    """The degree-0 assembly for A5 over the solvable family: the
    {injective, split} verdict must agree exactly with the independent
    colimit oracle, and the report is labeled empirical (the
    spectrum-level statement is not reproduced)."""
    a5 = alternating_group(5)
    sol = family_solvable(a5)
    r = assembly(a5, sol, 0)
    oi, osp = oracle_assembly_verdicts(a5, sol)
    agree = (r.injective, r.split) == (oi, osp)
    labeled = r.label == "empirical" and "empirical" in r.verdict_line()
    report(7, f"A5/Sol assembly verdict {(r.injective, r.split)} agrees with oracle", agree and labeled)


CLI_COMMANDS = [
    ["homology", "fixtures/c2_workspace.json", "--name", "Y", "--format", "json"],
    ["induced-map", "fixtures/c2_workspace.json", "--name", "tr", "--max-degree", "1", "--format", "json"],
    ["check-covering", "fixtures/c2_workspace.json", "--name", "proj", "--format", "json"],
    ["check-square", "fixtures/c2_workspace.json", "--format", "json"],
    ["compose", "fixtures/c2_workspace.json", "--left", "tr", "--right", "iota_proj", "--format", "json"],
    ["check-axioms", "fixtures/c2_workspace.json", "--name", "Y", "--format", "table"],
    ["mackey-table", "fixtures/c2_workspace.json", "--group", "c2", "--format", "csv"],
    ["assembly", "fixtures/c2_workspace.json", "--group", "c2", "--family", "triv", "--format", "json"],
    ["fuzz", "--seed", "42", "--cases", "10", "--format", "json"],
]


def test_criterion_8_cli_determinism():
    """Every CLI command byte-reproducible across three runs."""
    ok = True
    for argv in CLI_COMMANDS:
        outs = []
        for _ in range(3):
            cmd = [sys.executable, "-m", "coarsehom.cli"] + argv
            res = subprocess.run(cmd, capture_output=True, cwd=".")
            if res.returncode != 0:
                ok = False
            outs.append(res.stdout)
        if not (outs[0] == outs[1] == outs[2]):
            ok = False
    report(8, "CLI byte-determinism across runs", ok)
