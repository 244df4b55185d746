"""The benchmark's four workloads.

Each workload function turns (library, group presets, seed) into a
fixed list of jobs.  A job is one user query -- one ``homology`` call,
one law check, one CLI invocation -- and carries the check that
decides, after the timed phase, whether its output is correct.  All
inputs are generated here, before timing; the timed phase passes the
program only the generated objects.

Costs are stratified: the *shape* of every job is the same for every
seed -- group, subgroup type, layout and degree for bar-homology;
checker, group and (closely matched) chain-basis size of the spaces for
axiom-sweep; law and group for span-calculus; the whole job list for
mackey-assembly.  The seed picks the concrete instance (which subgroup
of a type, point labels, random spaces and spans).  The work per pass
then stays comparable across seeds while the inputs differ.  Jobs run in
the order they are built, not shuffled: with the caches cold at the
start of each pass, the order decides which job pays for a lattice or a
coset G-set.  Over five seeds of mackey-assembly on a 2-vCPU VM, the
quartile spread of job_p50_ms was 0.11 with a seed-shuffled order and
0.05 in build order.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass
from random import Random
from types import SimpleNamespace
from typing import Callable

import textbook

MODULES = ("groups", "spaces", "tape", "spans", "snf", "homology", "axioms", "mackey", "randgen", "cli")


def load_library():
    """Import coarsehom afresh (dropping any loaded copy), so that
    every set-up repetition pays the imports a fresh process pays."""
    for name in list(sys.modules):
        if name == "coarsehom" or name.startswith("coarsehom."):
            del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"coarsehom.{m}") for m in MODULES})


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]  # called on the output after timing


@dataclass
class Env:
    lib: SimpleNamespace
    presets: dict
    rng: Random
    root: str  # checkout root
    out_dir: str  # output directory inside the checkout
    oracles: Callable[[], object]  # loads tests/oracles.py on first use
    seed: int


def _is_true(out):
    return out is True


def _first_true(out):
    return out[0] is True


# -- bar-homology --------------------------------------------------------------

BAR_GROUPS = ("C2", "C3", "C4", "C5", "C6", "V4", "S3", "D4", "A4")
# largest top-degree basis of one slice, in orbits; A4 at degree 2 is 1728
BAR_BASIS_LIMIT = 1728


def _subgroups_by_type(env, grp):
    out = {}
    for K in env.lib.groups.all_subgroups(grp):
        out.setdefault(textbook.iso_type(grp, K), []).append(K)
    return out


def _free_space(env, grp, parts):
    """A space on ``len(parts)`` regular orbits, points labelled at random.

    ``parts`` lists, per regular orbit, the subgroup K whose left cosets
    xK are the coarse components there; a part ``("glued", K)`` instead
    joins coset xK of orbit 0 with coset xK of orbit 1 into one component
    (a free K-set with two orbits).  Every component carries the maximal
    structure.  Returns (space, stabilizer subgroup of each slice).
    """
    lib, rng = env.lib, env.rng
    copies = 2 if parts[0] == "glued" or len(parts) == 2 else 1
    pts = [(c, x) for c in range(copies) for x in grp.elements()]
    perm = list(range(len(pts)))
    rng.shuffle(perm)
    label = {p: perm[i] for i, p in enumerate(pts)}
    action = [[0] * len(pts) for _ in grp.elements()]
    for h in grp.elements():
        for c, x in pts:
            action[h][label[(c, x)]] = label[(c, grp.mul(h, x))]
    gset = lib.groups.GSet(grp, len(pts), tuple(tuple(r) for r in action))

    blocks = {}
    block_of = [0] * len(pts)
    if parts[0] == "glued":
        K = parts[1]
        stabs = [K]
        for c, x in pts:
            key = frozenset(grp.mul(x, k) for k in K)
            block_of[label[(c, x)]] = blocks.setdefault(key, len(blocks))
    else:
        stabs = list(parts)
        for c, x in pts:
            key = (c, frozenset(grp.mul(x, k) for k in parts[c]))
            block_of[label[(c, x)]] = blocks.setdefault(key, len(blocks))
    # the maximal structure on every component, generated by one
    # invariant entourage (make_space numbers the blocks canonically)
    U = frozenset((a, b) for a in range(len(pts)) for b in range(len(pts)) if block_of[a] == block_of[b])
    return lib.spaces.make_space(gset, [U], name="bar"), stabs


def _bar_shapes(by_type):
    """(group, layout, subgroup types, degree) for every job; the same
    list for every seed."""
    shapes = []
    for gname in BAR_GROUPS:
        types = sorted(by_type[gname], key=lambda t: (len(by_type[gname][t][0]), t))
        for d in (2, 3):
            known = [t for t in types if d < len(textbook.GROUP_HOMOLOGY[t])]
            for i, t in enumerate(known):
                k = len(by_type[gname][t][0])
                if k ** (d + 1) <= BAR_BASIS_LIMIT:
                    shapes.append((gname, "cosets", (t,), d))
                    if i:
                        shapes.append((gname, "two", (t, known[i - 1]), d))
                if (2 * k) ** (d + 2) // k <= BAR_BASIS_LIMIT // 2:
                    shapes.append((gname, "glued", (t,), d))
    # S4 only at degree 1: its regular orbit reaches 24^3 tuples there
    for t in sorted(by_type["S4"], key=lambda t: (len(by_type["S4"][t][0]), t)):
        shapes.append(("S4", "cosets", (t,), 1))
    return shapes


def build_bar_homology(env):
    lib, rng = env.lib, env.rng
    by_type = {g: _subgroups_by_type(env, env.presets[g]) for g in BAR_GROUPS + ("S4",)}
    jobs = []
    for gname, layout, types, d in _bar_shapes(by_type):
        grp = env.presets[gname]
        subs = [rng.choice(by_type[gname][t]) for t in types]
        parts = ("glued", subs[0]) if layout == "glued" else tuple(subs)
        X, stabs = _free_space(env, grp, parts)
        expected = textbook.expected_homology([textbook.iso_type(grp, K) for K in stabs], d)
        jobs.append(
            Job(
                f"homology[{gname},{layout},{'+'.join(types)},d={d}]",
                lambda X=X, d=d: lib.homology.homology(X, d),
                lambda out, e=expected: out.degrees == e,
            )
        )
    return jobs


# -- axiom-sweep ---------------------------------------------------------------

AXIOM_SPACES = 90


def _basis_size(X, n=3):
    """Number of orbits of component-constrained (n+1)-tuples of X, by
    Burnside's lemma per component: the size of the degree-n chain
    basis, which sets the cost of every check on X."""
    act, block = X.carrier.action, X.coarse.block
    total = 0
    for c in X.components():
        for g in X.group.elements():
            if block[act[g][c[0]]] == block[c[0]]:
                total += sum(1 for x in c if act[g][x] == x) ** (n + 1)
    return total / X.group.order


def _random_space_near(RG, rng, cfg, grp, target, pool=8):
    """Of ``pool`` random_space draws, the one whose basis size is
    closest to ``target`` (by ratio)."""
    draws = [RG.random_space(rng, cfg, group=grp) for _ in range(pool)]
    return min(draws, key=lambda X: abs(math.log((_basis_size(X) + 1) / (target + 1))))


def build_axiom_sweep(env):
    lib, rng = env.lib, env.rng
    RG, AX, G = lib.randgen, lib.axioms, lib.groups
    cfg = RG.FuzzConfig(max_points=6, max_component=3)
    catalog = [make() for make in RG.GROUP_CATALOG]
    # the basis sizes come from one fixed draw, the spaces from the seed
    ref = Random(0)
    jobs = []
    for i in range(AXIOM_SPACES):
        grp = catalog[i % len(catalog)]
        sizes = [_basis_size(RG.random_space(ref, cfg, group=grp)) for _ in range(2)]
        X = _random_space_near(RG, rng, cfg, grp, sizes[0])
        Z, Ys = RG.random_complementary_pair(rng, X)
        I = G.trivial_gset(grp, 1 + rng.randrange(3))
        parts = [X, _random_space_near(RG, rng, cfg, grp, sizes[1])]
        jobs += [
            Job("coarse-invariance", lambda X=X: AX.check_coarse_invariance(X, 2), _first_true),
            Job("excision", lambda X=X, Z=Z, Ys=Ys: AX.check_excision(X, Z, Ys, 2), _first_true),
            Job("u-continuity", lambda X=X: AX.check_u_continuity(X, 2), _first_true),
            Job("weak-transfers", lambda X=X, I=I: AX.check_weak_transfers(X, I, 2), _is_true),
            Job("additivity", lambda p=parts: AX.check_additivity(p, 2), _is_true),
            Job("strong-additivity", lambda p=parts: AX.check_strong_additivity(p, 2), _is_true),
        ]
    return jobs


# -- span-calculus -------------------------------------------------------------

SPAN_CASES = 800


def _chain_identities(lib, s1, s2, N=2):
    """Chain-level identities of the composite of s1 and s2: pullback is
    functorial (u^* w^* = (w u)^*) and the square satisfies base change
    (h_* u^* = g^* f_*), for degrees 0..N."""
    HM = lib.homology
    P, u, h = lib.spans.pullback(s1.right, s1.apex, s2.left, s2.apex, s1.dst)
    cxP = HM.SpaceComplex(P, N)
    cxW = HM.SpaceComplex(s1.apex, N)
    cxV = HM.SpaceComplex(s2.apex, N)
    cxX = HM.SpaceComplex(s1.src, N)
    cxY = HM.SpaceComplex(s1.dst, N)
    wu = tuple(s1.left[u[i]] for i in range(P.size))
    for n in range(N + 1):
        lhs = HM.scols_mul(
            HM.pullback_chain_cols(u, P, s1.apex, cxP, cxW, n),
            HM.pullback_chain_cols(s1.left, s1.apex, s1.src, cxW, cxX, n),
        )
        if not HM.scols_eq(lhs, HM.pullback_chain_cols(wu, P, s1.src, cxP, cxX, n)):
            return False
        lhs = HM.scols_mul(
            HM.pushforward_chain_cols(h, P, s2.apex, cxP, cxV, n),
            HM.pullback_chain_cols(u, P, s1.apex, cxP, cxW, n),
        )
        rhs = HM.scols_mul(
            HM.pullback_chain_cols(s2.left, s2.apex, s1.dst, cxV, cxY, n),
            HM.pushforward_chain_cols(s1.right, s1.apex, s1.dst, cxW, cxY, n),
        )
        if not HM.scols_eq(lhs, rhs):
            return False
    return True


def build_span_calculus(env):
    lib, rng = env.lib, env.rng
    RG, SPN = lib.randgen, lib.spans
    cfg = RG.FuzzConfig(max_points=6, max_component=3, max_copies=2)
    catalog = [make() for make in RG.GROUP_CATALOG]
    jobs = []
    for i in range(SPAN_CASES):
        X = RG.random_space(rng, cfg, group=catalog[i % len(catalog)])
        s1 = RG.random_span(rng, X, cfg)
        s2 = RG.random_span(rng, s1.dst, cfg)
        s3 = RG.random_span(rng, s2.dst, cfg)
        jobs += [
            Job(
                "associativity",
                lambda a=s1, b=s2, c=s3: SPN.spans_isomorphic(
                    SPN.compose(SPN.compose(a, b), c), SPN.compose(a, SPN.compose(b, c))
                ),
                _is_true,
            ),
            Job(
                "left-unit",
                lambda a=s1: SPN.spans_isomorphic(SPN.compose(SPN.identity_span(a.src), a), a),
                _is_true,
            ),
            Job(
                "right-unit",
                lambda a=s1: SPN.spans_isomorphic(SPN.compose(a, SPN.identity_span(a.dst)), a),
                _is_true,
            ),
            Job("chain-identities", lambda a=s1, b=s2: _chain_identities(lib, a, b), _is_true),
        ]
    return jobs


# -- mackey-assembly -----------------------------------------------------------

FAMILIES = ("triv", "sol", "all")


def _family(lib, grp, name):
    G = lib.groups
    return {"triv": G.family_trivial, "sol": G.family_solvable, "all": G.family_all}[name](grp)


def _assembly_summary(r):
    return (r.injective, r.split, r.colimit.invariants(), r.target.invariants(), r.label)


def _cli_call(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lib.cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _cli_clean(out):
    rc, stdout, stderr = out
    return rc == 0 and "Traceback" not in stdout + stderr and not stderr


def _workspace_doc(env, preset):
    """A workspace on one group preset with its coset G-sets and the
    minimal and maximal spaces on them, so a CLI call parses and
    validates a realistic document."""
    grp = env.presets[preset]
    reps = env.lib.groups.subgroup_class_representatives(grp)
    gsets, spaces = {}, {}
    for i, H in enumerate(reps):
        gsets[f"cosets{i}"] = {"group": "g", "cosets_of": sorted(H)}
        spaces[f"min{i}"] = {"gset": f"cosets{i}", "coarse": {"preset": "minimal"}}
        spaces[f"max{i}"] = {"gset": f"cosets{i}", "coarse": {"preset": "maximal"}}
    return {"schema": 1, "groups": {"g": {"preset": preset}}, "gsets": gsets, "spaces": spaces}


def build_mackey_assembly(env):
    lib, rng, P = env.lib, env.rng, env.presets
    MK = lib.mackey
    jobs = []
    for gname in ("S4", "A4"):
        grp = P[gname]
        reps = lib.groups.subgroup_class_representatives(grp)
        for H in reps:
            for K in reps:
                jobs.append(
                    Job(
                        f"double-coset[{gname}]",
                        lambda g=grp, H=H, K=K: MK.double_coset_check(g, H, K, 0),
                        _is_true,
                    )
                )

    def degree0_check(grp, fam):
        def check(out):
            return out[:2] == tuple(env.oracles().oracle_assembly_verdicts(grp, fam))

        return check

    def degree1_check(out):
        # minimal spaces have homology Z in degree 0 only, so in degree 1
        # both sides vanish and the map is split injective
        return out == (True, True, (0, ()), (0, ()), "empirical")

    for gname, degrees in (("A5", (0,)), ("S4", (0, 1)), ("A4", (0, 1))):
        grp = P[gname]
        for fname in FAMILIES:
            fam = _family(lib, grp, fname)
            for d in degrees:
                jobs.append(
                    Job(
                        f"assembly[{gname},{fname},d={d}]",
                        lambda g=grp, f=fam, d=d: _assembly_summary(MK.assembly(g, f, d)),
                        degree0_check(grp, fam) if d == 0 else degree1_check,
                    )
                )

    fixture = f"{env.root}/fixtures/c2_workspace.json"

    def run_fixture_check(out):
        inj, split = env.oracles().oracle_assembly_verdicts(
            P["C2"], _family(lib, P["C2"], "triv")
        )
        text = out[1]
        return (
            _cli_clean(out)
            and all(f"== task {i}:" in text for i in range(4))
            and "FAIL" not in text
            and f"injective={inj} split={split}" in text
        )

    jobs.append(Job("cli[run]", lambda: _cli_call(lib, ["run", fixture]), run_fixture_check))
    jobs.append(
        Job(
            "cli[check-axioms]",
            lambda: _cli_call(lib, ["check-axioms", fixture, "--name", "T", "--witness", "shift"]),
            lambda out: _cli_clean(out) and "PASS" in out[1] and "FAIL" not in out[1],
        )
    )

    preset = rng.choice(("S3", "D4", "A4"))
    ws_path = f"{env.out_dir}/workspace-{env.seed}.json"
    with open(ws_path, "w") as fh:
        json.dump(_workspace_doc(env, preset), fh)
    grp = P[preset]
    for fname in FAMILIES:
        argv = ["assembly", ws_path, "--group", "g", "--family", fname, "--degree", "0", "--format", "json"]

        def check(out, fam=_family(lib, grp, fname)):
            if not _cli_clean(out):
                return False
            rep = json.loads(out[1])
            return (rep["injective"], rep["split"]) == tuple(
                env.oracles().oracle_assembly_verdicts(grp, fam)
            )

        jobs.append(Job(f"cli[assembly,{fname}]", lambda a=argv: _cli_call(lib, a), check))

    def table_check(out):
        # EM(G/H) = H_*(M(G/H)) is Z in degree 0 and 0 above; restriction
        # and transfer between G/H and G/K (H <= K) are 1 and the index
        if not _cli_clean(out):
            return False
        rep = json.loads(out[1])
        if any(v != ["Z", "0"] for v in rep["values"].values()):
            return False
        for m in rep["matrices"]:
            H, K = (json.loads(s.replace("{", "[").replace("}", "]")) for s in m["pair"])
            entries = sorted([m["restriction_deg0"][0][0], m["transfer_deg0"][0][0]])
            if entries != [1, len(K) // len(H)]:
                return False
        return bool(rep["matrices"])

    jobs.append(
        Job(
            "cli[mackey-table]",
            lambda: _cli_call(
                lib,
                ["mackey-table", ws_path, "--group", "g", "--family", "all", "--max-degree", "1", "--format", "json"],
            ),
            table_check,
        )
    )
    return jobs


WORKLOADS = {
    "bar-homology": build_bar_homology,
    "axiom-sweep": build_axiom_sweep,
    "span-calculus": build_span_calculus,
    "mackey-assembly": build_mackey_assembly,
}
