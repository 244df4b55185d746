"""Batch front end: parse workspace documents, dispatch to the
computational modules, and emit deterministic reports.

One self-describing JSON schema (versioned, "schema": 1) covers all
entities; see the README for the full format.  Exit codes: 0 success,
2 validation failure, 3 out-of-scope request, 4 internal invariant
breach.  Reports are byte-identical across runs for identical input,
seed and format.

A workspace document is parsed and validated once per command line, by
``parse_workspace``; every command, and every task of ``run``, works on
that one ``Workspace``.  Malformed documents are reported with JSON
pointers and exit 2.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass, field
from random import Random

from .errors import InternalCheckError, OutOfScopeError, ValidationError
from . import groups as G
from . import spaces as SP
from . import spans as SPN
from . import tape as TP
from . import axioms as AX
from . import mackey as MK
from .homology import SpaceComplex, homology, induced_map, space_complex
from . import randgen as RG


@dataclass
class Workspace:
    groups: dict = field(default_factory=dict)
    gsets: dict = field(default_factory=dict)
    spaces: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    squares: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)


class _Errors:
    def __init__(self):
        self.items = []

    def add(self, pointer, message):
        # a message that starts with a pointer continues the entry's pointer
        sep = "" if message.startswith("/") else ": "
        self.items.append(f"{pointer}{sep}{message}")

    def raise_if_any(self):
        if self.items:
            raise ValidationError("; ".join(self.items))


def _section(doc, key, errs):
    """The entries of a top-level section as (pointer, name, entry); a
    section or an entry that is not a JSON object is reported instead."""
    section = doc.get(key) or {}
    if not isinstance(section, dict):
        errs.add(f"/{key}", "must be a JSON object")
        return []
    out = []
    for name, entry in section.items():
        if isinstance(entry, dict):
            out.append((f"/{key}/{name}", name, entry))
        else:
            errs.add(f"/{key}/{name}", "must be a JSON object")
    return out


def _ints(value, where, depth=0):
    """``value`` as JSON integers nested ``depth`` arrays deep, as tuples.
    Booleans, floats and strings are rejected, with the JSON pointer
    ``where`` extended to the offending node: ``isinstance(True, int)``
    holds in Python, so only the exact type tells an integer."""
    if depth == 0:
        if type(value) is not int:
            raise ValidationError(f"{where}: must be a JSON integer, got {json.dumps(value)}")
        return value
    if not isinstance(value, list):
        raise ValidationError(f"{where}: must be a JSON array")
    return tuple(_ints(v, f"{where}/{i}", depth - 1) for i, v in enumerate(value))


def _object(value, what):
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return value


def parse_workspace(doc):
    """Resolve and validate a workspace document.  Raises ValidationError
    carrying every collected problem with its JSON-pointer location."""
    errs = _Errors()
    if not isinstance(doc, dict):
        raise ValidationError("/: document must be a JSON object")
    if doc.get("schema") != 1:
        errs.add("/schema", "missing or unsupported schema version (expected 1)")
    ws = Workspace()

    for ptr, name, entry in _section(doc, "groups", errs):
        try:
            if "preset" in entry:
                preset = entry["preset"]
                if preset not in G.GROUP_PRESETS:
                    errs.add(ptr + "/preset", f"unknown preset {preset!r}")
                    continue
                ws.groups[name] = G.GROUP_PRESETS[preset]()
            elif "table" in entry:
                ws.groups[name] = G.Group(_ints(entry["table"], "/table", 2), name=name)
            else:
                errs.add(ptr, "need 'preset' or 'table'")
        except (ValidationError, TypeError, KeyError) as e:
            errs.add(ptr, str(e))

    for ptr, name, entry in _section(doc, "gsets", errs):
        try:
            grp = ws.groups.get(entry.get("group"))
            if grp is None:
                errs.add(ptr + "/group", f"unknown group {entry.get('group')!r}")
                continue
            if "trivial" in entry:
                ws.gsets[name] = G.trivial_gset(grp, _ints(entry["trivial"], "/trivial"))
            elif "cosets_of" in entry:
                ws.gsets[name] = G.coset_gset(grp, frozenset(_ints(entry["cosets_of"], "/cosets_of", 1)))
            elif "action" in entry:
                act = _ints(entry["action"], "/action", 2)
                size = len(act[0]) if act else 0
                ws.gsets[name] = G.GSet(grp, size, act)
            else:
                errs.add(ptr, "need 'trivial', 'cosets_of' or 'action'")
        except (ValidationError, TypeError, ValueError, KeyError) as e:
            errs.add(ptr, str(e))

    for ptr, name, entry in _section(doc, "spaces", errs):
        try:
            if "tape" in entry:
                t = _object(entry["tape"], "tape")
                fiber = ws.spaces.get(t.get("fiber"))
                if fiber is None or not isinstance(fiber, SP.BornCoarseSpace):
                    errs.add(ptr + "/tape/fiber", "unknown or non-finite fiber space")
                    continue
                ws.spaces[name] = TP.TapeSpace(
                    fiber,
                    t.get("coarse", "discrete"),
                    t.get("bornology", "finite_window"),
                    name=name,
                )
                continue
            gs = ws.gsets.get(entry.get("gset"))
            if gs is None:
                errs.add(ptr + "/gset", f"unknown gset {entry.get('gset')!r}")
                continue
            born = _object(entry.get("bornology") or {}, "bornology").get("preset", "full")
            if born != "full":
                errs.add(ptr + "/bornology", "finite carriers force the full power set")
                continue
            coarse = _object(entry.get("coarse") or {"preset": "minimal"}, "coarse")
            if coarse.get("preset") == "minimal":
                ws.spaces[name] = SP.minimal_space(gs, name=name)
            elif coarse.get("preset") == "maximal":
                ws.spaces[name] = SP.maximal_space(gs, name=name)
            elif "generators" in coarse:
                gens = [
                    frozenset((a, b) for a, b in ent)
                    for ent in _ints(coarse["generators"], "/coarse/generators", 3)
                ]
                sym = [U | frozenset((b, a) for (a, b) in U) for U in gens]
                ws.spaces[name] = SP.make_space(gs, sym, name=name)
            else:
                errs.add(ptr + "/coarse", "need a preset or generators")
        except (ValidationError, TypeError, ValueError, KeyError) as e:
            errs.add(ptr, str(e))

    for ptr, name, entry in _section(doc, "maps", errs):
        try:
            src = ws.spaces.get(entry.get("src"))
            dst = ws.spaces.get(entry.get("dst"))
            if src is None or dst is None:
                errs.add(ptr, "unknown src or dst space")
                continue
            if isinstance(src, TP.TapeSpace):
                kind = entry.get("kind")
                fm = _ints(entry.get("fiber_images", []), "/fiber_images", 1)
                ws.maps[name] = TP.TapeMap(kind, src, dst, fm, _ints(entry.get("shift", 0), "/shift"))
            elif not isinstance(dst, SP.BornCoarseSpace):
                errs.add(ptr + "/dst", "a map from a finite space must target a finite space")
            else:
                images = _ints(entry["images"], "/images", 1)
                G.require_equivariant(images, src.carrier, dst.carrier, f"map {name}")
                ws.maps[name] = ("finite", entry["src"], entry["dst"], images)
        except (ValidationError, TypeError, ValueError, KeyError) as e:
            errs.add(ptr, str(e))

    for ptr, name, entry in _section(doc, "spans", errs):
        try:
            srcn, apexn, dstn = entry["src"], entry["apex"], entry["dst"]
            src, apex, dst = (ws.spaces.get(k) for k in (srcn, apexn, dstn))
            left = ws.maps.get(entry["left"])
            right = ws.maps.get(entry["right"])
            if None in (src, apex, dst) or left is None or right is None:
                errs.add(ptr, "dangling reference")
                continue
            if isinstance(apex, TP.TapeSpace):
                ws.spans[name] = SPN.make_span(src, apex, dst, left, right)
            else:
                if left[1] != apexn or left[2] != srcn:
                    errs.add(ptr + "/left", "left map must run apex -> src")
                    continue
                if right[1] != apexn or right[2] != dstn:
                    errs.add(ptr + "/right", "right map must run apex -> dst")
                    continue
                ws.spans[name] = SPN.make_span(src, apex, dst, left[3], right[3])
        except (ValidationError, TypeError, ValueError, KeyError) as e:
            errs.add(ptr, str(e))

    for ptr, name, entry in _section(doc, "squares", errs):
        try:
            sp = [ws.spaces.get(entry.get(k)) for k in ("W", "U", "V", "Z")]
            mp = [ws.maps.get(entry.get(k)) for k in ("f", "w", "g", "u")]
            if None in sp or None in mp:
                errs.add(ptr, "dangling reference")
                continue
            if not all(isinstance(x, SP.BornCoarseSpace) for x in sp):
                errs.add(ptr, "squares are checked on finite spaces only")
                continue
            ws.squares[name] = SPN.AdmissibleSquareCandidate(
                sp[0], sp[1], sp[2], sp[3], mp[0][3], mp[1][3], mp[2][3], mp[3][3]
            )
        except (ValidationError, TypeError, ValueError, KeyError) as e:
            errs.add(ptr, str(e))

    tasks = doc.get("tasks") or []
    if not isinstance(tasks, list):
        errs.add("/tasks", "must be a JSON array")
        tasks = []
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or not isinstance(task.get("op"), str):
            errs.add(f"/tasks/{i}", "must be a JSON object with a string 'op'")
        elif task["op"] == "run":
            errs.add(f"/tasks/{i}/op", "a task cannot run the task list")
        else:
            try:
                for key, val in task.items():
                    if key in ("max_degree", "degree", "cases", "seed"):
                        _ints(val, f"/{key}")
                    elif not isinstance(val, str):
                        raise ValidationError(f"/{key}: must be a JSON string, got {json.dumps(val)}")
                ws.tasks.append(task)
            except ValidationError as e:
                errs.add(f"/tasks/{i}", str(e))

    errs.raise_if_any()
    return ws


def load_workspace(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}")
    except ValueError as e:  # JSON syntax, or bytes that are not UTF-8
        raise ValidationError(f"{path}: JSON syntax error: {e}")
    return parse_workspace(doc)


def _pick(ws_dict, name, kind):
    if name is not None:
        if name not in ws_dict:
            raise ValidationError(f"no {kind} named {name!r} in the workspace")
        return name, ws_dict[name]
    if len(ws_dict) != 1:
        raise ValidationError(f"workspace has {len(ws_dict)} {kind}s; pass --name")
    return next(iter(ws_dict.items()))


# -- report emission ---------------------------------------------------------


def emit(report, fmt, out):
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2))
        out.write("\n")
        return
    rows = report.get("rows") or []
    header = report.get("columns") or []
    if fmt == "csv":
        out.write(",".join(str(h) for h in header) + "\n")
        for r in rows:
            out.write(",".join(str(x) for x in r) + "\n")
        return
    widths = [len(str(h)) for h in header]
    for r in rows:
        for i, x in enumerate(r):
            widths[i] = max(widths[i], len(str(x)))
    if "title" in report:
        out.write(report["title"] + "\n")
    out.write("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip() + "\n")
    for note in report.get("notes", ()):
        out.write(note + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_homology(args, ws, out):
    name, X = _pick(ws.spaces, args.name, "space")
    if isinstance(X, TP.TapeSpace):
        raise OutOfScopeError("homology of tape spaces is out of scope")
    H = homology(X, args.max_degree)
    rows = [
        [n, rank, ".".join(str(d) for d in tors) or "-"]
        for n, (rank, tors) in enumerate(H.degrees)
    ]
    emit(
        {
            "title": f"homology of {name}",
            "columns": ["degree", "rank", "torsion"],
            "rows": rows,
            "space": name,
            "degrees": [
                {"degree": n, "rank": r, "torsion": list(t)}
                for n, (r, t) in enumerate(H.degrees)
            ],
        },
        args.format,
        out,
    )
    return 0


def cmd_induced_map(args, ws, out):
    name, span = _pick(ws.spans, args.name, "span")
    if not span.is_finite():
        raise OutOfScopeError("induced maps need finite carriers")
    homs = induced_map(span, args.max_degree)
    rows = []
    mats = []
    for n, h in enumerate(homs):
        rows.append([n, h.src.describe(), h.dst.describe(), json.dumps(h.matrix)])
        mats.append({"degree": n, "matrix": h.matrix, "src": h.src.describe(), "dst": h.dst.describe()})
    emit(
        {
            "title": f"induced map of span {name}",
            "columns": ["degree", "source", "target", "matrix"],
            "rows": rows,
            "span": name,
            "maps": mats,
        },
        args.format,
        out,
    )
    return 0


def cmd_check_covering(args, ws, out):
    name, mp = _pick(ws.maps, args.name, "map")
    if isinstance(mp, TP.TapeMap):
        ok, diag = SPN.is_bounded_covering(mp, mp.src, mp.dst)
        W_name = mp.src.name or "(tape)"
        Z_name = getattr(mp.dst, "name", "") or "(target)"
    else:
        _, srcn, dstn, images = mp
        ok, diag = SPN.is_bounded_covering(images, ws.spaces[srcn], ws.spaces[dstn])
        W_name, Z_name = srcn, dstn
    emit(
        {
            "title": f"bounded covering check: {name}",
            "columns": ["map", "total space", "base", "verdict", "diagnostic"],
            "rows": [[name, W_name, Z_name, "PASS" if ok else "FAIL", diag]],
            "map": name,
            "ok": ok,
            "diagnostic": diag,
        },
        args.format,
        out,
    )
    return 0


def cmd_check_square(args, ws, out):
    name, sq = _pick(ws.squares, args.name, "square")
    ok, diag = SPN.is_admissible(sq)
    emit(
        {
            "title": f"admissible square check: {name}",
            "columns": ["square", "verdict", "diagnostic"],
            "rows": [[name, "PASS" if ok else "FAIL", diag]],
            "square": name,
            "ok": ok,
            "diagnostic": diag,
        },
        args.format,
        out,
    )
    return 0


def cmd_compose(args, ws, out):
    if args.left not in ws.spans or args.right not in ws.spans:
        raise ValidationError("compose needs --left and --right span names from the workspace")
    s1, s2 = ws.spans[args.left], ws.spans[args.right]
    comp = SPN.compose(s1, s2)
    comps = comp.apex.components()
    emit(
        {
            "title": f"composite {args.right} o {args.left}",
            "columns": ["apex points", "apex components", "left leg", "right leg"],
            "rows": [
                [
                    comp.apex.size,
                    len(comps),
                    json.dumps(list(comp.left)),
                    json.dumps(list(comp.right)),
                ]
            ],
            "apex_size": comp.apex.size,
            "apex_component_sizes": sorted(len(c) for c in comps),
            "left": list(comp.left),
            "right": list(comp.right),
        },
        args.format,
        out,
    )
    return 0


def cmd_check_axioms(args, ws, out):
    name, X = _pick(ws.spaces, args.name, "space")
    if isinstance(X, TP.TapeSpace):
        if not args.witness:
            raise OutOfScopeError(
                "tape spaces support only the flasqueness witness check (pass --witness)"
            )
        wmap = ws.maps.get(args.witness)
        if not isinstance(wmap, TP.TapeMap):
            raise ValidationError("witness must name a tape map")
        ok, diag = TP.check_flasque_witness(X, wmap)
        emit(
            {
                "title": f"flasqueness witness on {name}",
                "columns": ["check", "verdict", "detail"],
                "rows": [["flasque-witness", "PASS" if ok else "FAIL", diag]],
                "ok": ok,
            },
            args.format,
            out,
        )
        return 0

    N = args.max_degree
    checks = []

    cx = space_complex(X, N)
    checks.append(("d.d = 0", cx.check_dd_zero(), ""))
    ok, v = AX.check_coarse_invariance(X, N)
    checks.append(("coarse invariance", ok, f"degrees {v}"))
    ok, k = AX.check_u_continuity(X, N)
    checks.append(("u-continuity", ok, f"stabilizes at generator {k}"))
    for sz in (2, 3):
        I = G.trivial_gset(X.group, sz)
        checks.append((f"weak transfers |I|={sz}", AX.check_weak_transfers(X, I, N), ""))
    # alternate G-orbits of components into Z and its complement; both
    # sides are invariant and coarsely closed, forming a valid pair
    comps = X.components()
    orbits = SP.components_gset(X)[0].orbits()
    orbit_blocks = [sorted(p for c in orbit for p in comps[c]) for orbit in orbits]
    Zpart = sorted(p for i, blk in enumerate(orbit_blocks) if i % 2 == 0 for p in blk)
    Ypart = sorted(set(range(X.size)) - set(Zpart))
    if X.size:
        ok, v = AX.check_excision(X, Zpart, [Ypart], N)
        checks.append(("excision (component pair)", ok, f"degrees {v}"))
    okf, diagf = TP.check_flasque_witness(X, None)
    checks.append(("flasque via identity", not okf if X.size else okf, diagf))

    rows = [[c, "PASS" if ok else "FAIL", d] for (c, ok, d) in checks]
    emit(
        {
            "title": f"axiom checks on {name} (degrees 0..{N})",
            "columns": ["check", "verdict", "detail"],
            "rows": rows,
            "ok": all(ok for (_c, ok, _d) in checks),
        },
        args.format,
        out,
    )
    return 0


def _family_by_name(group, label):
    """Resolve a family: the names all/sol/triv, or a path to a JSON
    file holding a list of generating subgroups (element lists), which
    is closed under conjugation and subgroups."""
    if label == "all":
        return G.family_all(group)
    if label == "sol":
        return G.family_solvable(group)
    if label == "triv":
        return G.family_trivial(group)
    import os

    if os.path.exists(label):
        try:
            with open(label) as fh:
                seeds = json.load(fh)
        except (OSError, ValueError) as e:  # includes JSON and UTF-8 decoding errors
            raise ValidationError(f"family file {label}: {e}")
        try:
            seeds = _ints(seeds, "#", 2)  # the URI-fragment form of a JSON pointer
        except ValidationError as e:
            raise ValidationError(f"family file {label}: expected a list of subgroup element lists: {e}")
        return G.family_generated_by(
            group, [frozenset(s) for s in seeds], name=os.path.basename(label)
        )
    raise ValidationError(f"unknown family {label!r} (use all, sol, triv, or a file path)")


def cmd_mackey_table(args, ws, out):
    name, grp = _pick(ws.groups, args.group, "group")
    family = _family_by_name(grp, args.family)
    reps = [H for H in G.subgroup_class_representatives(grp) if H in family]
    ctx = MK.EMContext(args.max_degree)
    ctx0 = MK.EMContext(0)  # the matrices are read in degree 0 only
    rows = []
    values = {}
    for H in reps:
        S = G.coset_gset(grp, H)
        data = [
            ctx.complex_of(S).homology_data(n).group.describe()
            for n in range(args.max_degree + 1)
        ]
        label = "G/" + MK.subgroup_label(grp, H)
        values[label] = data
        rows.append([label, len(H), "; ".join(f"H_{n}={d}" for n, d in enumerate(data))])
    matrices = []
    for H in reps:
        for K in reps:
            if len(H) <= len(K) and H <= K:
                res = ctx0.em_morphism(
                    MK.GFinSpan(
                        G.coset_gset(grp, H),
                        G.coset_gset(grp, K),
                        G.coset_gset(grp, H),
                        tuple(range(grp.order // len(H))),
                        MK.coset_projection(grp, H, K),
                    )
                )[0]
                tr = ctx0.em_morphism(
                    MK.GFinSpan(
                        G.coset_gset(grp, K),
                        G.coset_gset(grp, H),
                        G.coset_gset(grp, H),
                        MK.coset_projection(grp, H, K),
                        tuple(range(grp.order // len(H))),
                    )
                )[0]
                matrices.append(
                    {
                        "pair": [MK.subgroup_label(grp, H), MK.subgroup_label(grp, K)],
                        "restriction_deg0": res.matrix,
                        "transfer_deg0": tr.matrix,
                    }
                )
    emit(
        {
            "title": f"Mackey table for {name} (family {family.name})",
            "columns": ["object", "|H|", "EM values"],
            "rows": rows,
            "values": values,
            "matrices": matrices,
        },
        args.format,
        out,
    )
    return 0


def cmd_assembly(args, ws, out):
    name, grp = _pick(ws.groups, args.group, "group")
    family = _family_by_name(grp, args.family)
    r = MK.assembly(grp, family, args.degree)
    emit(
        {
            "title": r.verdict_line(),
            "columns": ["group", "family", "degree", "colimit", "target", "injective", "split", "label"],
            "rows": [
                [
                    name,
                    family.name,
                    args.degree,
                    r.colimit.describe(),
                    r.target.describe(),
                    r.injective,
                    r.split,
                    r.label,
                ]
            ],
            "group": name,
            "family": family.name,
            "degree": args.degree,
            "objects": r.object_labels,
            "colimit": {"rank": r.colimit.rank, "torsion": list(r.colimit.torsion)},
            "target": {"rank": r.target.rank, "torsion": list(r.target.torsion)},
            "assembly_matrix": r.assembly.matrix,
            "injective": r.injective,
            "split": r.split,
            "label": r.label,
        },
        args.format,
        out,
    )
    return 0


# -- fuzzing harness ---------------------------------------------------------


def _fuzz_case_spans(case):
    s1, s2, s3 = case
    left = SPN.compose(SPN.compose(s1, s2), s3)
    right = SPN.compose(s1, SPN.compose(s2, s3))
    ok = SPN.spans_isomorphic(left, right)
    ok = ok and SPN.spans_isomorphic(SPN.compose(SPN.identity_span(s1.src), s1), s1)
    ok = ok and SPN.spans_isomorphic(SPN.compose(s1, SPN.identity_span(s1.dst)), s1)
    return ok


def _fuzz_case_chains(case):
    from .homology import (
        pullback_chain_cols,
        pushforward_chain_cols,
        scols_eq,
        scols_mul,
    )

    s1, s2 = case
    P, u, h = SPN.pullback(s1.right, s1.apex, s2.left, s2.apex, s1.dst)
    N = 2
    cxP = SpaceComplex(P, N)
    cxW = SpaceComplex(s1.apex, N)
    cxV = SpaceComplex(s2.apex, N)
    cxX = SpaceComplex(s1.src, N)
    cxY = SpaceComplex(s1.dst, N)
    wu = tuple(s1.left[u[i]] for i in range(P.size))
    for n in range(N + 1):
        lhs = scols_mul(
            pullback_chain_cols(u, P, s1.apex, cxP, cxW, n),
            pullback_chain_cols(s1.left, s1.apex, s1.src, cxW, cxX, n),
        )
        rhs = pullback_chain_cols(wu, P, s1.src, cxP, cxX, n)
        if not scols_eq(lhs, rhs):
            return False
        lhs2 = scols_mul(
            pushforward_chain_cols(h, P, s2.apex, cxP, cxV, n),
            pullback_chain_cols(u, P, s1.apex, cxP, cxW, n),
        )
        rhs2 = scols_mul(
            pullback_chain_cols(s2.left, s2.apex, s1.dst, cxV, cxY, n),
            pushforward_chain_cols(s1.right, s1.apex, s1.dst, cxW, cxY, n),
        )
        if not scols_eq(lhs2, rhs2):
            return False
    return True


def _fuzz_case_axioms(case):
    X, Z, Ys, I_size = case
    ok, _ = AX.check_coarse_invariance(X, 2)
    if not ok:
        return False
    ok, _ = AX.check_excision(X, Z, Ys, 2)
    if not ok:
        return False
    return AX.check_weak_transfers(X, G.trivial_gset(X.group, I_size), 2)


def _fuzz_case_mackey(case):
    s1, s2, ctx = case
    comp = MK.compose_gfin_spans(s1, s2)
    lhs = ctx.em_morphism(comp)
    h1 = ctx.em_morphism(s1)
    h2 = ctx.em_morphism(s2)
    for n in range(len(lhs)):
        if not MK.hom_equal(lhs[n], h1[n].compose(h2[n])):
            return False
    return True


def cmd_fuzz(args, _ws, out):
    rng = Random(args.seed)
    cfg = RG.FuzzConfig(max_points=6, max_component=3, max_copies=2)
    suites = ["spans", "chains", "axioms", "mackey"] if args.suite == "all" else [args.suite]
    rows = []
    for suite in suites:
        cases = []
        for _ in range(args.cases):
            if suite == "spans":
                s1, s2 = RG.random_composable_spans(rng, cfg)
                s3 = RG.random_span(rng, s2.dst, cfg)
                cases.append((s1, s2, s3))
            elif suite == "chains":
                cases.append(RG.random_composable_spans(rng, cfg))
            elif suite == "axioms":
                X = RG.random_space(rng, cfg)
                Z, Ys = RG.random_complementary_pair(rng, X)
                cases.append((X, Z, Ys, 1 + rng.randrange(3)))
            elif suite == "mackey":
                grp = RG.random_group(rng)
                ctx = MK.EMContext(1)
                src = RG.random_gset(rng, grp, cfg.max_points)
                s1 = RG.random_gfin_span(rng, src, cfg)
                s2 = RG.random_gfin_span(rng, s1.dst, cfg)
                cases.append((s1, s2, ctx))
            else:
                raise ValidationError(f"unknown suite {suite!r}")
        runner = {
            "spans": _fuzz_case_spans,
            "chains": _fuzz_case_chains,
            "axioms": _fuzz_case_axioms,
            "mackey": _fuzz_case_mackey,
        }[suite]
        passed = sum(1 for c in cases if runner(c))
        rows.append([suite, args.cases, passed, args.cases - passed])
    emit(
        {
            "title": f"fuzz seed={args.seed}",
            "columns": ["suite", "cases", "pass", "fail"],
            "rows": rows,
            "seed": args.seed,
            "results": [
                {"suite": r[0], "cases": r[1], "pass": r[2], "fail": r[3]} for r in rows
            ],
        },
        args.format,
        out,
    )
    return 0 if all(r[3] == 0 for r in rows) else 4


def cmd_run(args, ws, out):
    """Execute the workspace's task list in declaration order, every task
    on the one parsed workspace.  Every task's arguments are parsed, and
    bad ones rejected, before any task runs; the reports are written once
    every task has run."""
    parser = build_parser()

    def task_args(task):
        op = task["op"]
        argv = [op] if op == "fuzz" else [op, args.workspace]
        for key, val in sorted(task.items()):
            if key != "op":
                argv.extend(["--" + key.replace("_", "-"), str(val)])
        argv.extend(["--format", args.format])
        return parser.parse_args(argv)

    parsed = [task_args(task) for task in ws.tasks]
    buf = io.StringIO()
    worst = 0
    for idx, (task, sub_args) in enumerate(zip(ws.tasks, parsed)):
        buf.write(f"== task {idx}: {task['op']} ==\n")
        worst = max(worst, sub_args.fn(sub_args, ws, buf))
    out.write(buf.getvalue())
    return worst


def _at_least(low, what):
    """argparse type of an integer at least ``low``."""

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if n < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {n}")
        return n

    return parse


_degree = _at_least(0, "non-negative")  # --degree and --max-degree


def build_parser():
    p = argparse.ArgumentParser(
        prog="coarsehom",
        description="Exact calculus of coarse-geometric transfers: coverings, spans, homology, Mackey layer.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["table", "json", "csv"], default="table")
    sub = p.add_subparsers(dest="command", required=True)

    def ws_cmd(name, fn, **extra):
        q = sub.add_parser(name, parents=[common])
        q.add_argument("workspace")
        for flag, kw in extra.items():
            q.add_argument(flag, **kw)
        q.set_defaults(fn=fn)
        return q

    ws_cmd(
        "homology",
        cmd_homology,
        **{"--name": dict(default=None), "--max-degree": dict(type=_degree, default=3)},
    )
    ws_cmd(
        "induced-map",
        cmd_induced_map,
        **{"--name": dict(default=None), "--max-degree": dict(type=_degree, default=3)},
    )
    ws_cmd("check-covering", cmd_check_covering, **{"--name": dict(default=None)})
    ws_cmd("check-square", cmd_check_square, **{"--name": dict(default=None)})
    ws_cmd(
        "compose",
        cmd_compose,
        **{"--left": dict(required=True), "--right": dict(required=True)},
    )
    ws_cmd(
        "check-axioms",
        cmd_check_axioms,
        **{
            "--name": dict(default=None),
            "--max-degree": dict(type=_degree, default=2),
            "--witness": dict(default=None),
        },
    )
    ws_cmd(
        "mackey-table",
        cmd_mackey_table,
        **{
            "--group": dict(default=None),
            "--family": dict(default="all"),
            "--max-degree": dict(type=_degree, default=1),
        },
    )
    ws_cmd(
        "assembly",
        cmd_assembly,
        **{
            "--group": dict(default=None),
            "--family": dict(default="all"),
            "--degree": dict(type=_degree, default=0),
        },
    )
    ws_cmd("run", cmd_run)
    f = sub.add_parser("fuzz", parents=[common])
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--cases", type=_at_least(1, "positive"), default=50)
    f.add_argument("--suite", default="all", choices=["all", "spans", "chains", "axioms", "mackey"])
    f.set_defaults(fn=cmd_fuzz)
    return p


def dispatch(args, out):
    """Run a parsed command line; a workspace command's document is
    loaded and validated here, once."""
    ws = load_workspace(args.workspace) if "workspace" in args else None
    return args.fn(args, ws, out)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return dispatch(args, sys.stdout)
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except OutOfScopeError as e:
        print(f"out of scope: {e}", file=sys.stderr)
        return 3
    except InternalCheckError as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
