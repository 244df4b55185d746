"""Per-layer tracing of coarsehom from outside the package.

The tracer wraps the public functions and methods at each module
boundary of ``coarsehom`` (nothing under ``src/`` is edited).  Each
wrapped call records a span (id, parent id, name, start, end) in memory
and adds its *self time* -- its duration minus the time covered by
wrapped children -- to one per-layer bucket.  Counters are updated by
small hooks at the same boundaries.

Leaf helpers (``Group.mul``, ``Group.elements``, ``CoarseStructure.related``,
``orbit_rep_of_tuple``, ``snf.mat_*``, ...) are deliberately not wrapped:
they run millions of times per pass and wrapping them would make the
traced run measure the tracer.  Their cost lands in the self time of the
boundary function that called them.

A wrapped module-level function is patched in every ``coarsehom`` module
that holds it (``from .x import y`` copies the reference), so intra- and
inter-module calls all go through the wrapper.  Hook work runs after the
span's end time is taken and is excluded from the parent's self time.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# Per-layer metrics reported by a traced run: name -> unit.  Names ending
# in ``_s`` are self times; everything else is an exact count or a ratio.
LAYER_METRICS = {
    "snf.calls": "count",
    "snf.s": "s",
    "snf.tracked_calls": "count",
    "snf.max_rows": "count",
    "snf.max_cols": "count",
    "snf.input_nnz": "count",
    "snf.pivots": "count",
    "snf.max_bits": "bits",
    "snf.fpab_groups": "count",
    "snf.decision_calls": "count",
    "snf.decision_s": "s",
    "homology.basis_orbits": "count",
    "homology.max_basis": "count",
    "homology.chain_basis_s": "s",
    "homology.boundary_nnz": "count",
    "homology.boundary_s": "s",
    "homology.presentation_calls": "count",
    "homology.presentation_s": "s",
    "homology.complexes": "count",
    "homology.chain_map_s": "s",
    "homology.induced_map_s": "s",
    "spans.compose_calls": "count",
    "spans.pullback_calls": "count",
    "spans.covering_checks": "count",
    "spans.covering_checks_per_compose": "ratio",
    "spans.admissible_checks": "count",
    "spans.s": "s",
    "spaces.space_validations": "count",
    "spaces.validate_s": "s",
    "spaces.map_predicates_calls": "count",
    "spaces.map_predicates_s": "s",
    "spaces.iso_search_calls": "count",
    "spaces.iso_search_s": "s",
    "spaces.s": "s",
    "groups.group_validations": "count",
    "groups.gset_validations": "count",
    "groups.validate_s": "s",
    "groups.lattice_s": "s",
    "groups.orbit_category_s": "s",
    "groups.coset_gset_s": "s",
    "mackey.em_morphisms": "count",
    "mackey.gfin_compositions": "count",
    "mackey.complex_requests": "count",
    "mackey.complex_hit_ratio": "ratio",
    "mackey.s": "s",
    "axioms.checks": "count",
    "axioms.s": "s",
    "cli.parse_calls": "count",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.s": "s",
    "tape.calls": "count",
    "tape.s": "s",
    "randgen.gen_s": "s",
    "trace.overhead_frac": "ratio",
}

# Metrics that must repeat exactly for a fixed seed and source tree.
COUNT_METRICS = tuple(
    name
    for name, unit in LAYER_METRICS.items()
    if unit != "s" and name != "trace.overhead_frac"
)


def _max_bits(matrix):
    best = 0
    for row in matrix or ():
        if row:
            best = max(best, max(row), -min(row))
    return best.bit_length()


# -- hooks: (tracer, args, kwargs, result, pre-hook state) -> None ----------


def _snf_hook(tr, args, kwargs, res, _pre):
    bound = tr.snf_sig.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    c = tr.counts
    c["snf.calls"] += 1
    if a["track_u"] or a["track_v"]:
        c["snf.tracked_calls"] += 1
    m = a["m"] if a["m"] is not None else len(a["dense"])
    n = a["n"] if a["n"] is not None else (len(a["dense"][0]) if a["dense"] else 0)
    c["snf.max_rows"] = max(c["snf.max_rows"], m)
    c["snf.max_cols"] = max(c["snf.max_cols"], n)
    c["snf.input_nnz"] += sum(len(row) - row.count(0) for row in a["dense"])
    c["snf.pivots"] += len(res.pivots)
    bits = max(
        [abs(d).bit_length() for d in res.divisors]
        + [_max_bits(M) for M in (res.U, res.Uinv, res.V, res.Vinv)]
        + [0]
    )
    c["snf.max_bits"] = max(c["snf.max_bits"], bits)


def _counter(key):
    def hook(tr, _args, _kwargs, _res, _pre):
        tr.counts[key] += 1

    return hook


def _basis_hook(tr, _args, _kwargs, res, _pre):
    tr.counts["homology.basis_orbits"] += len(res)
    tr.counts["homology.max_basis"] = max(tr.counts["homology.max_basis"], len(res))


def _cached_degree(attr):
    """Pre-hook for SpaceComplex methods that memoize per degree."""

    def pre(args, kwargs):
        self = args[0]
        n = args[1] if len(args) > 1 else kwargs["n"]
        return n in getattr(self, attr)

    return pre


def _boundary_hook(tr, _args, _kwargs, res, was_cached):
    if not was_cached:
        tr.counts["homology.boundary_nnz"] += sum(len(col) for col in res)


def _presentation_hook(tr, _args, _kwargs, _res, was_cached):
    if not was_cached:
        tr.counts["homology.presentation_calls"] += 1


def _complex_pre(args, kwargs):
    ctx = args[0]
    S = args[1] if len(args) > 1 else kwargs["S"]
    return (S.group, S.size, S.action) in ctx._cx


def _complex_hook(tr, _args, _kwargs, _res, was_cached):
    tr.counts["mackey.complex_requests"] += 1
    if was_cached:
        tr.counts["mackey.complex_hits"] += 1


# -- what to wrap ------------------------------------------------------------
# (module, qualified name, self-time bucket, hook, pre-hook)

_C = _counter
TARGETS = [
    # groups
    ("groups", "Group.__post_init__", "groups.validate_s", _C("groups.group_validations"), None),
    ("groups", "GSet.__post_init__", "groups.validate_s", _C("groups.gset_validations"), None),
    ("groups", "SubgroupFamily.__post_init__", "groups.validate_s", None, None),
    ("groups", "all_subgroups", "groups.lattice_s", None, None),
    ("groups", "conjugacy_classes_of_subgroups", "groups.lattice_s", None, None),
    ("groups", "subgroup_class_representatives", "groups.lattice_s", None, None),
    ("groups", "family_all", "groups.lattice_s", None, None),
    ("groups", "family_trivial", "groups.lattice_s", None, None),
    ("groups", "family_solvable", "groups.lattice_s", None, None),
    ("groups", "family_generated_by", "groups.lattice_s", None, None),
    ("groups", "orbit_category", "groups.orbit_category_s", None, None),
    ("groups", "coset_gset", "groups.coset_gset_s", None, None),
    # spaces
    ("spaces", "BornCoarseSpace.__post_init__", "spaces.validate_s", _C("spaces.space_validations"), None),
    ("spaces", "map_predicates", "spaces.map_predicates_s", _C("spaces.map_predicates_calls"), None),
    ("spaces", "find_space_isomorphism", "spaces.iso_search_s", _C("spaces.iso_search_calls"), None),
    ("spaces", "induced_structure", "spaces.s", None, None),
    ("spaces", "generate_structure", "spaces.s", None, None),
    ("spaces", "make_space", "spaces.s", None, None),
    ("spaces", "tensor", "spaces.s", None, None),
    ("spaces", "coproduct", "spaces.s", None, None),
    ("spaces", "bounded_union", "spaces.s", None, None),
    ("spaces", "free_union_copies", "spaces.s", None, None),
    ("spaces", "free_union_family", "spaces.s", None, None),
    ("spaces", "components_gset", "spaces.s", None, None),
    ("spaces", "coarse_closure", "spaces.s", None, None),
    ("spaces", "restrict_by_partition", "spaces.s", None, None),
    # tape
    ("tape", "TapeSpace.__post_init__", "tape.s", _C("tape.calls"), None),
    ("tape", "TapeMap.__post_init__", "tape.s", _C("tape.calls"), None),
    ("tape", "tape_map_predicates", "tape.s", _C("tape.calls"), None),
    ("tape", "tape_projection_is_bounded_covering", "tape.s", _C("tape.calls"), None),
    ("tape", "check_flasque_witness", "tape.s", _C("tape.calls"), None),
    ("tape", "tape_bounded_union", "tape.s", _C("tape.calls"), None),
    ("tape", "tape_free_union", "tape.s", _C("tape.calls"), None),
    # spans
    ("spans", "is_bounded_coarse_covering", "spans.s", _C("spans.covering_checks"), None),
    ("spans", "is_bounded_covering", "spans.s", None, None),
    ("spans", "is_admissible", "spans.s", _C("spans.admissible_checks"), None),
    ("spans", "pullback", "spans.s", _C("spans.pullback_calls"), None),
    ("spans", "compose", "spans.s", _C("spans.compose_calls"), None),
    ("spans", "make_span", "spans.s", None, None),
    ("spans", "identity_span", "spans.s", None, None),
    ("spans", "spans_isomorphic", "spans.s", None, None),
    ("spans", "hom_monoid_add", "spans.s", None, None),
    ("spans", "transfer", "spans.s", None, None),
    ("spans", "embed", "spans.s", None, None),
    # snf
    ("snf", "smith_normal_form", "snf.s", _snf_hook, None),
    ("snf", "kernel_basis", "snf.s", None, None),
    ("snf", "solve_int", "snf.s", None, None),
    ("snf", "lattice_contains", "snf.s", None, None),
    ("snf", "FPAbGroup.__post_init__", "snf.s", _C("snf.fpab_groups"), None),
    ("snf", "AbHom.__post_init__", "snf.s", None, None),
    ("snf", "AbHom.is_injective", "snf.decision_s", _C("snf.decision_calls"), None),
    ("snf", "AbHom.is_surjective", "snf.decision_s", _C("snf.decision_calls"), None),
    ("snf", "AbHom.is_split_injective", "snf.decision_s", _C("snf.decision_calls"), None),
    # homology
    ("homology", "chain_basis", "homology.chain_basis_s", _basis_hook, None),
    ("homology", "SpaceComplex.__init__", "homology.chain_basis_s", _C("homology.complexes"), None),
    ("homology", "SpaceComplex.boundary_cols", "homology.boundary_s", _boundary_hook, _cached_degree("_boundaries")),
    ("homology", "SpaceComplex.check_dd_zero", "homology.boundary_s", None, None),
    ("homology", "SpaceComplex.homology_data", "homology.presentation_s", _presentation_hook, _cached_degree("_hom")),
    ("homology", "homology", "homology.presentation_s", None, None),
    ("homology", "pullback_chain_cols", "homology.chain_map_s", None, None),
    ("homology", "pushforward_chain_cols", "homology.chain_map_s", None, None),
    ("homology", "span_chain_cols", "homology.chain_map_s", None, None),
    ("homology", "chain_map_commutes", "homology.chain_map_s", None, None),
    ("homology", "scols_mul", "homology.chain_map_s", None, None),
    ("homology", "validate_chain_table", "homology.chain_map_s", None, None),
    ("homology", "pushforward_chain", "homology.chain_map_s", None, None),
    ("homology", "transfer_chain", "homology.chain_map_s", None, None),
    ("homology", "homology_map_from_chain_cols", "homology.induced_map_s", None, None),
    ("homology", "induced_map", "homology.induced_map_s", None, None),
    ("homology", "_HomologyGroup.class_of", "homology.induced_map_s", None, None),
    # axioms
    ("axioms", "check_excision", "axioms.s", _C("axioms.checks"), None),
    ("axioms", "check_coarse_invariance", "axioms.s", _C("axioms.checks"), None),
    ("axioms", "check_u_continuity", "axioms.s", _C("axioms.checks"), None),
    ("axioms", "check_weak_transfers", "axioms.s", _C("axioms.checks"), None),
    ("axioms", "check_additivity", "axioms.s", _C("axioms.checks"), None),
    ("axioms", "check_strong_additivity", "axioms.s", _C("axioms.checks"), None),
    ("axioms", "subspace", "axioms.s", None, None),
    ("axioms", "validate_complementary_pair", "axioms.s", None, None),
    # mackey
    ("mackey", "double_coset_check", "mackey.s", None, None),
    ("mackey", "assembly", "mackey.s", None, None),
    ("mackey", "EMContext.em_morphism", "mackey.s", _C("mackey.em_morphisms"), None),
    ("mackey", "EMContext.complex_of", "mackey.s", _complex_hook, _complex_pre),
    ("mackey", "EMContext.space_of", "mackey.s", None, None),
    ("mackey", "EM_morphism", "mackey.s", None, None),
    ("mackey", "compose_gfin_spans", "mackey.s", _C("mackey.gfin_compositions"), None),
    ("mackey", "GFinSpan.__post_init__", "mackey.s", None, None),
    ("mackey", "M", "mackey.s", None, None),
    ("mackey", "transfer_span", "mackey.s", None, None),
    ("mackey", "restriction_span", "mackey.s", None, None),
    ("mackey", "coset_projection", "mackey.s", None, None),
    ("mackey", "coset_translation", "mackey.s", None, None),
    ("mackey", "hom_equal", "mackey.s", None, None),
    ("mackey", "hom_sum", "mackey.s", None, None),
    # cli
    ("cli", "main", "cli.s", None, None),
    ("cli", "build_parser", "cli.parse_s", None, None),
    ("cli", "load_workspace", "cli.parse_s", None, None),
    ("cli", "parse_workspace", "cli.parse_s", _C("cli.parse_calls"), None),
    ("cli", "emit", "cli.emit_s", None, None),
]

# Input generation, traced only while the benchmark builds its inputs.
RANDGEN_TARGETS = [
    "random_group",
    "random_gset",
    "random_space",
    "random_covering",
    "random_equivariant_map",
    "random_controlled_map",
    "random_span",
    "random_composable_spans",
    "random_complementary_pair",
    "random_invariant_subset",
]


class Tracer:
    """Installs wrappers on a loaded coarsehom package and collects spans,
    self times and counts until ``uninstall``."""

    def __init__(self, lib, record_spans=True):
        self.lib = lib
        self.record_spans = record_spans
        self.snf_sig = inspect.signature(lib.snf.smith_normal_form)
        self._patches = []  # (owner, attribute, original)
        self.reset()

    # -- state -------------------------------------------------------------

    def reset(self):
        self.self_s = {name: 0.0 for name, unit in LAYER_METRICS.items() if unit == "s"}
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.counts["mackey.complex_hits"] = 0
        self.spans = []
        self.names = []
        self._name_ids = {}
        self._stack = []  # [span id, time covered by wrapped children]
        self._next_id = 0

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name):
        """Context manager for a span opened by the benchmark itself (a job)."""
        return _Span(self, self._name_id(name))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, bucket, hook, pre):
        tr = self
        name_id = self._name_id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            span_id = tr._next_id
            tr._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tr.self_s[bucket] += (t1 - t0) - frame[1]
                if tr.record_spans:
                    tr.spans.append((span_id, stack[-1][0] if stack else -1, name_id, t0, t1))
            if hook is not None:
                hook(tr, args, kwargs, res, state)
            if stack:
                stack[-1][1] += perf_counter() - t0
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _coarsehom_modules()
        for mod_name, qual, bucket, hook, pre in TARGETS:
            self._patch(modules, getattr(self.lib, mod_name), qual, bucket, hook, pre)

    def install_randgen(self):
        modules = _coarsehom_modules()
        for name in RANDGEN_TARGETS:
            self._patch(modules, self.lib.randgen, name, "randgen.gen_s", None, None)

    def _patch(self, modules, module, qual, bucket, hook, pre):
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{qual}"
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(orig, label, bucket, hook, pre))
            self._patches.append((cls, attr, orig))
            return
        orig = getattr(module, qual)
        wrapped = self._wrap(orig, label, bucket, hook, pre)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything traced since the last reset
        (``randgen.gen_s`` and ``trace.overhead_frac`` are filled in by
        the caller)."""
        out = dict(self.self_s)
        out.update(self.counts)
        out.pop("mackey.complex_hits")
        req = self.counts["mackey.complex_requests"]
        out["mackey.complex_hit_ratio"] = self.counts["mackey.complex_hits"] / req if req else 0.0
        comp = self.counts["spans.compose_calls"]
        out["spans.covering_checks_per_compose"] = (
            self.counts["spans.covering_checks"] / comp if comp else 0.0
        )
        return out

    def span_records(self):
        return {"names": self.names, "fields": ["id", "parent", "name", "start", "end"], "spans": self.spans}


def _coarsehom_modules():
    return [m for n, m in sys.modules.items() if n == "coarsehom" or n.startswith("coarsehom.")]


class _Span:
    def __init__(self, tracer, name_id):
        self.tr = tracer
        self.name_id = name_id

    def __enter__(self):
        self.span_id = self.tr._next_id
        self.tr._next_id += 1
        self.frame = [self.span_id, 0.0]
        self.tr._stack.append(self.frame)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        stack = self.tr._stack
        stack.pop()
        if self.tr.record_spans:
            self.tr.spans.append((self.span_id, stack[-1][0] if stack else -1, self.name_id, self.t0, t1))
        if stack:
            stack[-1][1] += t1 - self.t0
        return False
