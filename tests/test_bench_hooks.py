"""The benchmark's tracer (``perfbench/tracer.py``) wraps package
functions by module and qualified name from outside the package; every
name it wraps must still exist, or a traced run fails.  The benchmark
(``perfbench/run.py``) clears the package's caches before each pass;
every cache must be one it finds, or its passes run warm."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("coarsehom_bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolves(module, qual):
    mod = importlib.import_module(f"coarsehom.{module}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        return attr in vars(getattr(mod, cls_name, object))
    return callable(getattr(mod, qual, None))


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    targets = [(module, qual) for (module, qual, *_rest) in tracer.TARGETS]
    targets += [("randgen", name) for name in tracer.RANDGEN_TARGETS]
    assert [t for t in targets if not _resolves(*t)] == []


def test_snf_hook_binds_its_arguments():
    from coarsehom.snf import smith_normal_form

    bound = inspect.signature(smith_normal_form).bind([[2]], 1, 1)
    bound.apply_defaults()
    assert {"dense", "m", "n", "track_u", "track_v"} <= set(bound.arguments)


SRC = Path(__file__).resolve().parents[1] / "src" / "coarsehom"
CACHE_NAMES = {"lru_cache", "cache"}


def _load_bench_run():
    bench = str(TRACER_PATH.parent)
    sys.path.insert(0, bench)
    try:
        spec = importlib.util.spec_from_file_location("coarsehom_bench_run", bench + "/run.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(bench)
    return mod


def _cache_sites(tree):
    """The functools caches of a parsed module: (names of the module-level
    functions they decorate, line numbers of any other use)."""
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for a in node.names
        if a.name in CACHE_NAMES
    }

    def is_cache(node):
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Name):
            return node.id in aliases
        return (
            isinstance(node, ast.Attribute)
            and node.attr in CACHE_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        )

    top, allowed = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                if is_cache(d):
                    top.append(node.name)
                    allowed.update(id(n) for n in ast.walk(d))
    hidden = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and is_cache(node) and id(node) not in allowed
    ]
    return top, hidden


def test_every_cache_is_one_the_bench_clears():
    """A functools cache inside a class or closure has no module-level
    ``cache_clear`` for the bench to find, so its passes would run warm."""
    run = _load_bench_run()
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"coarsehom.{m}") for m in run.workloads.MODULES}
    )
    cleared = run.lru_caches(lib)
    found = []
    for path in sorted(SRC.glob("*.py")):
        top, hidden = _cache_sites(ast.parse(path.read_text()))
        assert hidden == [], f"{path.name}: a cache at lines {hidden} is not a module-level function"
        for name in top:
            obj = getattr(importlib.import_module(f"coarsehom.{path.stem}"), name)
            assert callable(getattr(obj, "cache_clear", None))
            assert any(obj is c for c in cleared), f"{path.stem}.{name} is not cleared per pass"
            found.append(f"{path.stem}.{name}")
    assert {"groups._cosets", "groups._coset_space", "groups.all_subgroups"} <= set(found)


def test_cached_degree_pre_hooks_read_the_complex_memos(triv):
    """``_cached_degree`` reads a complex's memo dicts by attribute name
    (``_boundaries``, ``_hom``); a renamed memo passes the name check
    above and crashes every traced run."""
    from coarsehom.groups import trivial_gset
    from coarsehom.homology import SpaceComplex
    from coarsehom.spaces import maximal_space

    tracer = _load_tracer()
    pre_hooks = {
        qual: pre
        for _module, qual, _bucket, _hook, pre in tracer.TARGETS
        if qual.startswith("SpaceComplex.") and pre is not None
    }
    assert set(pre_hooks) == {"SpaceComplex.boundary_cols", "SpaceComplex.homology_data"}
    cx = SpaceComplex(maximal_space(trivial_gset(triv, 2)), 1)
    assert isinstance(cx._boundaries, dict) and isinstance(cx._hom, dict)
    assert not any(pre((cx, 1), {}) for pre in pre_hooks.values())
    cx.homology_data(1)
    assert all(pre((cx, 1), {}) for pre in pre_hooks.values())
