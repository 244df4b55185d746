"""The benchmark's tracer (``perfbench/tracer.py``) wraps package
functions by module and qualified name from outside the package; every
name it wraps must still exist, or a traced run fails."""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
