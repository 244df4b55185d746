"""coarsehom benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process, one thread, one
closed-loop client: jobs run back to back.  The process

1. sets up ``SETUP_REPS`` times (fresh import of coarsehom, every group
   preset, seeded input generation) and reports the median as setup_s;
2. runs *passes* over the workload's fixed job list until the next pass
   would end after ``--seconds``, but at least two; every pass starts
   with the package's ``lru_cache``s cleared, so each pass is as cold as
   a CLI call;
3. checks every job's output after timing (closed forms, the oracles in
   ``tests/oracles.py``, the laws themselves) and that every pass gave
   the same outputs;
4. prints the metrics, then one JSON object as the last line.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced passes alternate; the traced passes
give the per-layer metrics (see tracer.py) and the untraced ones the
tracing overhead.  Per-layer counts must repeat exactly: across the
traced passes of the run, and in one traced pass of the same seed that
a second, fresh process makes with its own hash seed (``--counts-only``).
A mismatch marks the run incorrect as nondeterministic.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from random import Random
from time import perf_counter

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3
# Every run makes at least two passes, so that wall_s is a median of two
# and the latency quantiles pool two passes made at different times; a
# workload whose pass is longer than half of --seconds (mackey-assembly)
# measures a little longer than --seconds.  A traced run needs two anyway:
# one untraced pass for the overhead and one traced.
MIN_PASSES = 2
REPEAT_TIMEOUT_S = 100  # the fresh-process repeat of a traced pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--counts-only",
        action="store_true",
        help="set up once, make one traced pass and print its exact counts as JSON",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def setup(workload, seed, oracles):
    lib = workloads.load_library()
    presets = {name: make() for name, make in lib.groups.GROUP_PRESETS.items()}
    env = workloads.Env(lib, presets, Random(seed), str(ROOT), str(OUT_DIR), oracles, seed)
    return env, workloads.WORKLOADS[workload](env)


def lru_caches(lib):
    return [
        obj
        for mod in vars(lib).values()
        for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


class _Failed:
    """Output marker of a job that raised."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __eq__(self, other):
        return isinstance(other, _Failed) and other.text == self.text


def run_pass(jobs, caches, tr=None):
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    outputs, latencies = [], []
    t_pass = perf_counter()
    for job in jobs:
        t0 = perf_counter()
        try:
            if tr is None:
                out = job.run()
            else:
                with tr.span(f"job:{job.kind.split('[')[0]}"):
                    out = job.run()
        except Exception as exc:  # a failing job is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            out = _Failed(exc)
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    return perf_counter() - t_pass, latencies, outputs


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "coarsehom" / "__init__.py").is_file():
        print(f"error: no coarsehom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    oracles = functools.cache(load_oracles)
    if args.counts_only:
        return print_counts(args, oracles)
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        env, jobs = setup(args.workload, args.seed, oracles)
        setup_times.append(perf_counter() - t0)
        gc.collect()  # drop the previous repetition's modules and inputs
    lib = env.lib
    caches = lru_caches(lib)

    tr = None
    gen_s = 0.0
    if args.trace:
        # one more set-up with input generation traced, on the same modules
        tr = tracing.Tracer(lib)
        tr.install_randgen()
        env.rng = Random(args.seed)
        jobs = workloads.WORKLOADS[args.workload](env)
        gen_s = tr.self_s["randgen.gen_s"]
        tr.uninstall()

    # timed phase
    passes = []  # (traced, wall, latencies, outputs, layer metrics or None)
    spans = None
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tr.reset()
            tr.record_spans = spans is None
            tr.install()
            try:
                wall, lat, outs = run_pass(jobs, caches, tr)
            finally:
                tr.uninstall()
            layer = tr.metrics()
            if spans is None:
                spans = tr.span_records()
        else:
            wall, lat, outs = run_pass(jobs, caches)
            layer = None
        passes.append((traced, wall, lat, outs, layer))
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + wall > args.seconds:
            break

    # correctness, after timing: every pass agrees with the first, and the
    # first pass's outputs pass their checks
    first = passes[0][3]
    failed = 0
    bad_kinds = set()
    for idx, job in enumerate(jobs):
        out = first[idx]
        consistent = all(p[3][idx] == out for p in passes[1:])
        try:
            ok = consistent and not isinstance(out, _Failed) and job.check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed += len(passes)
            bad_kinds.add(job.kind)
    attempted = len(jobs) * len(passes)
    for kind in sorted(bad_kinds):
        print(f"FAILED job: {kind}", file=sys.stderr)

    nondeterministic = []
    untraced = [p for p in passes if not p[0]]
    if args.trace:
        traced_passes = [p for p in passes if p[0]]
        layer = dict(traced_passes[0][4])
        for name in tracing.COUNT_METRICS:
            if any(p[4][name] != layer[name] for p in traced_passes[1:]):
                nondeterministic.append(f"{name} differs between traced passes")
        for name, unit in tracing.LAYER_METRICS.items():
            if unit == "s" and name != "randgen.gen_s":
                layer[name] = statistics.median(p[4][name] for p in traced_passes)
        layer["randgen.gen_s"] = gen_s
        wall_u = statistics.median(p[1] for p in untraced)
        wall_t = statistics.median(p[1] for p in traced_passes)
        layer["trace.overhead_frac"] = (wall_t - wall_u) / wall_u
        nondeterministic += compare_fresh_process(args, layer)
        with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(spans, fh)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.LAYER_METRICS.items()}
    else:
        lat = [x for p in untraced for x in p[2]]
        metrics = {
            "wall_s": {"value": statistics.median(p[1] for p in untraced), "unit": "s"},
            "job_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "job_p90_ms": {"value": quantile(lat, 90) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    for msg in nondeterministic:
        print(f"NONDETERMINISM: {msg}", file=sys.stderr)

    job_samples = len(jobs) * len(untraced)
    print(
        f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x {len(passes)} passes "
        f"({len(untraced)} untraced); {job_samples} latency samples, "
        f"{job_samples - int(0.9 * job_samples)} beyond p90"
    )
    print("pass walls (s): " + " ".join(f"{w:.3f}{'T' if t else ''}" for t, w, *_ in passes))
    print(f"failed_frac = {failed / attempted:.6f} ratio ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    result = {
        "correct": failed == 0 and not nondeterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def print_counts(args, oracles):
    """The ``--counts-only`` mode: one traced pass, its counts as JSON."""
    env, jobs = setup(args.workload, args.seed, oracles)
    tr = tracing.Tracer(env.lib, record_spans=False)
    tr.install()
    try:
        run_pass(jobs, lru_caches(env.lib), tr)
    finally:
        tr.uninstall()
    layer = tr.metrics()
    print(json.dumps({name: layer[name] for name in tracing.COUNT_METRICS}))
    return 0


def compare_fresh_process(args, layer):
    """Repeat one traced pass of the same seed in a new process with a
    random hash seed, and list every count that differs from this run's."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--counts-only"]
    env = {**os.environ, "PYTHONHASHSEED": "random"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return [f"the fresh-process repeat did not end within {REPEAT_TIMEOUT_S} s"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return [f"the fresh-process repeat exited with code {proc.returncode}"]
    repeat = json.loads(lines[-1])
    return [
        f"{name} = {layer[name]}, a fresh process of seed {args.seed} gave {repeat.get(name)}"
        for name in tracing.COUNT_METRICS
        if repeat.get(name) != layer[name]
    ]


if __name__ == "__main__":
    sys.exit(main())
