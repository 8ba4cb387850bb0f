"""latile benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload search-n7 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0
    python3 perfbench/run.py --workload map-pipeline --smoke

Run from the repository root.  latile is imported from `src/` next to this
directory, never from an installed copy.  The metric names and units come
from BENCHMARK.json.

A run sets up (imports latile, builds the inputs from --seed, fills the ball
cache) fifteen times; the first set-up is counted from process start.  Each
set-up's CPU time has two parts.  The import is divided by the CPU time of a
reference import that follows it (see `ReferenceImport` in workloads.py);
building the inputs is divided by the CPU time of the workload's reference
loop, which does the same kind of work.  setup_s is the median of each ratio
times the reference's nominal seconds (REFERENCE_IMPORT_S and the
workload's `reference_loop_s`), summed: the set-up time in seconds on a
machine where the references take that long.  The wall-clock
set-up times are printed as setup_wall_s.  The run then repeats the
workload's job, at least once, while another repetition is expected to end
nearer to --seconds than stopping now, and reports medians over the
repetitions.  One repetition of search-n7 or certify-sweep takes longer
than the 20 s of BENCHMARK.json's run_seconds, so their run length is set by
their fixed work, not by --seconds.  Each job is timed in units of a
reference loop (see workloads.py); the seconds are printed too.  Every
output is checked; a wrong output counts as a failed operation, and any
failure makes the exit code 1.  With --trace 1 each call into
latile is wrapped in a span and the per-layer metrics are printed instead
of the end-to-end ones.

Standard output ends with one JSON line {correct, attempted, failed,
metrics}.  Lines before it name every metric with its unit, and give the run
context.  The full result and, when traced, the spans are written under
.perfbench_out/ in the repository root.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

from tracer import Tracer, span_cost_seconds
from workloads import (
    WORKLOADS, Reference, ReferenceImport, Tally, loop_cpu, op_seconds, quantile, tail_level,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
LAYERS = (
    "abelian", "ball", "groupring", "tiling", "construct",
    "analysis", "certify", "search", "cli",
)
# CPU seconds of a `ReferenceImport` call at the speed setup_s is given in:
# about its median (40 ms) on the 2-vCPU machine the baseline was measured on.
REFERENCE_IMPORT_S = 0.040
SETUPS = 15
# Layers that map-pipeline's set-up calls into; its ball cache fill is
# reported as ball.generate_ms.
SETUP_LAYERS = ("abelian", "tiling")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes (search n = 4, sweep 3..60, a few maps per class), same checks",
    )
    return parser.parse_args(argv)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {path}: {exc}") from exc


def fresh_latile():
    """Import latile from src/, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "latile" or m.startswith("latile.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        lt = importlib.import_module("latile")
        importlib.import_module("latile.cli")
    except ImportError as exc:
        raise HarnessError(f"cannot import latile from {SRC}: {exc}") from exc
    if not os.path.abspath(lt.__file__).startswith(SRC + os.sep):
        raise HarnessError(f"latile imported from {lt.__file__}, not from {SRC}")
    return lt


def commit_id() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    # The ceiling keeps git from looking for a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_workload(opts, spec: dict) -> int:
    workload = WORKLOADS[opts.workload]
    os.environ.pop("LATILE_THREADS", None)  # worker counts are passed explicitly
    os.makedirs(OUT_DIR, exist_ok=True)
    opts.out_dir = OUT_DIR
    tracer = Tracer(bool(opts.trace))
    reference_import = ReferenceImport(OUT_DIR)
    median = statistics.median

    # process_time() counts from process start, so the first set-up includes
    # starting the interpreter.
    setup_cpu, setup_wall, setup_spans = [], [], []
    import_ratios, prepare_ratios = [], []
    cpu_start, wall_start = 0.0, _PROCESS_START
    for k in range(2 if opts.smoke else SETUPS):
        first_span = len(tracer)
        lt = fresh_latile()
        import_cpu = time.process_time() - cpu_start
        inputs = workload.prepare(lt, opts, tracer, f"setup{k}")
        setup_cpu.append(time.process_time() - cpu_start)
        setup_wall.append(time.perf_counter() - wall_start)
        setup_spans.append((first_span, len(tracer)))
        import_ratios.append(import_cpu / reference_import())
        prepare_ratios.append((setup_cpu[-1] - import_cpu) / loop_cpu(workload.reference_loop))
        # Free the module copies earlier set-ups left behind, so that they
        # do not count in peak_rss_mb.
        gc.collect()
        cpu_start, wall_start = time.process_time(), time.perf_counter()

    tally = Tally()
    ref = Reference(workload.reference_loop, workload.reference_interval)
    reps = []
    spans_before = len(tracer)
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(workload.run(lt, inputs, tracer, tally, ref))
        rep_seconds = time.perf_counter() - rep_start
        if time.perf_counter() - start + rep_seconds / 2 >= opts.seconds:
            break
    timed_seconds = time.perf_counter() - start
    timed_spans = len(tracer) - spans_before

    measured = {
        "setup_s": REFERENCE_IMPORT_S * median(import_ratios)
        + workload.reference_loop_s * median(prepare_ratios),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }
    named = {
        "setup_s": (measured["setup_s"], "s"),
        "setup_wall_s": (median(setup_wall), "s"),
        "setup_cpu_s": (median(setup_cpu), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "ref_unit_ms": (1e3 * ref.unit, "ms"),
    }
    tail_levels = {}
    for job in ("a", "b"):
        seconds = [op_seconds(r[f"{job}_ops"]) for r in reps]
        units = [ref.op_units(r[f"{job}_ops"]) for r in reps]
        tail_levels[job] = tail_level(len(seconds[0]))
        measured[f"{job}_total_ref"] = median([sum(u) for u in units])
        measured[f"{job}_p50_ref"] = median([quantile(u, 0.5) for u in units])
        # The same jobs in seconds; not bounded, because they move with other
        # tenants' load.
        named[f"{job}_s"] = (median([sum(s) for s in seconds]), "s")
        named[f"{job}_p50_ms"] = (1e3 * median([quantile(s, 0.5) for s in seconds]), "ms")
        named[f"{job}_tail_ms"] = (
            1e3 * median([quantile(s, tail_levels[job]) for s in seconds]),
            "ms",
        )
    named.update({
        "children_peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
        "failed_frac": (tally.failed / max(tally.attempted, 1), "ratio"),
        **workload.named_metrics(reps, median),
    })

    if opts.trace:
        section = "per_layer"
        measured = dict(workload.layer_metrics(lt, inputs, tracer, reps, median))
        # Self time per timed repetition; set-up spans are reported per
        # set-up under setup.*, and the calls layer_metrics makes after
        # timing under their own metrics.
        self_seconds = tracer.self_seconds_by_layer(spans_before, spans_before + timed_spans)
        for layer in LAYERS:
            measured[f"{layer}.self_s"] = self_seconds.get(layer, 0.0) / len(reps)
        per_setup = [tracer.self_seconds_by_layer(*bounds) for bounds in setup_spans]
        for layer in SETUP_LAYERS:
            measured[f"setup.{layer}.self_s"] = median([s.get(layer, 0.0) for s in per_setup])
        measured["trace.spans"] = timed_spans
        measured["trace.overhead_frac"] = span_cost_seconds() * timed_spans / timed_seconds
    else:
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    unknown = set(measured) - set(units)
    if unknown:
        raise HarnessError(f"metrics {sorted(unknown)} are not in BENCHMARK.json {section}")
    # A per-layer metric this workload does not measure belongs to a layer it
    # does not exercise, so its value is 0.
    metrics = {name: {"value": measured.get(name, 0.0), "unit": unit} for name, unit in units.items()}

    context = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "smoke": opts.smoke,
        "repetitions": len(reps),
        "operations": {job: len(reps[0][f"{job}_ops"]) for job in ("a", "b")},
        "reference_samples": len(ref.samples),
        "tail_levels": tail_levels,
        "setup_wall_s": setup_wall,
        "setup_cpu_s": setup_cpu,
        "setup_import_ratios": import_ratios,
        "setup_prepare_ratios": prepare_ratios,
        "workers": workload.workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit_id(),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }

    name = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}" + ("-smoke" if opts.smoke else "")
    with open(os.path.join(OUT_DIR, name + ".json"), "w") as fh:
        json.dump({"context": context, "named": named, "failures": tally.messages, **result}, fh, indent=2)
    if opts.trace:
        tracer.write_jsonl(os.path.join(OUT_DIR, name + "-spans.jsonl"))

    for metric, (value, unit) in named.items():
        if metric not in metrics:
            print(f"{opts.workload} {metric} = {value:.6g} {unit}")
    for metric, entry in metrics.items():
        print(f"{opts.workload} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{opts.workload} attempted = {tally.attempted}, failed = {tally.failed}")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(opts) -> int:
    """Each workload in its own process, so setup and peak memory stay per workload."""
    worst = 0
    for name in WORKLOADS:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(opts.seed), "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        ]
        if opts.smoke:
            argv.append("--smoke")
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    try:
        spec = load_spec()
        opts = parse_args(argv, spec)
        if opts.workload == "all":
            return run_all(opts)
        return run_workload(opts, spec)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
