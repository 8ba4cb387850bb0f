"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads map-pipeline --seeds 1-5 --trace 1
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 1-3 --trace 1 --out perfbench/baseline.json

For every workload and metric this prints the median of the runs and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json.  A spread under a third of the
bound is marked `ok`.  Runs are made one
after another, never in parallel, so they do not share the machine's cores.
With --out, the summary is stored under "end_to_end" or "per_layer" in that
JSON file, and the other section is kept.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every value and summary here as JSON")
    opts = parser.parse_args(argv)

    section = spec["per_layer" if opts.trace else "end_to_end"]
    summary = {}
    failed_runs = 0
    for workload in opts.workloads.split(","):
        values = {m["name"]: [] for m in section}
        for seed in parse_seeds(opts.seeds):
            proc = subprocess.run(
                [
                    sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(opts.seconds),
                    "--trace", str(opts.trace),
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failed_runs += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        summary[workload] = {}
        for m in section:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            entry = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            summary[workload][m["name"]] = entry
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else "WIDE"
            print(
                f"{workload:14s} {m['name']:36s} median {median:12.6g} {m['unit']:6s} "
                f"spread {spread:7.4f}" + (f" bound {bound:5.3f} {verdict}" if bound else "")
            )
    if opts.out:
        record = {}
        if os.path.exists(opts.out):
            with open(opts.out) as fh:
                record = json.load(fh)
        record["per_layer" if opts.trace else "end_to_end"] = {
            "context": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "seeds": opts.seeds,
                "seconds": opts.seconds,
            },
            "workloads": summary,
        }
        with open(opts.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
