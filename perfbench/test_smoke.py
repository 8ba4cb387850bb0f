"""Smoke tests for the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs at its tiny smoke size with the same correctness checks
as a full run.  A deliberately broken copy of latile must make the run exit
nonzero, and a directory without the program must give no result at all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search-n7", "certify-sweep", "map-pipeline")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(root, workload, trace=0):
    return subprocess.run(
        [
            sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--smoke",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def copy_checkout(tmp_path, with_program=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(
            os.path.join(ROOT, "src"), tmp_path / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
    return tmp_path


# Each patch is appended to a module of the copied program and rebinds one
# public function, before the package __init__ re-exports it.
BREAKAGES = {
    "search-n7": (
        "search.py",
        "_real_search = search_tilings\n"
        "def search_tilings(n, **kw):\n"
        "    import dataclasses\n"
        "    r = _real_search(n, **kw)\n"
        "    return dataclasses.replace(r, candidates_tested=tuple(c - 1 for c in r.candidates_tested))\n",
    ),
    "certify-sweep": (
        "certify.py",
        "def validate_certificate(cert):\n    return ['tampered']\n",
    ),
    "map-pipeline": (
        "groupring.py",
        "_real_check = check_tiling_conditions\n"
        "def check_tiling_conditions(code, n):\n"
        "    import dataclasses\n"
        "    r = _real_check(code, n)\n"
        "    return dataclasses.replace(r, passed=not r.passed)\n",
    ),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_broken_program_fails_the_run(tmp_path, workload):
    root = copy_checkout(tmp_path)
    module, patch = BREAKAGES[workload]
    with open(root / "src" / "latile" / module, "a") as fh:
        fh.write("\n\n" + patch)
    proc = run_bench(str(root), workload)
    assert proc.returncode == 1, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is False and result["failed"] >= 1


def test_no_program_no_result(tmp_path):
    root = copy_checkout(tmp_path, with_program=False)
    proc = run_bench(str(root), "map-pipeline")
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout
