"""Self-tests of the benchmark: seeded inputs, repeatable traced runs, and
metric names that match BENCHMARK.json.

    python3 -m pytest -q perfbench/tests

The traced-run test starts ``perfbench/run.py --trace 1`` twice per workload
(about a minute in all).
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import WORK_COUNTS, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def ops_digest(name, seed):
    w = WORKLOADS[name]
    return run.digest(w.make_ops(random.Random(f"{w.name}:{seed}")))


def traced_run(name, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / run.OUT_DIR / f"{name}-seed{seed}-trace1.json").read_text())
    return result, record


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name):
    assert ops_digest(name, 11) == ops_digest(name, 11)
    assert ops_digest(name, 11) != ops_digest(name, 12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat(name):
    first, rec1 = traced_run(name, 5)
    second, rec2 = traced_run(name, 5)
    assert first["correct"] and second["correct"]
    assert rec1["seed"] == rec2["seed"] == 5
    assert rec1["ops_digest"] == rec2["ops_digest"] == ops_digest(name, 5)
    assert rec1["verdicts_digest"] == rec2["verdicts_digest"]
    counted = [m for m in first["metrics"] if m.endswith(".calls")] + [m for m, _ in WORK_COUNTS]
    for metric in counted:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert any(first["metrics"][m]["value"] for m in counted if m.endswith(".calls"))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
