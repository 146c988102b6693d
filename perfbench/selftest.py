"""Self-test of the benchmark itself; takes well under a minute.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs a tiny task list, plain and traced, and asserts
that no task fails and that every metric named in BENCHMARK.json is printed
with its unit.  It then runs the list again with one reference value made
wrong on purpose and asserts that the check counts that task as failed.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import run  # noqa: E402
from workloads import WORKLOADS, make_tasks  # noqa: E402


def _corrupt(task: dict) -> None:
    """Make the task's reference wrong, so a correct output fails the check."""
    expect = task["expect"]
    if "reference" in expect:
        expect["reference"] = [v + 1e6 for v in expect["reference"]]
    elif "nnz" in expect:
        expect["nnz"] += 1
    else:
        expect["dim"] += 1


def _metrics_printed(lines: list[str], declared: list[dict]) -> None:
    result = json.loads(lines[-1])
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        assert got is not None, f"{name} missing from the result"
        assert got["unit"] == unit, f"{name} has unit {got['unit']}, BENCHMARK.json says {unit}"
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines[:-1]), \
            f"{name} is not printed with its unit"
    assert set(result["metrics"]) == {m["name"] for m in declared}, "undeclared metrics printed"


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        tasks = make_tasks(workload, seed=1, tiny=True)
        out = run.run_benchmark(workload, tasks, seconds=0.1, trace=True, setup_probes=1)
        assert not out["failures"], out["failures"]
        _metrics_printed(run.render(workload, 1, tasks, out, trace=False), spec["end_to_end"])
        _metrics_printed(run.render(workload, 1, tasks, out, trace=True), spec["per_layer"])

        wrong = copy.deepcopy(tasks)
        _corrupt(wrong[0])
        out = run.run_benchmark(workload, wrong, seconds=0.1, trace=False, setup_probes=1)
        assert len(out["failures"]) == out["passes"], out["failures"]
        assert out["failures"][0].startswith(wrong[0]["label"]), out["failures"]
        print(f"{workload}: ok ({len(tasks)} tasks; wrong reference counted as failed)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
