"""Benchmark of the sdemoments moment pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 18 --trace 0

The seed draws the workload's task list (see ``workloads.py``) before any
timing starts.  Load model: one client, closed loop, one task at a time, each
task a call of ``sdemoments.cli.main`` in-process.  A pass runs the whole list
in a fresh worker process; passes repeat until the next one would end after
``--seconds``, and there are at least two, so that a slow spell of the host
is averaged over more than one pass.  A task's latency is the median of its
passes.  Set-up is timed in separate fresh processes as well.  Every
output is checked after its pass, outside the timed region.

The host is shared and its speed drifts, so every time is scaled to the
reference speed by a fixed kernel of the workload's kind of work, run next
to it (see ``calib.py``); the
unscaled wall time is printed too.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates plain and traced passes and reports the per-layer metrics of
the traced ones.  The last line of standard output is the result as JSON.
"""

import os

# BLAS and OpenMP must see these before numpy is first imported, here and in
# every worker (which inherits them).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import speed_factor  # noqa: E402
from checks import check  # noqa: E402
from workloads import SIM_DT, WORKLOADS, make_tasks, model_paths  # noqa: E402

SETUP_PROBES = 5
PASS_TIMEOUT_S = 150
OUT_DIR = ".perfbench-out"

# Metric names and units are declared once, in BENCHMARK.json.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
END_TO_END = [m["name"] for m in _SPEC["end_to_end"]]
# Printed with every result but not declared.  A single task's latency is far
# noisier than a sum: across ten seeds the quartile spread of task_p50_s and
# task_tail_s reached 0.15-0.30 of the median on a shared 2-vCPU host, against
# a largest allowed bound of 0.25.  path_steps_per_s exists on `simulate` only.
UNITS.update(task_p50_s="s", task_tail_s="s", path_steps_per_s="1/s")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


def _worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 tasks beyond it,
    and that percentile; with 10 tasks or fewer, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _bitwise_worker_check() -> str | None:
    """Monte Carlo estimates must not depend on the worker count."""
    from sdemoments.cli import main

    outputs = []
    for workers in ("1", "2"):
        buf = io.StringIO()
        argv = ["simulate", "benchmarks/vehicles.json", "--functional", "p1 - p2",
                "--times", "0.05", "--paths", "4100", "--dt", "1e-3", "--seed", "7",
                "--workers", workers, "--json"]
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            return f"simulate --workers {workers} exited with {code}"
        outputs.append(buf.getvalue())
    if outputs[0] != outputs[1]:
        return "estimates differ between --workers 1 and --workers 2"
    return None


def run_benchmark(workload: str, tasks: list[dict], seconds: float, trace: bool,
                  setup_probes: int = SETUP_PROBES) -> dict:
    """Run passes of `tasks` for about `seconds`; return figures and failures."""
    models = model_paths(tasks)
    out_root = os.path.join(os.getcwd(), OUT_DIR)
    # The first import in a fresh checkout compiles bytecode; it is not timed.
    probe_job = {"workload": workload, "models": models, "setup_only": True}
    _worker(probe_job)
    setups = []
    for _ in range(setup_probes):
        probe = _worker(probe_job)
        setups.append(probe["setup_s"] * speed_factor(workload, probe["calibs"]))

    passes = []  # (traced, result)
    started = perf_counter()
    durations = []
    while True:
        traced = trace and len(passes) % 2 == 1
        job = {"workload": workload, "tasks": tasks, "models": models, "trace": traced,
               "out_dir": os.path.join(out_root, f"pass-{len(passes)}")}
        t0 = perf_counter()
        passes.append((traced, _worker(job)))
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - started
        if len(passes) < 2:
            continue
        if elapsed + statistics.median(durations) > seconds:
            break
    shutil.rmtree(out_root, ignore_errors=True)

    failures = []
    attempted = 0
    fallbacks = 0
    for _, res in passes:
        for task, error, summary in zip(tasks, res["errors"], res["summaries"]):
            attempted += 1
            error = error or check(task, summary)
            if error:
                failures.append(f"{task['label']}: {error}")
            elif "--closed-form" in task["argv"] and summary["form_kind"] != "exact-rational":
                fallbacks += 1
    if workload == "simulate":
        attempted += 1
        error = _bitwise_worker_check()
        if error:
            failures.append(error)

    for _, res in passes:
        res["factor"] = speed_factor(workload, res["calibs"])
        res["adjusted"] = [t * res["factor"] for t in res["latencies"]]
    plain = [res for traced, res in passes if not traced]
    setups += [res["setup_s"] * res["factor"] for res in plain]
    latencies = [statistics.median(t) for t in zip(*(res["adjusted"] for res in plain))]
    tail_s, percentile = tail(latencies)
    figures = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latencies),
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "exact_frac": 1.0 - fallbacks / attempted,
    }
    if workload == "simulate":
        path_steps = sum(t["expect"]["paths"] * round(max(t["expect"]["times"]) / SIM_DT)
                         for t in tasks)
        figures["path_steps_per_s"] = path_steps / figures["wall_s"]
    counts = {
        "path_steps_per_s": len(plain),
        "setup_s": len(setups),
        "wall_s": len(plain),
        "task_p50_s": len(latencies),
        "task_tail_s": len(latencies),
        "peak_rss_mb": len(plain),
        "exact_frac": attempted,
    }
    layers = {}
    traced_runs = [res for traced, res in passes if traced]
    if traced_runs:
        names = traced_runs[0]["layers"].keys()
        layers = {k: statistics.median(r["layers"][k] for r in traced_runs) for k in names}
        traced_wall = statistics.median(sum(r["adjusted"]) for r in traced_runs)
        plain_wall = statistics.median(sum(r["adjusted"]) for r in plain)
        layers["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return {
        "raw_wall_s": statistics.median(sum(res["latencies"]) for res in plain),
        "speed_factors": [res["factor"] for _, res in passes],
        "figures": figures,
        "counts": counts,
        "tail_percentile": percentile,
        "layers": layers,
        "attempted": attempted,
        "failures": failures,
        "passes": len(passes),
    }


def _environment() -> str:
    src = os.path.join(os.getcwd(), "src", "sdemoments")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (
        f"nproc={len(os.sched_getaffinity(0))} {threads} python={platform.python_version()} "
        f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')} src_lines={lines}"
    )


def render(workload: str, seed: int, tasks: list[dict], out: dict, trace: bool) -> list[str]:
    """Report lines; the last is the JSON result."""
    lines = [f"# workload={workload} seed={seed} tasks={len(tasks)} passes={out['passes']} "
             f"{_environment()}"]
    for name, value in out["figures"].items():
        lines.append(f"{name} {value:.6g} {UNITS[name]} (samples {out['counts'][name]})")
    lines.append(f"task_tail_s is the p{out['tail_percentile']:.1f} task latency; "
                 "a task's latency is the median of its passes")
    factors = " ".join(f"{f:.3f}" for f in out["speed_factors"])
    lines.append(f"times are scaled to the reference host speed (calib.py); unscaled wall_s "
                 f"{out['raw_wall_s']:.6g} s; speed factor of each pass: {factors}")
    lines.append(f"failed_frac {len(out['failures']) / out['attempted']:.6g} "
                 f"({len(out['failures'])} of {out['attempted']})")
    lines += [f"FAILED {failure}" for failure in out["failures"][:20]]
    figures = out["layers"] if trace else {k: out["figures"][k] for k in END_TO_END}
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in figures.items()}
    if trace:
        lines += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        shares = {k: v for k, v in figures.items() if k.startswith("share.")}
        top = max((k for k in shares if k.count(".") == 1), key=shares.get)
        part = max((k for k in shares if k.startswith(top + ".")), key=shares.get, default=top)
        detail = f"; {part[6:]} {shares[part]:.1%}" if part != top else ""
        lines.append(f"dominant layer: {top[6:]} ({shares[top]:.1%} of traced wall_s{detail})")
        lines.append("odesolve.expm_gflop is computed from n and the number of squarings, "
                     "not counted; per-layer times are unscaled")
    result = {
        "correct": not out["failures"],
        "attempted": out["attempted"],
        "failed": len(out["failures"]),
        "metrics": metrics,
    }
    return lines + [json.dumps(result)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "sdemoments", "cli.py"))
            and os.path.isdir(os.path.join(root, "benchmarks"))):
        print("error: run from the root of an sdemoments checkout "
              "(src/sdemoments and benchmarks/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    tasks = make_tasks(args.workload, args.seed)
    out = run_benchmark(args.workload, tasks, args.seconds, bool(args.trace))
    print("\n".join(render(args.workload, args.seed, tasks, out, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
