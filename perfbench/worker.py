"""One benchmark pass in a fresh process.

Reads a job from standard input, as JSON:

    {"workload": "...", "tasks": [{"argv": [...], "kind": "..."}],
     "models": [...], "trace": false, "setup_only": false, "out_dir": "..."}

It times the set-up (importing ``sdemoments`` and ``sdemoments.cli`` and
loading the model files), then runs each task through ``sdemoments.cli.main``
in this process, one at a time.  Only the call into the CLI is timed; the
workload's reference kernel (``calib.py``) runs before each task and after the
last, to measure the host's speed during the pass.  Each task's standard
output is written to a file as soon as the task ends, and is summarised only
after the last task, so the check never shares the timed region or the peak
memory figure.  The result is one JSON line on standard output.  ``run.py``
starts it with BLAS and OpenMP pinned to one thread in the environment.
"""

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def _setup(models):
    """Import the package and its CLI and load the model files; seconds."""
    started = perf_counter()
    import sdemoments  # noqa: F401
    import sdemoments.cli  # noqa: F401
    from sdemoments.model import load_model_file

    for path in models:
        load_model_file(path)
    return perf_counter() - started


def _run_task(main, argv):
    """Run one CLI call; returns (seconds, exit code or None, error, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    started = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - started
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return elapsed, error, out.getvalue()


def run(job):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    setup_s = _setup(job["models"])
    import calib

    workload = job["workload"]
    calib.measure(workload)  # the first call pays for lazy set-up
    if job.get("setup_only"):
        return {"setup_s": setup_s, "calibs": [calib.measure(workload) for _ in range(5)]}

    import sdemoments.cli
    from checks import summarise

    recorder = None
    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    main = sdemoments.cli.main

    os.makedirs(job["out_dir"], exist_ok=True)
    latencies, errors, sizes, calibs = [], [], [], []
    for i, task in enumerate(job["tasks"]):
        calibs.append(calib.measure(workload))
        elapsed, error, text = _run_task(main, task["argv"])
        latencies.append(elapsed)
        errors.append(error)
        sizes.append(len(text.encode()))
        with open(os.path.join(job["out_dir"], f"{i}.out"), "w") as fh:
            fh.write(text)
        del text
    calibs.append(calib.measure(workload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summaries = []
    for i, task in enumerate(job["tasks"]):
        path = os.path.join(job["out_dir"], f"{i}.out")
        with open(path) as fh:
            text = fh.read()
        os.remove(path)
        summaries.append(None if errors[i] else summarise(task["kind"], text))
    os.rmdir(job["out_dir"])

    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "calibs": calibs,
        "errors": errors,
        "summaries": summaries,
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": sum(sizes),
    }
    if recorder is not None:
        result["layers"] = recorder.metrics(sum(latencies), sum(sizes))
    return result


if __name__ == "__main__":
    outcome = run(json.load(sys.stdin))
    sys.stdout.write(json.dumps(outcome) + "\n")
