"""Runs one workload's jobs in passes and reports times, digests and RSS.

Started by ``run.py`` as its own process, so ``ru_maxrss`` is the
workload's peak alone:

    python3 bench/worker.py PLAN_JSON RESULT_JSON

The plan lists the jobs (CLI argument lists), the seconds to fill and
whether to trace.  Each job calls ``topoinfluence.cli.main`` in this
process.  A pass runs every job once, in order.  Passes repeat until the
seconds are used, and at least ``MIN_PASSES`` run.  A traced run
alternates untraced and traced passes, starting and ending untraced,
with at least ``MIN_TRACED`` traced, so both see the same machine
state.  The first pass writes each job's report where the plan says;
later passes write beside it and only the digest is kept, so
byte-identity across passes (traced ones included) can be checked.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from speed import SpeedSampler

MIN_PASSES = 2
MIN_TRACED = 2


def _run_job(main, argv: list[str], sampler: SpeedSampler) -> tuple[float, float, int, str]:
    """(seconds, micro-kernel seconds, exit code, error text) of one
    in-process CLI call."""
    outcome = {"code": 0, "error": ""}

    def call():
        try:
            outcome["code"] = main(argv)
        except SystemExit as exc:  # argparse rejections
            outcome["code"] = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the job failed; record it and go on
            outcome["code"], outcome["error"] = -1, f"{type(exc).__name__}: {exc}"

    seconds, calibration = sampler.measure(call)
    return seconds, calibration, outcome["code"], outcome["error"]


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return ""


def _run_pass(cli, jobs, sampler, first: bool, recorder, tag: str) -> dict:
    times, calibrations, codes, errors, digests = [], [], [], [], []
    for job in jobs:
        output = job["output"] if first else job["output"] + ".again"
        argv = [output if arg == job["output"] else arg for arg in job["argv"]]
        if recorder is not None:
            recorder.job = f"{tag}:{job['name']}"
        seconds, calibration, code, error = _run_job(cli.main, argv, sampler)
        calibrations.append(calibration)
        times.append(seconds)
        codes.append(code)
        errors.append(error)
        digests.append(_digest(output))
    return {"traced": recorder is not None, "times": times,
            "calibration_s": calibrations, "codes": codes, "errors": errors,
            "digests": digests}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    jobs, seconds, trace = plan["jobs"], plan["seconds"], plan["trace"]

    import topoinfluence.cli as cli

    passes = []
    sampler = SpeedSampler()
    start = time.perf_counter()

    def timed_pass(recorder=None):
        passes.append(
            _run_pass(cli, jobs, sampler, not passes, recorder, f"pass{len(passes)}")
        )

    if not trace:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            timed_pass()
    else:
        import tracing

        recorders = []
        timed_pass()
        while len(recorders) < MIN_TRACED or time.perf_counter() - start < seconds:
            recorder = tracing.SpanRecorder()
            saved = tracing.instrument(recorder)
            try:
                timed_pass(recorder)
            finally:
                tracing.restore(saved)
            passes[-1]["layers"] = tracing.layer_metrics(recorder.spans)
            recorders.append(recorder)
            timed_pass()
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            for recorder in recorders:
                recorder.write(fh)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "peak_rss_kb": peak_kb}, fh)
    for job in jobs:
        again = job["output"] + ".again"
        if os.path.exists(again):
            os.remove(again)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
