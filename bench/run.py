"""Seeded, offline benchmark of the topoinfluence CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload exact_table --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

One run of a workload:

1. writes the workload's seeded inputs under ``.bench_build/bench/``;
2. times the import of ``topoinfluence.cli`` in fresh interpreters
   (``setup_s``);
3. starts ``worker.py``, which runs the workload's CLI jobs in process,
   pass after pass, for ``--seconds``;
4. holds every job's first report against the workload's reference
   route and every later report against the first, byte for byte;
5. prints each metric with its unit, then one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` the worker alternates untraced and
traced passes and the metrics are the per-layer ones, plus
``trace.overhead_s``; the spans go to ``spans.jsonl`` beside the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK = Path(".bench_build") / "bench"

SETUP_RUNS = 15
# The first imports after an idle spell run slow while caches refill.
SETUP_WARMUP = 3
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, {bench!r}); from speed import SpeedSampler; "
    "print(*SpeedSampler().measure(lambda: __import__('topoinfluence.cli')))"
)
# Median seconds speed._micro_kernel took on the reference machine (2
# vCPUs, Python 3.11.7, numpy 2.4.6).  Every reported time is in
# reference seconds: measured seconds times this over the kernel's mean
# time sampled around and during the measurement, so the machine's speed
# swings cancel out.
CALIBRATION_REF_S = 0.0007
# A run gets this long beyond --seconds before the worker is stopped.
WORKER_GRACE_S = 120


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.resolve())
    return env


def measure_setup() -> tuple[float, float]:
    """(median measured seconds, median reference seconds) for a fresh
    interpreter to import the CLI, timed and speed-sampled inside that
    interpreter.  Unmeasured imports run first, so bytecode and file
    caches are warm as for any user."""
    measured, scaled = [], []
    for k in range(SETUP_WARMUP + SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(bench=str(HERE))],
                             env=_env(), check=True, timeout=60,
                             capture_output=True, text=True)
        seconds, calibration = (float(x) for x in out.stdout.split())
        if k >= SETUP_WARMUP:
            measured.append(seconds)
            scaled.append(seconds * CALIBRATION_REF_S / calibration)
    return statistics.median(measured), statistics.median(scaled)


def run_worker(workdir: Path, jobs, seconds: int, trace: bool) -> dict:
    plan = {
        "jobs": [{"name": j.name, "argv": list(j.argv), "output": j.output} for j in jobs],
        "seconds": seconds,
        "trace": trace,
        "spans": str(workdir / "spans.jsonl"),
    }
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        env=_env(), check=True, timeout=seconds + WORKER_GRACE_S,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_outputs(jobs, passes) -> tuple[int, int, list[str], list[dict]]:
    """(attempted, failed, messages, first payloads).  An execution fails
    when it raised or exited nonzero, when its report differs from the
    job's first one, or when the first one fails the reference check."""
    attempted = failed = 0
    messages = []
    envelopes = []
    for k, job in enumerate(jobs):
        try:
            with open(job.output, encoding="utf-8") as fh:
                envelope = json.load(fh)
            problems = job.check(envelope)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            envelope, problems = {}, [f"report unreadable: {type(exc).__name__}: {exc}"]
        envelopes.append(envelope)
        messages += [f"{job.name}: {p}" for p in problems]
        reference_digest = passes[0]["digests"][k]
        for number, p in enumerate(passes):
            attempted += 1
            bad = problems or p["codes"][k] != 0 or p["digests"][k] != reference_digest
            failed += bool(bad)
            if p["codes"][k] != 0:
                messages.append(f"{job.name} pass {number}: exit {p['codes'][k]} "
                                f"{p['errors'][k]}")
            elif p["digests"][k] != reference_digest:
                traced = " (traced)" if p["traced"] else ""
                messages.append(f"{job.name} pass {number}{traced}: report bytes "
                                "differ from the first pass")
    return attempted, failed, messages, envelopes


def _scaled(p) -> list[float]:
    """A pass's job times in reference seconds."""
    return [t * CALIBRATION_REF_S / c for t, c in zip(p["times"], p["calibration_s"])]


def _job_wall(passes, key=_scaled) -> float:
    """Sum over jobs of each job's median time across passes."""
    return sum(statistics.median(t) for t in zip(*(key(p) for p in passes)))


def _pass_scale(p) -> float:
    """Reference seconds per measured second over a whole pass."""
    return sum(_scaled(p)) / sum(p["times"])


def max_std_error(envelopes) -> float | None:
    """Largest per-sample standard error over every sampled profile."""
    errors = [
        sample["std_error"]
        for env in envelopes
        for profile in env.get("payload", {}).get("profiles", [env.get("payload", {})])
        for sample in profile.get("samples", [])
        if "std_error" in sample
    ]
    return max(errors) if errors else None


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads

    workdir = WORK / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = workloads.build(name, seed, workdir)
    setup_raw, setup_s = measure_setup()
    result = run_worker(workdir, jobs, seconds, trace)
    passes = result["passes"]
    attempted, failed, messages, envelopes = check_outputs(jobs, passes)
    for message in messages:
        print(f"MISMATCH {message}")

    untraced = [p for p in passes if not p["traced"]]
    worst = max_std_error(envelopes)
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = tracing.median_metrics([p["layers"] for p in traced],
                                        [_pass_scale(p) for p in traced])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        metrics["engine.max_std_error"] = {"value": worst or 0.0, "unit": "score"}
        metrics["trace.overhead_s"] = {
            "value": _job_wall(traced) - _job_wall(untraced), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": _job_wall(untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    print(f"workload {name} seed {seed}: {len(untraced)} untraced passes of "
          f"{len(jobs)} jobs")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'failed_frac':34s} {failed / attempted:>16.6f} ({failed} of {attempted})")
    if worst is not None and not trace:
        print(f"  {'max_std_error':34s} {worst:>16.6f} score")
    raw = _job_wall(untraced, key=lambda p: p["times"])
    print(f"  measured: wall {raw:.4f} s, setup {setup_raw:.4f} s; machine at "
          f"{_job_wall(untraced) / raw:.3f} x reference speed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    if not (SRC / "topoinfluence" / "cli.py").is_file():
        print(f"bench: no {SRC}/topoinfluence here; run from the root of a "
              "topoinfluence checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    import workloads  # builds inputs with the program's families, so after the path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.BUILDERS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative: it keys Philox streams")
    names = tuple(workloads.BUILDERS) if args.workload == "all" else (args.workload,)
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
