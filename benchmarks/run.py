"""Benchmark of the motzkin-parity CLI: one workload per invocation.

    python3 benchmarks/run.py --workload expand --seed 1 --seconds 12 --trace 0

One client issues the workload's CLI jobs one after another through
``motzkin_parity.cli.run(argv)``, with stdout captured, after a warm import
(a closed loop: the next job starts when the previous one returns).  It keeps
going, whole rounds at a time, until ``--seconds`` of job time and at least
``jobs.MIN_ROUNDS`` rounds are done.  The end-to-end metrics cover only those
leading rounds, so every commit is measured on the same jobs; later rounds
are only recorded.  Every output is checked, untimed, by the independent
oracle in ``oracle.py``.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs the jobs untraced, again with every layer's public
callables wrapped (``spans.py``), and once more with tracemalloc around
``dp_table``, and prints the per-layer metrics.  Either way the last stdout
line is one JSON object; the full record, with each job's argv, exit code and
stdout sha256, goes to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jobs
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

TAIL_BEYOND = 10
#: End-to-end metrics that are printed and recorded but not declared in
#: BENCHMARK.json: failed_ratio may be 0, and on a host whose speed drifts
#: the time of single jobs moves between seeds by about as much as the
#: largest bound allowed (see README.md).
UNDECLARED = {"job_p50_s": "s", "job_tail_s": "s", "failed_ratio": "ratio"}
#: Measuring stops after this much wall time even if a round is unfinished,
#: so that a run ends well within three minutes.
HARD_LIMIT_S = 140.0

_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import motzkin_parity.cli
motzkin_parity.cli.build_parser()
print(time.perf_counter() - start)
"""


def load_cli():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    package = SRC / "motzkin_parity"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no package sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from motzkin_parity import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's sources")
    return cli


def setup_seconds() -> float:
    """Fresh interpreter to ``import motzkin_parity.cli`` plus
    ``build_parser()``, timed inside the child."""
    done = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE.format(src=str(SRC))],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def run_job(cli, job: jobs.Job, check: bool = True) -> dict:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    code, detail = None, None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(job.argv))
    except Exception as exc:  # a job that raises is counted, never ends the run
        detail = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if detail is not None:
        status = "raised"
    elif code != 0:
        status, detail = "exit", f"exit code {code}: {err.getvalue().strip()[:200]}"
    else:
        detail = oracle.verify(job.spec, text) if check else None
        status = "ok" if detail is None else "wrong"
    data = text.encode()
    return {"argv": list(job.argv), "exit": code, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data), "seconds": seconds, "status": status, "detail": detail,
            "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def measure(cli, rounds, seconds: float, min_rounds: int, deadline: float,
            tracer: spans.Tracer | None = None, between=None):
    """Run whole rounds until ``seconds`` of job time and ``min_rounds``
    rounds are done, or the deadline passes.  ``between()``, if given, runs
    after each job, untimed.  Returns the job records and the jobs run, by
    round."""
    records: list[dict] = []
    played: list[list[jobs.Job]] = []
    busy = 0.0
    for index, round_jobs in enumerate(rounds):
        played.append([])
        for job in round_jobs:
            if tracer is not None:
                tracer.job = len(records)
            record = run_job(cli, job)
            record["round"] = index
            records.append(record)
            played[-1].append(job)
            busy += record["seconds"]
            if between is not None:
                between()
            if time.monotonic() > deadline:
                return records, played
        if busy >= seconds and len(played) >= min_rounds:
            break
    return records, played


def tail_percentile(jobs_measured: int) -> float:
    """The highest percentile with TAIL_BEYOND samples past it among
    ``jobs_measured`` jobs: fixed per workload, since the measured rounds are."""
    return 100.0 * (1 - TAIL_BEYOND / jobs_measured)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace}


def _failures(records: list[dict]) -> int:
    return sum(r["status"] != "ok" for r in records)


def end_to_end(cli, workload: str, seed: int, seconds: float, sizes: dict,
               min_rounds: int) -> dict:
    # Set-up is sampled once after every job, so that its median spans the
    # whole run rather than one moment of it; the first sample, which may
    # compile bytecode, is dropped.
    setup_seconds()
    setup: list[float] = []
    deadline = time.monotonic() + HARD_LIMIT_S
    records, played = measure(cli, jobs.rounds(workload, seed, sizes), seconds, min_rounds,
                              deadline, between=lambda: setup.append(setup_seconds()))
    # Only the leading rounds count, so that a faster commit, which plays
    # more rounds, is measured on the same jobs as a slower one.
    measured = [r for r in records if r["round"] < min_rounds]
    times = [r["seconds"] for r in measured]
    # A run cut short by the deadline extrapolates to the whole job list.
    planned = min_rounds * len(played[0])
    tail_pct = tail_percentile(len(times))
    tail = percentile(times, tail_pct)
    metrics = {
        "wall_s": sum(times) * planned / len(times),
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "peak_rss_mib": measured[-1]["maxrss_mib"],
        "failed_ratio": _failures(measured) / len(measured),
    }
    samples = {
        "wall_s": {"statistic": "sum", "n": len(times), "planned": planned},
        "setup_s": {"statistic": "median", "n": len(setup)},
        "job_p50_s": {"percentile": 50, "n": len(times)},
        "job_tail_s": {"percentile": round(tail_pct, 2), "n": len(times),
                       "beyond": sum(t > tail for t in times)},
    }
    return {"metrics": metrics, "samples": samples, "jobs": records,
            "setup_samples": setup}


def per_layer(cli, workload: str, seed: int, seconds: float, sizes: dict) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    plain, played = measure(cli, jobs.rounds(workload, seed, sizes), seconds / 3, 1, deadline)
    tracer = spans.Tracer()
    with tracer:
        traced, _ = measure(cli, iter(played), float("inf"), 0, deadline, tracer=tracer)
    for before, after in zip(plain, traced):
        if (before["exit"], before["sha256"]) != (after["exit"], after["sha256"]):
            after["status"], after["detail"] = "wrong", "traced output differs from untraced"
    plain_wall = sum(r["seconds"] for r in plain[: len(traced)])
    traced_wall = sum(r["seconds"] for r in traced)
    metrics = spans.layer_metrics(tracer.spans, traced_wall)
    metrics["cli.out_bytes"] = sum(r["bytes"] for r in traced)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall

    memory = spans.DpMemory()
    if metrics["paths.dp_table.calls"]:
        budget = time.monotonic() + min(seconds / 4, max(0.0, deadline - time.monotonic()))
        with memory:
            for job in (j for round_jobs in played for j in round_jobs):
                run_job(cli, job, check=False)
                if time.monotonic() > budget:
                    break
    metrics["paths.peak_mib"] = max(memory.peaks, default=0) / 2**20
    return {"metrics": metrics, "jobs": traced, "untraced_jobs": plain,
            "spans": tracer.spans, "memory_calls": len(memory.peaks)}


def _declared(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 sizes: dict = jobs.SIZES) -> dict:
    """Run one workload and return its full result (nothing is printed)."""
    started = time.monotonic()
    cli = load_cli()
    if trace:
        result = per_layer(cli, workload, seed, seconds, sizes)
    else:
        result = end_to_end(cli, workload, seed, seconds, sizes, jobs.MIN_ROUNDS[workload])
    records = result["jobs"]
    result["env"] = environment(workload, seed, seconds, trace)
    result["attempted"] = len(records)
    result["failed"] = _failures(records)
    result["correct"] = not any(r["status"] == "wrong" for r in records)
    result["elapsed_s"] = time.monotonic() - started
    return result


def write_result(result: dict) -> Path:
    env = result["env"]
    OUT.mkdir(exist_ok=True)
    stem = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}"
    trace_spans = result.pop("spans", None)
    if trace_spans is not None:
        with gzip.open(OUT / f"{stem}-spans.jsonl.gz", "wt") as f:
            for name, start, end, parent, job, note in trace_spans:
                f.write(json.dumps([name, start, end, parent, job, note]) + "\n")
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = _declared(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    path = write_result(result)
    metrics = result["metrics"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {result['attempted']}  failed {result['failed']}  result {path.relative_to(ROOT)}")
    units = {e["name"]: e["unit"] for e in declared}
    if not args.trace:
        tail = result["samples"]["job_tail_s"]
        print(f"  job_tail_s is p{tail['percentile']} of {tail['n']} jobs, "
              f"{tail['beyond']} beyond it")
        units.update(UNDECLARED)
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
