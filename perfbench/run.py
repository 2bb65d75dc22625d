"""bbpda benchmark: end-to-end CLI metrics and per-layer work counters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --audit --seed N

Workloads (see workloads.py for why each exists and what it predicts):
``prop2-laws``, ``reduction-depth`` and ``toy-corpus``.

Each pass of a workload runs in its own fresh single-threaded Python
process (worker.py), which calls ``bbpda.cli.main(argv)`` once per query,
closed loop, one client.  Passes repeat until ``--seconds`` passed; each
time metric is the median over the run's passes.  Set-up time is the
median over eight set-up-only processes plus every pass process.  Times
are normalized for the host's speed swings by in-thread reference
sampling (hostspeed.py); the raw medians, and the raw CPU time of a pass
(``raw_cpu_s``), are printed as comments and kept in the run record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` does the same
untraced passes and then one traced pass (tracer.py wraps the layers from
outside); it prints the end-to-end metrics as comments only and reports
the per-layer metrics plus ``trace_overhead_frac`` (traced run_s /
untraced run_s - 1) in the JSON result.  Its spans and work counters go to
``perfbench/out/trace-<workload>-seed<N>.json``; the counters repeat exactly
between traced runs of one commit.

``--smoke`` runs small versions of all three workloads with verdict checks
on, twice traced, and fails unless every verdict checks and the two traced
runs' work counters are identical.

``--audit`` runs one untimed toy-corpus pass in which ``tableau`` is asked
about every pair, those ``check`` refuted too, and exits 1 when a verdict
is wrong or a query raised: it shows the known tableau defects that the
timed workload's client, which asks ``tableau`` only for pairs ``check``
did not refute, does not reach (NOTES.md).

Every verdict is checked against a reference (workloads.py).  A query that
raises a traceback or gives a checked-wrong verdict counts as failed; the
last stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.  Exit status is 0 when a result was printed, 2 when the
benchmark could not run (for example, no bbpda sources beside it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
REQUIRED = (os.path.join("src", "bbpda", "cli.py"), os.path.join("tests", "corpus.py"))

SETUP_PROCESSES = 8
TIME_LIMIT_S = 170.0  # one workload's run, children included
# A fixed hash seed makes set iteration orders, and so the work counters,
# repeat exactly from run to run; untraced and traced passes share it.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
from workloads import WORKLOADS, ToyCorpus, save_queries  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed query)."""


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values <= it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def environment() -> dict:
    def git_commit():
        head_path = os.path.join(ROOT, ".git", "HEAD")
        try:
            with open(head_path, encoding="utf-8") as handle:
                head = handle.read().strip()
            if head.startswith("ref: "):
                with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
                    return handle.read().strip()
            return head
        except OSError:
            return "none (not a git checkout)"

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "bbpda")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def make_inputs(workload, seed, smoke=False, audit=False) -> str:
    """Write the workload's input files and query list for this seed, once
    per run and untimed; returns the directory (the caller removes it)."""
    os.makedirs(OUT, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"inputs-{workload}-", dir=OUT)
    try:
        if audit:
            maker = ToyCorpus(smoke, audit=True)
        else:
            maker = WORKLOADS[workload](smoke)
        save_queries(os.path.join(inputs, "queries.json"), maker.generate(inputs, seed))
    except BaseException:
        shutil.rmtree(inputs, ignore_errors=True)
        raise
    return inputs


def spawn(deadline, workload, seed, inputs, mode, smoke=False, trace_file=None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--inputs", inputs, "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the run finished")
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process of {workload} exceeded the time limit")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{mode} process of {workload} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, deadline) -> dict:
    inputs = make_inputs(workload, seed)
    try:
        setups = [
            spawn(deadline, workload, seed, inputs, "setup") for _ in range(SETUP_PROCESSES)
        ]
        passes = []
        started = time.monotonic()
        while True:
            passes.append(spawn(deadline, workload, seed, inputs, "pass"))
            if time.monotonic() - started >= seconds:
                break
        traced = None
        if trace:
            trace_file = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
            traced = spawn(deadline, workload, seed, inputs, "pass", trace_file=trace_file)
            traced["trace_file"] = os.path.relpath(trace_file, ROOT)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return {"setups": setups, "passes": passes, "traced": traced}


def summarize(name, raw) -> dict:
    passes = raw["passes"]
    checked = passes + ([raw["traced"]] if raw["traced"] else [])
    attempted = sum(len(p["codes"]) for p in checked)
    failed = sum(len({i for i, _ in p["errors"]} | {i for i, _ in p["wrong"]}) for p in checked)
    wrong = [w for p in checked for w in p["wrong"]]
    errors = [e for p in checked for e in p["errors"]]
    codes = [c for p in passes for c in p["codes"]]
    end_to_end = {
        "setup_s": (
            statistics.median([r["setup_s"] for r in raw["setups"] + passes]), "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "verdicts_per_s": (
            statistics.median(p["verdicts"] / p["run_s"] for p in passes), "1/s"),
        "query_p50_ms": (
            statistics.median(percentile(p["latencies_s"], 50) * 1e3 for p in passes), "ms"),
        "query_p99_ms": (
            statistics.median(percentile(p["latencies_s"], 99) * 1e3 for p in passes), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "decided_frac": (sum(c in (0, 1) for c in codes) / len(codes), "frac"),
    }
    raw_times = {
        "setup_raw_s": statistics.median(r["setup_raw_s"] for r in raw["setups"] + passes),
        "raw_run_s": statistics.median(p["raw_run_s"] for p in passes),
        "raw_cpu_s": statistics.median(p["raw_cpu_s"] for p in passes),
    }
    summary = {
        "workload": name,
        "passes": len(passes),
        "queries_per_pass": len(passes[0]["codes"]),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "wrong": wrong,
        "errors": errors,
        "end_to_end": end_to_end,
        "raw_times": raw_times,
    }
    if raw["traced"]:
        traced = raw["traced"]
        per_layer = {k: tuple(v) for k, v in traced["metrics"].items()}
        per_layer["trace_overhead_frac"] = (traced["run_s"] / end_to_end["run_s"][0] - 1, "frac")
        summary["per_layer"] = per_layer
        summary["counters"] = traced["counters"]
        summary["trace_file"] = traced["trace_file"]
    return summary


def bench(args) -> int:
    """Run one workload, or each in turn for ``--workload all``, and report."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    env = environment()
    print(f"# env {json.dumps(env)}")
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        summary = summarize(name, measure(name, args.seed, args.seconds, args.trace, deadline))
        summary.update(env=env, seed=args.seed, seconds=args.seconds, trace=args.trace)
        os.makedirs(OUT, exist_ok=True)
        record = os.path.join(OUT, f"run-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(record, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)

        print(
            f"# {name} seed {args.seed}: {summary['passes']} passes x "
            f"{summary['queries_per_pass']} queries, {summary['attempted']} attempted, "
            f"{summary['failed']} failed (failed_frac {summary['failed_frac']:.5f})"
        )
        for index, error in summary["errors"]:
            print(f"# traceback in query {index}: {error}")
        for index, reason in summary["wrong"]:
            print(f"# wrong verdict in query {index}: {reason}")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in summary["raw_times"].items():
            print(f"# {prefix}{key} = {value} s (raw, not host-normalized)")
        if args.trace:  # the end-to-end figures of the untraced passes, for reference
            for key, (value, unit) in summary["end_to_end"].items():
                print(f"# {prefix}{key} = {value} {unit}")
        metrics = summary["per_layer"] if args.trace else summary["end_to_end"]
        for key, (value, unit) in metrics.items():
            print(f"# {prefix}{key} = {value} {unit}")
            result["metrics"][prefix + key] = {"value": value, "unit": unit}
        print(f"# record written to {os.path.relpath(record, ROOT)}")
        result["correct"] = result["correct"] and not summary["wrong"]
        result["attempted"] += summary["attempted"]
        result["failed"] += summary["failed"]
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Small runs of every workload: verdicts must check, counters must repeat."""
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    ok = True
    for name in WORKLOADS:
        inputs = make_inputs(name, 0, smoke=True)
        try:
            plain = spawn(deadline, name, 0, inputs, "pass", smoke=True)
            runs = [
                spawn(deadline, name, 0, inputs, "pass", smoke=True,
                      trace_file=os.path.join(OUT, f"smoke-{name}-{i}.json"))
                for i in (1, 2)
            ]
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
        problems = [w for r in [plain] + runs for w in r["wrong"]]
        errors = [e for r in [plain] + runs for e in r["errors"]]
        same = runs[0]["counters"] == runs[1]["counters"]
        print(
            f"{name}: {len(plain['codes'])} queries, {plain['verdicts']} verdicts, "
            f"{len(problems)} wrong, {len(errors)} tracebacks, "
            f"traced counters {'identical' if same else 'DIFFER'}"
        )
        for item in problems + errors:
            print(f"  {item}")
        ok = ok and not problems and same and plain["verdicts"] > 0
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def audit(seed) -> int:
    """One toy-corpus pass with tableau asked about every pair: shows the
    known tableau defects that the timed workload's client does not reach."""
    inputs = make_inputs(ToyCorpus.name, seed, audit=True)
    try:
        run = spawn(time.monotonic() + TIME_LIMIT_S, ToyCorpus.name, seed, inputs, "pass")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(f"toy-corpus audit seed {seed}: {len(run['codes'])} queries")
    for index, error in run["errors"]:
        print(f"traceback in query {index}: {error}")
    for index, reason in run["wrong"]:
        print(f"wrong verdict in query {index}: {reason}")
    return 1 if run["errors"] or run["wrong"] else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small runs of all workloads")
    parser.add_argument(
        "--audit", action="store_true", help="toy-corpus pass with tableau on every pair"
    )
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: run from a bbpda checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if not (args.smoke or args.audit) and args.workload is None:
        parser.error("--workload is required unless --smoke or --audit is given")
    try:
        if args.audit:
            return audit(args.seed)
        return smoke() if args.smoke else bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
