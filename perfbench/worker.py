"""One fresh benchmark process: set up a workload and run at most one pass.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --inputs DIR
        --mode setup|pass [--trace-file PATH] [--smoke]

``DIR`` holds the input files and ``queries.json`` that run.py generated
for the workload and seed.  Set-up is timed from before ``import
bbpda.cli`` to the end of the workload's ``prepare`` (machine compilation
or corpus file parsing).  A pass calls ``bbpda.cli.main(argv)`` in this
process, once per query (skipping those whose ``skip_if`` holds), with
stdout and stderr captured, so argument parsing, input parsing and report
formatting are measured but interpreter start-up is not.  Wall times are host-speed normalized (hostspeed.py); the raw ones
are kept beside them, and the pass's CPU time is reported raw, less the
sampling.  With ``--trace-file`` the tracer's wrappers are installed
before the pass and its spans and counters are written to that file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS, Outcome, load_queries  # noqa: E402


def run_pass(cli_module, queries, tracer):
    """Run every query once, except those whose ``skip_if`` holds:
    (outcomes, (start, end) of the pass, CPU seconds)."""
    outcomes = []
    codes = {}
    real_out, real_err = sys.stdout, sys.stderr
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for qid, query in enumerate(queries):
        if query.skip_if is not None and codes.get(query.skip_if[0]) == query.skip_if[1]:
            continue
        if tracer is not None:
            tracer.query = qid
        buffer = io.StringIO()
        sys.stdout, sys.stderr = buffer, io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            code = cli_module.main(list(query.argv))
        except Exception as exc:  # a traceback from the CLI is a failed query
            code = None
            error = f"{type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            sys.stdout, sys.stderr = real_out, real_err
        codes[qid] = code
        outcomes.append(Outcome(query, code, buffer.getvalue(), error, (start, end)))
    return outcomes, (wall0, time.perf_counter()), time.process_time() - cpu0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inputs", required=True, help="directory run.py generated")
    parser.add_argument("--mode", choices=("setup", "pass"), default="pass")
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.smoke)
    queries = load_queries(os.path.join(args.inputs, "queries.json"))
    # sample the host around set-up, for set-ups too short to interrupt,
    # and within it, for the longer ones
    speed = HostSpeed()
    for _ in range(5):
        speed.sample()
    with speed:
        start = time.perf_counter()
        from bbpda import cli

        workload.prepare(queries)
        end = time.perf_counter()
    for _ in range(5):
        speed.sample()
    raw, setup_s = speed.measure(start, end)
    result = {"setup_s": setup_s, "setup_raw_s": raw}
    if args.mode == "pass":
        tracer = None
        if args.trace_file:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        on_sample = tracer.exclude if tracer is not None else None
        with HostSpeed(on_sample) as speed:
            outcomes, (start, end), cpu_s = run_pass(cli, queries, tracer)
        raw_run_s, run_s = speed.measure(start, end)
        checked = workload.check(outcomes)
        result.update(
            run_s=run_s,
            raw_run_s=raw_run_s,
            raw_cpu_s=cpu_s - sum(speed.blocks),
            latencies_s=[speed.measure(*o.interval)[1] for o in outcomes],
            speed_samples=len(speed.blocks),
            codes=[o.code for o in outcomes],
            errors=[(i, o.error) for i, o in enumerate(outcomes) if o.error],
            wrong=checked.wrong,
            verdicts=checked.verdicts,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["metrics"] = tracer.metrics()
            result["counters"] = tracer.counters()
            with open(args.trace_file, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "counters": result["counters"],
                        "solve_bounded_s_by_depth": sorted(tracer.depth_s.items()),
                        "span_fields": ["id", "name", "start", "end", "parent", "query",
                                        "attrs"],
                        "spans": tracer.spans,
                    },
                    handle,
                )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
