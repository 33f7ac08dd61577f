"""``python -m bench``: run the benchmark.

With ``--workload NAME`` one workload runs in this process and the last
line of standard output is its result as one JSON object — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it, every workload runs in a fresh interpreter of its own, first
untraced and then traced, every metric is printed by name with its unit,
and ``bench/out/results.json`` records the runs with their quartiles,
sample counts and the environment.  The exit code is 0 only if every
output checked was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import List, Optional

try:
    import bench  # noqa: F401  (puts src/ on the path)
    from bench import churn, deploy, feed, spec, xrl_call
    from bench.harness import Result, Scale
except ImportError as error:  # no router to measure: say so, print no result
    sys.stderr.write(f"bench: cannot import the router under src/: {error}\n")
    sys.exit(2)

OUT_DIR = os.path.join(bench.ROOT, "bench", "out")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale) -> Result:
    if name == "feed_inproc":
        result = feed.run("inproc", seed, seconds, trace, scale)
    elif name == "feed_multiproc":
        result = feed.run("multiproc", seed, seconds, trace, scale)
    elif name == "churn_inproc":
        result = churn.run(seed, seconds, trace, scale)
    else:
        result = xrl_call.run(seed, seconds, trace, scale)
    result.attempt()
    leftovers = deploy.surviving_children()
    if leftovers:
        result.fail(f"child processes outlived the run: {leftovers}")
    return result


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "loadavg": list(os.getloadavg()), "git_sha": sha,
            "codec": os.environ.get("REPRO_XRL_CODEC", "binary"),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def print_record(record: dict, stream) -> None:
    mode = "per-layer (traced run)" if record["trace"] else "end-to-end"
    stream.write(f"== {record['workload']} seed {record['seed']}: {mode}; "
                 f"{record['attempted']} attempted, {record['failed']} "
                 f"failed ==\n")
    names = (spec.PER_LAYER_NAMES if record["trace"]
             else spec.END_TO_END_NAMES)
    for name in names:
        metric = record["metrics"].get(name, {"value": 0.0})
        extra = ""
        if "q1" in metric:
            extra = (f"   [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, "
                     f"n {metric['n']}]")
        elif "n" in metric:
            extra = f"   [n {metric['n']}]"
        stream.write(f"  {name:<40} {metric['value']:>14.6g} "
                     f"{spec.UNITS[name]:<6}{extra}\n")
    for failure in record["failures"]:
        stream.write(f"  FAILED: {failure}\n")
    if record["notes"]:
        stream.write(f"  notes: {json.dumps(record['notes'])}\n")


def single(args, scale: Scale) -> int:
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), scale)
    record = result.record()
    if result.tracer is not None:
        path = os.path.join(OUT_DIR, "trace.json")
        result.tracer.write(path, {"workload": args.workload,
                                   "seed": args.seed})
        record["notes"]["trace_json"] = os.path.relpath(path, bench.ROOT)
    if args.record:
        os.makedirs(os.path.dirname(os.path.abspath(args.record)),
                    exist_ok=True)
        with open(args.record, "w") as handle:
            json.dump(record, handle)
    print_record(record, sys.stderr)
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


def everything(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    traces = [0, 1] if args.trace is None else [args.trace]
    document = {"environment": environment(), "seconds": args.seconds,
                "quick": args.quick, "runs": []}
    status = 0
    for repeat in range(args.repeat):
        for trace in traces:
            for name in spec.WORKLOAD_NAMES:
                record_path = os.path.join(OUT_DIR, f"run-{os.getpid()}.json")
                command = [sys.executable, "-m", "bench", "--workload", name,
                           "--seed", str(args.seed), "--seconds",
                           str(args.seconds), "--trace", str(trace),
                           "--record", record_path]
                if args.quick:
                    command.append("--quick")
                done = subprocess.run(command, cwd=bench.ROOT,
                                      capture_output=True, text=True,
                                      timeout=900)
                if done.returncode not in (0, 1) or not os.path.exists(
                        record_path):
                    print(f"== {name}: run crashed with code "
                          f"{done.returncode} ==\n{done.stderr[-2000:]}")
                    status = 1
                    continue
                with open(record_path) as handle:
                    record = json.load(handle)
                os.remove(record_path)
                document["runs"].append(record)
                print_record(record, sys.stdout)
                if not record["correct"]:
                    status = 1
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"wrote {os.path.relpath(args.out)}; "
          f"{'all outputs correct' if status == 0 else 'FAILURES above'}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float,
                        default=float(spec.DECLARED["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes (500 routes, 2 000 XRLs)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: sets of runs to record")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"),
                        help="all-workloads mode: where the runs are recorded")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        return single(args, Scale(quick=args.quick))
    return everything(args)


if __name__ == "__main__":
    sys.exit(main())
