"""The canonical benchmark suite: one command, four workloads.

    python3 benchmarks/suite/run.py [--workload W] [--seed S]
                                    [--seconds N] [--trace 0|1]

Each workload runs in fresh subprocesses (``PYTHONHASHSEED=0``) fed
with inputs generated from ``--seed``.  Every metric is printed by name
with its unit, outputs are verified, and the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when a correctness or schema check fails.

``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` the per-layer ones, from a run with
timing wrappers installed, and writes the spans to
``benchmarks/suite/out/trace_<workload>.json``.

``--repeat N --out FILE`` collects N runs per workload (seeds S..S+N-1)
into FILE; ``--compare A B`` tabulates two such files.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.normpath(os.path.join(_HERE, "..", ".."))
sys.path.insert(0, _HERE)

import check  # noqa: E402
import inputs  # noqa: E402

#: A worker that outlives this is killed (the driver allows 180 s).
WORKER_TIMEOUT_S = 150.0


def load_benchmark() -> dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               extra: List[str]) -> dict:
    """One worker subprocess; returns the document on its last line."""
    command = [sys.executable, os.path.join(_HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--t0", repr(time.perf_counter())] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    # A new session, so a timeout can take the server process down too.
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, 9)
        process.communicate()
        raise SystemExit(f"{workload}: worker exceeded "
                         f"{WORKER_TIMEOUT_S:.0f} s and was killed")
    if process.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with code "
                         f"{process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 extra: List[str], benchmark: dict) -> dict:
    """Set up, measure, verify; returns the result record."""
    document = run_worker(workload, seed, seconds, trace, extra)
    problems = check.verify_evidence(document)
    values = document["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"]
             for m in benchmark["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": not problems and document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in values.items()},
    }
    problems += check.validate_output(result, benchmark, trace)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "result": result, "problems": problems,
            "diagnostics": document["diagnostics"]}


def print_record(record: dict) -> None:
    result = record["result"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, entry in result["metrics"].items():
        print(f"{record['workload']:<17} {name:<40} "
              f"{entry['value']:>16.6f} {entry['unit']}")
    for problem in record["problems"]:
        print(f"!! {record['workload']}: {problem}", file=sys.stderr)


# -- comparing two sets of runs ---------------------------------------------------


def summarise(path: str) -> Dict[str, Dict[str, dict]]:
    """{workload: {metric: {median, q1, q3, spread, n, values}}}."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, entry in run["result"]["metrics"].items():
            grouped.setdefault(run["workload"], {}).setdefault(
                name, []).append(entry["value"])
    summary: Dict[str, Dict[str, dict]] = {}
    for workload, metrics in grouped.items():
        for name, values in metrics.items():
            q1, _q2, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else [values[0]] * 3
            middle = statistics.median(values)
            summary.setdefault(workload, {})[name] = {
                "median": middle, "q1": q1, "q3": q3,
                # Inter-quartile distance as a share of the median.
                "spread": (q3 - q1) / abs(middle) if middle else 0.0,
                "n": len(values), "values": values}
    return summary


def compare(path_a: str, path_b: str, benchmark: dict,
            save: Optional[str]) -> int:
    """One row per workload x end-to-end metric: A's and B's medians,
    B/A *with its base*, the bound, and a verdict:

    ``ok``          B is no worse than A by more than the bound;
    ``worse``       it is;
    ``unresolved``  either side's own spread is wider than the bound.
    """
    a, b = summarise(path_a), summarise(path_b)
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    rows = []
    print(f"{'workload':<17} {'metric':<22} {'A median':>12} {'B median':>12}"
          f" {'B/A':>7} {'(base A)':>12} {'bound':>6} {'spread A/B':>13}"
          f"  verdict")
    for workload in inputs.WORKLOADS:
        for name, spec in specs.items():
            if name not in a.get(workload, {}) \
                    or name not in b.get(workload, {}):
                continue
            sa, sb = a[workload][name], b[workload][name]
            ratio = sb["median"] / sa["median"] if sa["median"] else 0.0
            worse = (ratio - 1.0 if spec["better"] == "lower"
                     else 1.0 - ratio)
            if max(sa["spread"], sb["spread"]) > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse > spec["bound"] else "ok"
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], "a": sa, "b": sb,
                         "ratio_b_over_a": ratio, "bound": spec["bound"],
                         "worse_by": worse, "verdict": verdict})
            print(f"{workload:<17} {name:<22} {sa['median']:>12.4f} "
                  f"{sb['median']:>12.4f} {ratio:>7.3f} "
                  f"{sa['median']:>12.4f} {spec['bound']:>6.2f} "
                  f"{sa['spread']:>6.3f}/{sb['spread']:<6.3f}  {verdict}")
    if save:
        with open(save, "w", encoding="utf-8") as handle:
            json.dump({"schema": "suite-calibration/1",
                       "sets": [os.path.basename(path_a),
                                os.path.basename(path_b)], "rows": rows},
                      handle, indent=1)
            handle.write("\n")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


# -- entry point ------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=inputs.WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the measured window, a fixed number "
                             "of requests that\ntakes about this long on "
                             "the calibration box (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the group and the op count "
                             "(smoke test; results are not comparable)")
    parser.add_argument("--stall-ms", type=float, default=0.0,
                        help="inject one generator stall (smoke test)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on consecutive seeds")
    parser.add_argument("--out", help="write every run's record here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--save", help="with --compare: write the table")
    args = parser.parse_args()
    benchmark = load_benchmark()
    if args.compare:
        return compare(args.compare[0], args.compare[1], benchmark,
                       args.save)
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print("run.py: no src/repro next to BENCHMARK.json; the suite "
              "measures the repository it sits in", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else float(benchmark["run_seconds"])
    extra = []
    if args.scale != 1.0:
        extra += ["--scale", repr(args.scale)]
    if args.stall_ms:
        extra += ["--stall-ms", repr(args.stall_ms)]
    workloads = [args.workload] if args.workload else list(inputs.WORKLOADS)
    records = []
    for workload in workloads:
        for repeat in range(args.repeat):
            record = run_workload(workload, args.seed + repeat, seconds,
                                  bool(args.trace), extra, benchmark)
            print_record(record)
            records.append(record)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"schema": "suite-runs/1", "runs": records}, handle,
                      indent=1)
            handle.write("\n")
    if len(records) == 1:
        final = records[0]["result"]
    else:
        # Several runs: one object all the same, names prefixed.
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{r['seed']}.{name}": entry
                        for r in records
                        for name, entry in r["result"]["metrics"].items()}}
    print(json.dumps(final))
    failed = [r for r in records if r["problems"] or not
              r["result"]["correct"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
