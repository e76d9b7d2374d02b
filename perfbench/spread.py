"""Run the benchmark over several seeds and record its run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/spread.json

Runs are interleaved: each seed runs every workload, and the workload
order rotates from seed to seed, so trial order cannot favour one
workload.  For every metric the record holds the sample count, median,
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median; the bounds in
``BENCHMARK.json`` come from it.  Exits 1 if a run fails or reports
``correct: false``, or if a spread exceeds its metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    ok = True
    for i, seed in enumerate(_seeds(args.seeds)):
        shift = i % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            if not result["correct"]:
                sys.stderr.write("".join(
                    line + "\n" for line in proc.stderr.splitlines()
                    if "FAILED" in line))
            print("%-16s seed %-3d correct=%s %s" % (
                workload, seed, result["correct"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in sorted(result["metrics"].items()))),
                  flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(
                    metric["value"])
    record = {}
    for workload in workloads:
        record[workload] = {}
        for name, series in sorted(values[workload].items()):
            if len(series) < 2:
                continue
            stats = record[workload][name] = summary(series)
            bound = bounds[name]
            flag = ""
            if name != "setup_s":
                if stats["spread"] > bound:
                    flag = "  OVER BOUND %.2f" % bound
                    ok = False
                elif stats["spread"] > bound / 3:
                    flag = "  over a third of bound %.2f" % bound
            print("%-16s %-22s n=%-3d median=%-12.5g spread=%.3f%s" % (
                workload, name, stats["n"], stats["median"],
                stats["spread"], flag))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seconds": args.seconds, "seeds": args.seeds,
                       "order": "interleaved, rotating per seed",
                       "metrics": record}, handle, indent=1,
                      sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
