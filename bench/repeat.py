"""
Run the benchmark once for each of seeds 1..RUNS on every workload in
BENCHMARK.json, one run at a time, and summarise every metric as median,
quartiles and spread, the quartile distance as a share of the median
(statistics.quantiles, n=4). Every end-to-end metric's spread, setup_s's too,
is compared with a third of its bound in BENCHMARK.json.

    python3 bench/repeat.py --runs 10 [--trace 0|1] [--out FILE]

--out writes every run's result line and the summary as one JSON record.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"benchmark": spec, "trace": args.trace, "runs": {}, "summary": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            if seed == 1:
                record.setdefault("stamp_line", proc.stdout.splitlines()[0])
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']}", file=sys.stderr)
        record["runs"][workload] = runs
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        record["summary"][workload] = summary
        for name, s in summary.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = s["spread"] < bound / 3
                steady &= ok
                verdict = "ok" if ok else f"SPREAD >= bound/3 ({bound / 3:.3f})"
            print(f"{workload:<20} {name:<28} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f} {verdict}")
        steady &= all(r["correct"] for r in runs)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
