"""Repeat the benchmark over ten seeds and summarise each metric.

    python3 perfbench/collect.py --traced --out perfbench/baseline.json

Runs ``run.py --workload all`` once per seed, 1 to 10, one process at a
time, so the workloads are interleaved and a slow spell of the machine
touches all of them.  For each end-to-end metric it reports the median,
the quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread, the interquartile distance as a share of the median, next to the
bound in ``BENCHMARK.json``.  ``--traced`` adds one traced run of seed 1 for
the per-layer breakdown.  Exits when any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_all(seed, seconds, trace):
    """(records, {workload: {metric: value}}) of one ``run.py --workload all``."""
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stdout + child.stderr)
        raise SystemExit(f"seed {seed} exited {child.returncode}")
    records = [json.loads(x[len("record "):]) for x in lines if x.startswith("record ")]
    values = {}
    for key, metric in json.loads(lines[-1])["metrics"].items():
        workload, name = key.split(":", 1)
        values.setdefault(workload, {})[name] = metric["value"]
    return records, values


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread <= bound / 3.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in names}
    records = []
    for seed in SEEDS:
        seed_records, result = run_all(seed, seconds, 0)
        records += seed_records
        for w in names:
            for m in bounds:
                values[w][m].append(result[w][m])
            print(f"{w} seed {seed}: " + "  ".join(
                f"{m}={result[w][m]:.5g}" for m in bounds), flush=True)
    summary = {"run_seconds": seconds, "seeds": [SEEDS[0], SEEDS[-1]], "record": records[0],
               "end_to_end": {}, "per_layer": {}}
    for w in names:
        summary["end_to_end"][w] = {m: summarise(values[w][m], bounds[m]) for m in bounds}
        for m, s in summary["end_to_end"][w].items():
            flag = "" if s["steady"] else "  NOT STEADY"
            print(f"{w:15s} {m:17s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    if args.traced:
        _, result = run_all(SEEDS[0], seconds, 1)
        summary["per_layer"] = result
        for w in names:
            print(f"{w} traced: " + "  ".join(
                f"{k}={v:.4g}" for k, v in result[w].items()), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
