"""Are two sets of runs of the same code within the benchmark's own bounds?

    python3 bench/steadiness.py

Runs the command in BENCHMARK.json for `run_seconds`, one run at a time:
two sets of ten runs on each workload it names, every run with its own
seed (seeds 1 to 10, then 1001 to 1010).  For each workload and
end-to-end metric it prints each set's spread (distance between the first
and third quartile, as a share of the median) and how much worse the
second set's median is than the first's, next to the metric's bound.
Verdicts: `ok` when every spread is below a third of the bound and the
gap within it; `wide` when a spread is within the bound but not below a
third of it; `SPREAD` when a spread exceeds the bound; `GAP` when the gap
does.  It also compares the share of failed operations
between sets, which must be equal.  The full table is written to
.bench_work/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10
SEEDS = [[1 + i for i in range(RUNS)], [1001 + i for i in range(RUNS)]]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    table, ok = {}, True
    for name in (w["name"] for w in spec["workloads"]):
        sets = []
        for k, seeds in enumerate(SEEDS):
            runs = []
            for seed in seeds:
                start = time.perf_counter()
                proc = subprocess.run([*spec["command"], "--workload", name, "--seed", str(seed),
                                       "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                      cwd=ROOT, capture_output=True, text=True, timeout=900)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                result["run_s"] = time.perf_counter() - start
                runs.append(result)
                print(f"{name} set {k} seed {seed}: {time.perf_counter() - start:.1f} s, "
                      + ", ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                      flush=True)
            sets.append(runs)
        rows = {}
        for metric, m in metrics.items():
            values = [[r["metrics"][metric]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            sign = 1 if m["better"] == "lower" else -1
            gap = sign * (medians[1] - medians[0]) / medians[0]
            if gap > m["bound"]:
                verdict = "GAP"
            elif any(s > m["bound"] for s in spreads):
                verdict = "SPREAD"
            elif any(s >= m["bound"] / 3 for s in spreads):
                verdict = "wide"
            else:
                verdict = "ok"
            ok &= verdict == "ok"
            rows[metric] = {"bound": m["bound"], "medians": medians, "spreads": spreads,
                            "gap": gap, "verdict": verdict}
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        rows["failed_share"] = shares
        ok &= len(set(shares)) == 1 and all(r["correct"] for runs in sets for r in runs)
        rows["run_s"] = [statistics.median(r["run_s"] for r in runs) for runs in sets]
        table[name] = rows
    print(f"\n{'workload':14} {'metric':18} {'bound':>6} {'spreads':>17} {'gap':>8}  verdict")
    for name, rows in table.items():
        for metric in metrics:
            r = rows[metric]
            print(f"{name:14} {metric:18} {r['bound']:6.3f} "
                  f"{' '.join(f'{s:.3f}' for s in r['spreads']):>17} {r['gap']:8.4f}  "
                  f"{r['verdict']}")
        print(f"{name:14} failed share {rows['failed_share']}, "
              f"median run {', '.join(f'{s:.1f}' for s in rows['run_s'])} s")
    out = ROOT / ".bench_work" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
