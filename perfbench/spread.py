"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--out FILE]

Runs ``perfbench/run.py`` once per seed, one run at a time, then prints for
each end-to-end metric its median, its quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(Q3 - Q1) / median``
and the bound ``BENCHMARK.json`` gives it.  A spread above a third of its
bound is flagged, as is any run that fails.  ``--out`` also writes every
run's values, with the first run's provenance, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--out")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    failures = 0
    provenance = None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(out.stdout.strip().splitlines()[-1]) if out.stdout.strip() else {}
        ok = out.returncode == 0 and result.get("correct")
        if ok and provenance is None:
            record = ROOT / ".bench_out" / f"{args.workload}-seed{seed}-trace0.json"
            provenance = json.loads(record.read_text())["provenance"]
        failures += not ok
        for name in values:
            if name in result.get("metrics", {}):
                values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ("ok" if ok else f"FAILED (exit {out.returncode})") + " "
              + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items() if v), flush=True)
    report = {"workload": args.workload, "seconds": seconds, "runs": args.runs,
              "first_seed": args.first_seed, "failures": failures,
              "provenance": provenance, "metrics": {}}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        s = summarize(vals)
        report["metrics"][name] = s
        flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
        print(f"{name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}  bound {bounds[name]}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
