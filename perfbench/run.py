"""The fastssc benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of the
same tree; the workloads are in ``workloads.py`` and their reasons in
``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics for ``S`` seconds with no
tracing.  ``--trace 1`` measures ``S/2`` seconds untraced, then ``S/2``
seconds with every call into the library's layers timed from outside (see
``tracing.py``), and reports the per-layer metrics and the tracing overhead.
Either way a held-back sample of frames is then checked against an oracle.

Stdout has one line per metric, the oracle check, the provenance and the
frame counts, then as its last line one JSON object with the keys
``correct``, ``attempted`` (frames checked against the oracle), ``failed``
(frames that mismatched; all of them when a cycle count disagrees or the run
raises) and ``metrics``.  The full record, with every batch time, is written
to ``.bench_out/``.  The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))  # the library under test is this tree's, never an installed one

import numpy as np  # noqa: E402

import fastssc  # noqa: E402
from metrics import layer_metrics, windowed_tail  # noqa: E402
from setup_probe import bind  # noqa: E402
from tracing import LAYERS, SpanTable, Tracer, rebinding  # noqa: E402
from workloads import BY_NAME, GATE_FRAMES, make_runner  # noqa: E402

SETUP_PROBES = 7       # fresh processes whose median set-up time is setup_s
COUNT_FRAMES = 512     # frames of the untimed saturation-counting pass
MODULES = {layer: importlib.import_module(f"fastssc.{layer}") for layer in LAYERS}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(wl, seed, code):
    """Where, on what and from which sources a result was measured."""
    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    src = hashlib.sha256()
    for path in sorted((SRC / "fastssc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    frozen = " ".join(str(i) for i in np.flatnonzero(code.frozen))
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "workload": asdict(wl),
        "frozen_sha256": hashlib.sha256(f"{code.N} {code.K}\n{frozen}\n".encode()).hexdigest(),
    }


def setup_seconds(wl, frozen_path):
    """Wall time of ``SETUP_PROBES`` set-ups, each in a fresh process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(asdict(wl)), str(frozen_path)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def measure(runner, seconds):
    """Closed loop: send requests until ``seconds`` of wall time have passed."""
    runner.batch_s.clear()
    frames = frame_errors = bit_errors = 0
    t0 = time.perf_counter()
    with runner.batch_timer():
        while True:
            f, fe, be = runner.step()
            frames, frame_errors, bit_errors = frames + f, frame_errors + fe, bit_errors + be
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
    return {"frames": frames, "frame_errors": frame_errors, "bit_errors": bit_errors,
            "elapsed_s": elapsed, "batch_s": list(runner.batch_s)}


def saturated_frac(runner):
    """Share of ``sat_add`` outputs that saturated, over an untimed pass.

    Kept out of the traced phase: the extra sum it takes would be charged to
    the caller's span.
    """
    sat_add = MODULES["quant"].sat_add
    counts = [0, 0]
    lock = threading.Lock()

    def counting(a, b, spec):
        out = sat_add(a, b, spec)
        total = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
        hit = int(np.count_nonzero(np.abs(total) > spec.internal_limit))
        with lock:
            counts[0] += hit
            counts[1] += np.size(out)
        return out

    done = 0
    with rebinding(MODULES.values(), {sat_add: counting}):
        while done < COUNT_FRAMES:
            done += runner.step(COUNT_FRAMES)[0]
    return counts[0] / counts[1] if counts[1] else 0.0


def run_untraced(wl, seed, seconds, frozen_path):
    setup_all = setup_seconds(wl, frozen_path)
    runner = make_runner(wl, bind(asdict(wl), frozen_path), seed)
    runner.warm_up()
    m = measure(runner, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    batch_tail, pct, per_window, windows = windowed_tail(m["batch_s"])
    metrics = {
        "frames_per_s": m["frames"] / m["elapsed_s"],
        "batch_s_tail": batch_tail,
        "setup_s": statistics.median(setup_all),
        "peak_rss_mb": peak_mb,
    }
    detail = {"batch_s_p50": statistics.median(m["batch_s"]), "batch_s_tail_percentile": pct,
              "batches_per_window": per_window, "windows": windows, "batches": len(m["batch_s"]),
              "elapsed_s": m["elapsed_s"], "setup_s_each": setup_all, "batch_s": m["batch_s"]}
    return runner, metrics, m, detail


def run_traced(wl, seed, seconds, frozen_path):
    setup_tracer = Tracer(MODULES)
    with setup_tracer.active():
        bound = bind(asdict(wl), frozen_path)
    runner = make_runner(wl, bound, seed)
    runner.warm_up()
    base = measure(runner, seconds / 2)
    tracer = Tracer(MODULES)
    with tracer.active():
        m = measure(runner, seconds / 2)
    spans = tracer.spans()
    np.savez(OUT / f"{wl.name}-seed{seed}-spans.npz", names=np.array(tracer.names), **spans)
    run = {
        "frames": m["frames"],
        "batches": len(m["batch_s"]),
        "workers": wl.workers,
        "traced_fps": m["frames"] / m["elapsed_s"],
        "untraced_fps": base["frames"] / base["elapsed_s"],
        "cycles": statistics.median(runner.cycles) if wl.entry == "hw" else 0,
        "saturated_frac": saturated_frac(runner),
    }
    metrics = layer_metrics(SpanTable(spans, tracer.names),
                            SpanTable(setup_tracer.spans(), setup_tracer.names), run)
    detail = {"spans": int(spans["name"].size), "untraced_frames": base["frames"],
              "untraced_elapsed_s": base["elapsed_s"], "elapsed_s": m["elapsed_s"]}
    return runner, metrics, m, detail


def main(argv=None):
    args = parse_args(argv)
    if Path(fastssc.__file__).resolve().parent != (SRC / "fastssc").resolve():
        print(f"error: fastssc imported from {fastssc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = BY_NAME[args.workload]
    OUT.mkdir(exist_ok=True)
    frozen_path = OUT / f"frozen_{wl.N}_{wl.K}.txt"
    section = "per_layer" if args.trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    units = {m["name"]: m["unit"] for m in declared}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        run = run_traced if args.trace else run_untraced
        runner, metrics, m, detail = run(wl, args.seed, args.seconds, frozen_path)
        checked, bad, cycles, cycle_errors = runner.check()
        if not args.trace:
            metrics["decode_cycles"] = cycles
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                               f"differ from the {section} list in BENCHMARK.json")
        failed = checked if cycle_errors else bad
        record.update(
            provenance=provenance(wl, args.seed, runner.code), detail=detail,
            counts={k: m[k] for k in ("frames", "frame_errors", "bit_errors")},
            checked=checked, mismatched=bad, mismatch_frac=bad / checked,
            cycle_errors=cycle_errors)
    except Exception:
        traceback.print_exc()
        checked = failed = GATE_FRAMES
        metrics = {}
        record["error"] = traceback.format_exc()
    result = {
        "correct": failed == 0,
        "attempted": checked,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    out_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    for name, entry in result["metrics"].items():
        print(f"{name:28s} {entry['value']!r} {entry['unit']}")
    if "mismatch_frac" in record:
        if not args.trace:
            print(f"batch_s_p50 {detail['batch_s_p50']!r} s (reported, not gated)")
            print(f"batch_s_tail is p{detail['batch_s_tail_percentile']:.2f} of "
                  f"{detail['batches_per_window']} batches, median of {detail['windows']} "
                  f"windows; {detail['batches']} batches in all")
        print(f"mismatch_frac {record['mismatch_frac']!r} ({bad} of {checked} "
              f"oracle-checked frames), cycle_errors {cycle_errors}")
        print("provenance " + json.dumps(record["provenance"]))
        print("counts " + json.dumps(record["counts"]))
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
