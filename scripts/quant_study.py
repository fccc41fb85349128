#!/usr/bin/env python3
"""Fixed-point versus float error-rate comparison.

Sweeps one code over an Eb/N0 ladder with the float decoder and each
requested quantization scheme, writing every curve to one CSV keyed by
scheme.  The final column set matches the single-curve CSV format with a
leading scheme column.
"""

import argparse
import csv
import sys

from fastssc import QuantSpec, construct_code
from fastssc.cli import parse_ebn0
from fastssc.sim import StopRule, run_ber_sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument("--k", type=int, default=512)
    ap.add_argument("--design-snr", type=float, default=2.0)
    ap.add_argument("--ebn0", default="1.5,1.75,2.0,2.25,2.5,2.75,3.0",
                    help="comma list and/or lo:hi:step ranges, in dB")
    ap.add_argument("--schemes", default="4,5,0;5,6,0;6,7,1",
                    help="semicolon-separated C,L,F triples")
    ap.add_argument("--min-frame-errors", type=int, default=200)
    ap.add_argument("--max-frames", type=int, default=400_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="quant_study.csv")
    args = ap.parse_args(argv)

    code = construct_code(args.n, args.k, args.design_snr)
    points = parse_ebn0(args.ebn0)
    stop = StopRule(args.min_frame_errors, args.max_frames)
    runs = [("float", None)]
    runs += [(s.strip(), QuantSpec.from_string(s)) for s in args.schemes.split(";") if s.strip()]

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "ebn0_db", "frames", "bit_errors", "frame_errors", "ber", "fer"])
        for label, spec in runs:
            tie = "exact" if spec is None else "hardware"
            rows = run_ber_sweep(code, points, quant=spec, tie_mode=tie, stop=stop,
                                 seed=args.seed, batch=8192, workers=args.workers)
            for ebn0, st in rows:
                w.writerow([label, ebn0, st.frames, st.bit_errors, st.frame_errors,
                            f"{st.ber:.6e}", f"{st.fer:.6e}"])
                print(f"{label:8s} {ebn0:5.2f} dB  fer={st.fer:.3e} ({st.frames} frames)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
