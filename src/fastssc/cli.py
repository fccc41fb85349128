"""Command-line interface: construct, schedule, decode, ber."""

from __future__ import annotations

import argparse
import array
import contextlib
import math
import sys
from collections import Counter

import numpy as np

from . import core, fast, hw, sim
from .quant import QuantSpec
from .fast import sc_latency_cycles, two_bit_precomputed_cycles


def _add_code_args(p):
    p.add_argument("--n", type=int, help="block length (power of 2)")
    p.add_argument("--k", type=int, help="information bits")
    p.add_argument("--design-snr", type=float, default=2.0, help="design Eb/N0 in dB (default 2.0)")
    p.add_argument("--method", choices=["ga", "bhattacharyya"], default="ga",
                   help="construction method (default ga)")
    p.add_argument("--frozen-file", help="frozen-set file overriding --n/--k construction")


def _add_decoder_args(p):
    p.add_argument("--decoder", choices=["sc", "fast-ssc", "hw"], default="fast-ssc")
    p.add_argument("--quant", help="fixed-point spec 'C,L,F', e.g. 4,5,0 (the hw default)")
    p.add_argument("--tie-mode", choices=["exact", "hardware"], default="exact")
    p.add_argument("--seed", type=int, default=0)


MAX_CHUNK_VALUES = 2**25
MAX_RANGE_POINTS = 1000


def _check_chunk(N, frames):
    if frames * N > MAX_CHUNK_VALUES:
        raise ValueError(f"a chunk of {frames} frames of N={N} holds more than "
                         f"{MAX_CHUNK_VALUES} values")


def _resolve_code(args, frames=1):
    """The code of --frozen-file or --n/--k, checked against the chunk cap.

    ``frames`` is how many of its frames one chunk holds at once.  The code
    constructors check N against ``core.MAX_N``.
    """
    if args.frozen_file is not None:
        code = core.read_frozen_file(args.frozen_file)
        _check_chunk(code.N, frames)
        return code
    if args.n is None or args.k is None:
        raise ValueError("provide --frozen-file or both --n and --k")
    _check_chunk(args.n, frames)
    return core.construct_code(args.n, args.k, args.design_snr, method=args.method)


def parse_ebn0(text):
    """Eb/N0 points in dB from a comma list of values and ``lo:hi:step`` ranges."""
    pts = []
    for token in text.split(","):
        token = token.strip()
        if ":" in token:
            fields = token.split(":")
            if len(fields) != 3:
                raise ValueError(f"Eb/N0 range {token!r} must have the form lo:hi:step")
            lo, hi, step = map(float, fields)
            # points are rounded to 1e-6 dB, so a finer step would repeat them
            if (not all(math.isfinite(v) for v in (lo, hi, step)) or hi < lo
                    or step < 1e-6 or lo + step == lo):
                raise ValueError(f"Eb/N0 range {token!r} needs finite bounds, hi >= lo and a "
                                 "step of at least 1e-6 dB that moves lo")
            # points lo + i * step up to hi, with a 1e-9 dB tolerance at hi
            span = (hi - lo + 1e-9) / step
            if span >= MAX_RANGE_POINTS:
                raise ValueError(f"Eb/N0 range {token!r} has more than {MAX_RANGE_POINTS} points")
            pts.extend(round(lo + i * step, 6) for i in range(math.floor(span) + 1))
        elif token:
            pts.append(float(token))
    if not pts:
        raise ValueError("no Eb/N0 points given")
    # one seed per sweep, so a repeated point would rerun the same frames;
    # a half-way value in a range can round onto its neighbour
    repeats = [p for p, n in Counter(pts).items() if n > 1]
    if repeats:
        raise ValueError(f"Eb/N0 point {repeats[0]} dB appears more than once "
                         "(range points are rounded to 1e-6 dB)")
    return pts


def cmd_construct(args):
    code = _resolve_code(args)
    if args.out is not None:
        core.write_frozen_file(args.out, code)
        print(f"wrote {args.out}: N={code.N} K={code.K} "
              f"method={code.construction.method} design_snr_db={code.construction.design_snr_db}")
    else:
        sys.stdout.write(core.frozen_file_text(code))
    return 0


def cmd_schedule(args):
    code = _resolve_code(args)
    if code.N < 2:
        # N = 1 has no decode tree, and its 2N - 2 baseline is 0 cycles
        raise ValueError(f"schedule needs N >= 2, got N={code.N}")
    report = fast.latency_model(fast.classified(code), precompute=not args.no_precompute)
    if args.json is not None:  # written first, so a bad path fails before anything is printed
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    for e in report.entries:
        print(f"node={e.node:5d} kind={e.kind.value:7s} stage={e.stage:2d} offset={e.offset:5d} cycles={e.cycles}")
    total = report.total_cycles
    conv = sc_latency_cycles(code.N, precompute=False)
    pre = sc_latency_cycles(code.N)
    base = two_bit_precomputed_cycles(code.N)
    print(f"total_cycles={total}")
    print(f"reduction_vs_conventional_{conv}={1 - total / conv:.4f}")
    print(f"reduction_vs_precomputed_{pre}={1 - total / pre:.4f}")
    print(f"reduction_vs_two_bit_{base:g}={1 - total / base:.4f}")
    if args.json is not None:
        print(f"wrote {args.json}")
    return 0


def _load_frames(path, N):
    """The file's frames as one (frames, N) float64 block, read in one pass.

    Each line's values are appended to one growing float64 array, and the
    chunk cap is checked before a line is parsed.
    """
    values = array.array("d")
    with open(path) as fh:
        for line in filter(None, map(str.strip, fh)):
            _check_chunk(N, len(values) // N + 1)
            fields = line.split(",")
            if not all(f.strip() for f in fields):
                raise ValueError(f"empty field in frame line {line!r}")
            vals = [t for f in fields for t in f.split()]
            if len(vals) != N:
                raise ValueError(f"frame length {len(vals)} does not match N={N}")
            values.extend(map(float, vals))
    if not values:
        raise ValueError(f"no frames in {path}")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, N)


def _decoder_settings(args):
    """``make_decoder``'s settings from --decoder, --quant and --tie-mode."""
    quant = None if args.quant is None else QuantSpec.from_string(args.quant)
    return {"decoder": args.decoder.replace("-", "_"), "quant": quant, "tie_mode": args.tie_mode}


def _bits_str(bits):
    return "".join(str(int(b)) for b in np.atleast_1d(bits))


def cmd_decode(args):
    code = _resolve_code(args, 1 if args.frame_file is not None else args.frames)
    if args.trace is not None and args.decoder != "hw":
        raise ValueError("--trace is only available with --decoder hw")
    decode = sim.make_decoder(code, **_decoder_settings(args))
    if args.frame_file is not None:
        llr = _load_frames(args.frame_file, code.N)
        tx_msgs = None
    else:
        if args.frames < 1:
            raise ValueError(f"--frames must be >= 1, got {args.frames}")
        cfg = sim.ChannelConfig(args.ebn0, code.rate, args.seed)
        tx_msgs, _, llr = sim.channel_frames(code, cfg, 0, args.frames, decode.spec)
    result = decode(llr) if args.trace is None else decode(llr, trace=True)
    if args.trace is not None:
        hw.write_trace_jsonl(args.trace, result)
    if args.decoder == "hw":
        print(f"cycles={result.cycle_trace.total_cycles}")
    for i, row in enumerate(result.u_hat):
        info = row[code.info_indices]
        print(f"frame={i} u_hat={_bits_str(row)}")
        print(f"frame={i} info={_bits_str(info)}")
        if tx_msgs is not None:
            ok = bool((info == tx_msgs[i]).all())
            print(f"frame={i} match={ok}")
    return 0


def cmd_ber(args):
    code = _resolve_code(args, args.batch)
    settings = _decoder_settings(args)
    stop = sim.StopRule(args.min_frame_errors, args.max_frames)
    points = parse_ebn0(args.ebn0)
    # a bad --out path fails here, not after the sweep
    with contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w", newline="") as fh:
        rows = sim.run_ber_sweep(code, points, seed=args.seed, stop=stop, batch=args.batch,
                                 workers=args.workers, **settings)
        for ebn0, st in rows:
            print(f"ebn0_db={ebn0} frames={st.frames} ber={st.ber:.3e} fer={st.fer:.3e}")
        fh.write(sim.stats_csv_text(rows))
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fastssc",
        description="Polar code construction, pruned-tree SC decoding, and a cycle-level datapath model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code and emit its frozen-set file")
    _add_code_args(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("schedule", help="print the pruned decode schedule and cycle totals")
    _add_code_args(p)
    p.add_argument("--no-precompute", action="store_true",
                   help="charge separate check/variable cycles per branch")
    p.add_argument("--json", help="also write the schedule as a JSON array")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("decode", help="decode frames from a file or a seeded random channel")
    _add_code_args(p)
    _add_decoder_args(p)
    p.add_argument("--frame-file",
                   help="text file or pipe, read once, with one LLR frame per line, "
                        "values split by whitespace or commas")
    p.add_argument("--ebn0", type=float, default=2.0, help="channel Eb/N0 for random frames")
    p.add_argument("--frames", type=int, default=1, help="number of random frames")
    p.add_argument("--trace", help="write per-cycle JSON lines (hw decoder only)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("ber", help="Monte-Carlo BER/FER sweep")
    _add_code_args(p)
    _add_decoder_args(p)
    p.add_argument("--ebn0", required=True, help="comma list and/or lo:hi:step ranges, in dB")
    stop = sim.StopRule()
    p.add_argument("--min-frame-errors", type=int, default=stop.min_frame_errors)
    p.add_argument("--max-frames", type=int, default=stop.max_frames)
    p.add_argument("--batch", type=int, default=2048)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers, at most the CPU count (default 1)")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_ber)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
