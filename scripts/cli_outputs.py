#!/usr/bin/env python3
"""Write the outputs of a fixed list of ``fastssc`` CLI calls under OUTDIR.

Each call runs in-process with OUTDIR as the working directory.  Its stdout
goes to ``NAME.txt``, and each file it writes (``--out``, ``--json``,
``--trace``) keeps its relative name, so the outputs of two versions of the
library compare with one ``diff -r``:

    PYTHONPATH=src python3 scripts/cli_outputs.py OUTDIR

``OUTDIR/SHA256SUMS`` then lists every other file's digest in ``sha256sum``
format, so ``sha256sum -c SHA256SUMS`` in OUTDIR checks a run against it.
``tests/data/cli_outputs.sha256`` is that file for the current outputs.

The list covers ``construct``, ``schedule`` with and without precompute,
``decode`` with each decoder (the datapath model with its cycle trace) on
random frames and on ``FRAMES_FILE``, and ``ber`` CSVs and stdout with each
decoder setting at one and two workers, with a partial last chunk, and with
float ``fast-ssc`` at one and two workers stopped by frame errors after
several rounds, and with float and ``4,5,0`` ``fast-ssc`` at one and two
workers and ``hw`` (no ``--quant``) at one worker in chunks of 100 frames,
which start inside 64-frame draw blocks.  The (64,32)
random-frame ``decode`` outputs are the goldens ``tests/data/decode_ga64_32_*``.
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

from fastssc.cli import main as fastssc

CODES = {
    "ga64_32": ("--n", "64", "--k", "32"),
    "ga1024_512": ("--n", "1024", "--k", "512"),
    "ga1024_870": ("--n", "1024", "--k", "870"),
}
DECODE = {
    "sc": ("--decoder", "sc"),
    "fast_ssc_q450_hardware": ("--decoder", "fast-ssc", "--quant", "4,5,0",
                               "--tie-mode", "hardware"),
    "hw_trace": ("--decoder", "hw", "--trace", "{name}.jsonl"),
}
# (64,32) LLR frames for --frame-file: whitespace-separated, blank, comma-separated
FRAMES_FILE = "frames_ga64_32.txt"
FRAMES_TEXT = "".join((
    " ".join(f"{(7 * i) % 17 - 8:g}" for i in range(64)) + "\n",
    "\n",
    ",".join(f"{((5 * i + 3) % 13 - 6) / 2:g}" for i in range(64)) + "\n",
))
BER = {
    "sc": ("--decoder", "sc"),
    "fast_ssc_float": ("--decoder", "fast-ssc"),
    "fast_ssc_q450_exact": ("--decoder", "fast-ssc", "--quant", "4,5,0"),
    "fast_ssc_q450_hardware": ("--decoder", "fast-ssc", "--quant", "4,5,0",
                               "--tie-mode", "hardware"),
    "hw": ("--decoder", "hw"),
}
# 600 frames in chunks of 256: two full chunks and a partial one of 88
BER_POINT = ("--ebn0", "2,2.5", "--min-frame-errors", "1000000", "--max-frames", "600",
             "--batch", "256")
# stops on 40 frame errors after 2 to 15 chunks of 256, well inside the frame budget
BER_ERROR_STOP = ("--ebn0", "2,2.5", "--min-frame-errors", "40", "--max-frames", "100000",
                  "--batch", "256")
# 600 frames in chunks of 100: every chunk but the first starts inside a draw block
BER_MID_BLOCK = ("--ebn0", "2,2.5", "--min-frame-errors", "1000000", "--max-frames", "600",
                 "--batch", "100")

MANIFEST = "SHA256SUMS"


def calls():
    """Every call as (name, argv), in run order."""
    for tag in ("ga1024_512", "ga1024_870"):
        code = CODES[tag]
        yield f"construct_{tag}", ("construct", *code)
        yield f"schedule_{tag}", ("schedule", *code, "--json", f"schedule_{tag}.json")
        yield f"schedule_{tag}_no_precompute", ("schedule", *code, "--no-precompute")
    for tag, code in CODES.items():
        for label, flags in DECODE.items():
            name = f"decode_{tag}_{label}"
            yield name, ("decode", *code, "--ebn0", "2", "--frames", "3",
                         *(f.format(name=name) for f in flags))
    for label, flags in DECODE.items():
        name = f"decode_ga64_32_frame_file_{label}"
        yield name, ("decode", *CODES["ga64_32"], "--frame-file", FRAMES_FILE,
                     *(f.format(name=name) for f in flags))
    for label, flags in BER.items():
        for workers in ("1", "2"):
            name = f"ber_ga1024_512_{label}_w{workers}"
            yield name, ("ber", *CODES["ga1024_512"], *flags, *BER_POINT,
                         "--workers", workers, "--out", f"{name}.csv")
    for workers in ("1", "2"):
        name = f"ber_ga1024_512_fast_ssc_float_error_stop_w{workers}"
        yield name, ("ber", *CODES["ga1024_512"], *BER["fast_ssc_float"], *BER_ERROR_STOP,
                     "--workers", workers, "--out", f"{name}.csv")
    for label, workers in (("fast_ssc_q450_exact", "1"), ("fast_ssc_q450_exact", "2"),
                           ("fast_ssc_float", "1"), ("fast_ssc_float", "2"), ("hw", "1")):
        name = f"ber_ga1024_512_{label}_mid_block_w{workers}"
        yield name, ("ber", *CODES["ga1024_512"], *BER[label], *BER_MID_BLOCK,
                     "--workers", workers, "--out", f"{name}.csv")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    with contextlib.chdir(args.outdir):
        Path(FRAMES_FILE).write_text(FRAMES_TEXT)
        for n, (name, call) in enumerate(calls(), 1):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = fastssc(list(call))
            if rc != 0 or err.getvalue():
                print(f"fastssc {' '.join(call)} exited {rc}: {err.getvalue()}", file=sys.stderr)
                return 1
            Path(f"{name}.txt").write_text(out.getvalue())
        files = sorted(p for p in Path().iterdir() if p.is_file() and p.name != MANIFEST)
        Path(MANIFEST).write_text("".join(
            f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in files))
    print(f"ran {n} calls; their outputs are in {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
