"""Workload set-up: from before ``import fastssc`` to a bound decoder.

Set-up covers code construction, writing the frozen-set file where the
workload reads one, tree classification and binding the decoder
(``make_decoder``, or a ``PuTree`` for the datapath model).  No frame is
decoded.  Run as a script, it sets up once in a fresh interpreter and prints
the wall seconds that took, which is how ``setup_s`` is measured:

    python3 perfbench/setup_probe.py '<workload as JSON>' <frozen-file path>
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Bound:
    code: object
    spec: object
    decoder: object
    frozen_path: Path | None


def bind(wl, frozen_path):
    """Set a workload up in this process; ``wl`` is a workload's field dict."""
    from fastssc import core, fast, hw, sim
    from fastssc.quant import QuantSpec

    code = core.construct_code(wl["N"], wl["K"], wl["design_snr_db"])
    if wl["entry"] == "cli":
        core.write_frozen_file(frozen_path, code)
    else:
        frozen_path = None
    fast.classified(code)
    spec = QuantSpec.from_string(wl["quant"]) if wl["quant"] else None
    if wl["entry"] == "hw":
        decoder = hw.PuTree(code.N, spec)
    else:
        decoder = sim.make_decoder(code, wl["decoder"], spec, wl["tie_mode"])
    return Bound(code, spec, decoder, frozen_path)


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    bind(json.loads(sys.argv[1]), Path(sys.argv[2]))
    print(repr(time.perf_counter() - t0))
