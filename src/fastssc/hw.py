"""Cycle-level model of the processing-unit tree.

A decoder for length N holds N - 1 processing units (PUs) arranged as a
binary tree of layers: layer s has 2**s units, and a subtree update over
2**(s+1) values runs on layer s.  Layer 0 is the single final unit, a reduced
variant without the min-search flag register (its comparison result is
consumed in the very next cycle, so nothing needs to be held).

Each PU owns the pieces the schedule multiplexes between:

* a min-sum output on a sign-magnitude path (sign XOR plus magnitude compare),
* speculative sum/difference registers so the variable-node update costs no
  extra cycle once the partial sum arrives,
* a compare flag that records which input survived a minimum search,
* a parity-transfer unit (PTU) that routes a parity bit toward the surviving
  input, lane by lane, when a single-parity-check repair needs it.

Constituent codes run on the same units and schedule as regular nodes, so the
model is the pruned decode walk of :mod:`fastssc.fast` in hardware tie mode,
in the tree's saturating fixed point.  Outputs are therefore bit-identical to
``fast_ssc_decode(..., tie_mode="hardware")``; every visited node spends the
cycles of :func:`fastssc.fast.latency_model`, and the per-cycle trace of the
first frame can be exported as JSON lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fast import ScheduleReport, _walk, classified, fold_argmin, latency_model, rep_sum
from .quant import QuantSpec
from .reference import hard_decision, prepare_llr


class PuTree:
    """Processing resource for one code length: layers of PUs plus a tracer."""

    def __init__(self, N, spec=QuantSpec(4, 5, 0)):
        if N < 2 or N & (N - 1):
            raise ValueError(f"N must be a power of 2 >= 2, got {N}")
        self.N = N
        self.n = N.bit_length() - 1
        self.spec = spec
        # Layer s serves the updates of stage-(s+1) subtrees with 2**s units;
        # layer 0 is the single reduced unit.
        self.pu_counts = {s: 1 << s for s in range(self.n)}

    @property
    def total_pus(self):
        return self.N - 1


def _scalarize(arr):
    a = np.asarray(arr)
    return a.reshape(-1)[0].item()


def _tracer(rows, spec):
    """Walk hook that logs the first frame's datapath, one row per cycle."""
    cycle = 0

    def log(stage, unit, op, ins, out):
        rows.append({"cycle": cycle, "stage": stage, "unit": unit, "op": op,
                     "in": ins, "out": out})

    def hook(node, op, inp, out):
        nonlocal cycle
        layer = node.stage - 1
        if op == "f":
            # One cycle computes the min-sum outputs and banks both update
            # candidates, so the post-partial-sum select is free.
            cycle += 1
            log(layer, "pu[*]", "f", None, _scalarize(out))
        elif op == "g":
            log(layer, "pu[*]", "g_select", int(_scalarize(inp)), _scalarize(out))
        elif node.stage == 0:
            pass  # leaf decisions are combinational: zero cycles
        elif op == "rate0":
            cycle += 1
            log(layer, "psg", "rate0", None, 0)
        elif op == "rate1":
            cycle += 1
            log(layer, "pu[*]", "rate1", None, None)
        else:
            # The SPC comparator tree and the REP adder tree halve the lanes
            # once per cycle.  After the round that leaves 2**s lanes, lane 0
            # has combined every (2**s)-th input, in the kernel's own order.
            frame0 = inp[:1]
            for s in range(layer, -1, -1):
                lanes = frame0[:, :: 1 << s]
                cycle += 1
                if op == "rep":
                    log(s, "pu[*]", "rep_accumulate", None, rep_sum(lanes, spec)[0].item())
                else:
                    survivor = lanes[0, fold_argmin(np.abs(lanes[0]))]
                    log(s, "pu[*]", "spc_compare", None, survivor.item())
            if op == "spc":
                # One more cycle walks the parity through the PTU chain; the
                # repair flips a bit exactly when the parity check fails.
                cycle += 1
                parity = int((out[0] != hard_decision(frame0[0])).any())
                log(0, "ptu[*]", "ptu_route", parity, None)

    return hook


@dataclass
class HwDecodeResult:
    """Datapath decode output plus its cycle accounting."""

    u_hat: np.ndarray
    x_hat: np.ndarray
    cycle_trace: ScheduleReport
    trace_rows: list = field(default_factory=list)


def hw_decode_frame(tree, code, llr, trace=False):
    """Run one decode on the PU tree, counting every cycle.

    Parameters
    ----------
    tree : PuTree
    code : PolarCode
        Any code of length <= the tree width (the schedule retargets per code;
        only control signals change).
    llr : array_like
        Channel LLRs; floats are quantized with the tree's spec, integers are
        taken as raw quantized values.
    trace : bool
        Record per-cycle rows (first frame of the batch) for JSONL export.

    Returns
    -------
    HwDecodeResult
        ``u_hat`` is bit-identical to quantized
        ``fast_ssc_decode(..., tie_mode="hardware")``; ``cycle_trace`` is the
        :func:`fastssc.fast.latency_model` schedule of ``code``.
    """
    if code.N > tree.N:
        raise ValueError(f"code length {code.N} exceeds tree width {tree.N}")
    alpha, single = prepare_llr(llr, code.N, tree.spec)
    rows = []
    hook = _tracer(rows, tree.spec) if trace else None
    result = _walk(code, alpha, tree.spec, "hardware", hook)
    u_hat, x_hat = result.u_hat, result.x_hat
    if single:
        u_hat, x_hat = u_hat[0], x_hat[0]
    return HwDecodeResult(u_hat, x_hat, latency_model(classified(code)), rows)


def write_trace_jsonl(path, result):
    """Write per-cycle trace rows as JSON lines."""
    with open(path, "w") as fh:
        for row in result.trace_rows:
            fh.write(json.dumps(row) + "\n")
