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
cycles it carries in the code's classified node table, and those cycles also
clock the first frame's per-cycle trace (exportable as JSON lines).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fast import ScheduleReport, _plan, _walk, fold_argmin, rep_sum
from .quant import QuantSpec
from .reference import hard_decision, prepare_llr


class PuTree:
    """Processing resource for one code length: layers of PUs plus a tracer."""

    def __init__(self, N, spec=QuantSpec(4, 5, 0)):
        if N < 2 or N & (N - 1):
            raise ValueError(f"N must be a power of 2 >= 2, got {N}")
        self.N = N
        self.spec = spec


def _tracer(rows, spec):
    """Walk hook that logs the first frame's datapath, clocked by the nodes.

    Each visited node's rows fill the cycles that node carries.
    """
    cycle = 0

    def log(at, stage, unit, op, ins, out):
        rows.append({"cycle": at, "stage": stage, "unit": unit, "op": op,
                     "in": ins, "out": out})

    def hook(node, op, inp, out):
        nonlocal cycle
        layer = node.stage - 1
        if op == "g":
            # Both update candidates were banked in the f cycle, so the
            # select lands in the left child's last cycle.
            log(cycle, layer, "pu[*]", "g_select", inp[0, 0].item(), out[0, 0].item())
            return
        if node.stage == 0:
            steps = []  # single-bit decisions fall out of the parent's update
        elif op == "f":
            steps = [(layer, "pu[*]", "f", None, out[0, 0].item())]
        elif op == "rate0":
            steps = [(layer, "psg", "rate0", None, 0)]
        elif op == "rate1":
            steps = [(layer, "pu[*]", "rate1", None, None)]
        else:
            # The SPC comparator tree and the REP adder tree halve the lanes
            # once per round.  After the round that leaves 2**s lanes, lane 0
            # has combined every (2**s)-th input, in the kernel's own order.
            frame0 = inp[:1]
            steps = []
            for s in range(layer, -1, -1):
                lanes = frame0[:, :: 1 << s]
                if op == "rep":
                    steps.append((s, "pu[*]", "rep_accumulate", None, rep_sum(lanes, spec)[0].item()))
                else:
                    survivor = lanes[0, fold_argmin(np.abs(lanes))[0]]
                    steps.append((s, "pu[*]", "spc_compare", None, survivor.item()))
            if op == "spc":
                # The parity then walks the PTU chain; the repair flips a bit
                # exactly when the parity check fails.
                parity = int((out[0] != hard_decision(frame0[0])).any())
                steps.append((0, "ptu[*]", "ptu_route", parity, None))
        clock = range(cycle + 1, cycle + node.cycles + 1)
        for c, step in zip(clock, steps, strict=True):
            log(c, *step)
        cycle += node.cycles

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
        code's cached node table, the same report on every call.
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
    return HwDecodeResult(u_hat, x_hat, _plan(code), rows)


def write_trace_jsonl(path, result):
    """Write per-cycle trace rows as JSON lines."""
    with open(path, "w") as fh:
        for row in result.trace_rows:
            fh.write(json.dumps(row) + "\n")
