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
``fast_ssc_decode(..., tie_mode="hardware")``; the first frame's per-cycle
trace (JSON lines) logs each step of the plan that counts each node's cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import _check_size
from .fast import ScheduleReport, _node_steps, _plan, _rep_into, _spc_into, _walk
from .quant import QuantSpec
from .reference import DecodeResult


class PuTree:
    """The PU tree's width ``N`` and its datapath's fixed-point format
    ``spec``, ``4,5,0`` when None.
    """

    def __init__(self, N, spec=None):
        _check_size(N, 1)
        self.N = N
        self.spec = QuantSpec(4, 5, 0) if spec is None else spec


def _tracer(rows, spec):
    """Walk hook that logs the first frame's datapath: a row for each step of
    each visited node's plan, and a g select row for each branch."""
    cycle = 0

    def log(at, stage, unit, op, ins, out):
        rows.append({"cycle": at, "stage": stage, "unit": unit, "op": op,
                     "in": ins, "out": out})

    def hook(node, op, inp, out):
        nonlocal cycle
        if not inp.shape[1]:  # an empty batch has no first frame
            return
        if op == "g":
            # Both update candidates were banked in the f cycle, so the
            # select lands in the left child's last cycle.
            log(cycle, node.stage - 1, "pu[*]", "g_select", inp[0, 0].item(), out[0, 0].item())
            return
        for layer, unit, step in _node_steps(node.kind, node.stage):
            cycle += 1
            log(cycle, layer, unit, step, *_step_values(step, layer, inp[:, :1], out[:, :1], spec))

    return hook


def _step_values(op, layer, inp, out, spec):
    """The ``(in, out)`` a plan step logs for a node's (size, 1) frame."""
    if op in ("f", "rate0"):
        return None, out[0, 0].item()
    if op == "rate1":
        return None, None
    if op == "ptu_route":
        # the repair flips a bit exactly when the parity check fails
        return int((out != (inp < 0)).any()), None
    # After the comparator or adder round that leaves 2**layer lanes, lane 0
    # has combined every (2**layer)-th input, in the kernel's own order.
    lanes = inp[:: 1 << layer]
    bufs = np.empty_like(lanes), np.empty_like(lanes)
    if op == "rep_accumulate":
        return None, _rep_into(lanes, *bufs, spec.word_bounds).item()
    return None, lanes[_spc_into(lanes, *bufs, np.arange(1))[0][0], 0].item()


@dataclass
class HwDecodeResult(DecodeResult):
    """Datapath decode output plus its cycle accounting."""

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
    rows = []
    hook = _tracer(rows, tree.spec) if trace else None
    result = _walk(code, llr, tree.spec, "hardware", hook)
    return HwDecodeResult(result.u_hat, result.x_hat, _plan(code), rows)


def write_trace_jsonl(path, result):
    """Write per-cycle trace rows as JSON lines."""
    with open(path, "w") as fh:
        for row in result.trace_rows:
            fh.write(json.dumps(row) + "\n")
