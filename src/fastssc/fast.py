"""Pruned-tree SC decoding over constituent-code shortcuts.

The decode tree is classified once per code.  Subtrees whose frozen pattern
matches a known constituent code are decoded in one shot instead of being
traversed:

* ``RATE0``: all positions frozen; the codeword estimate is all zeros.
* ``RATE1``: no position frozen; elementwise threshold detection.
* ``REP``: only the last position unfrozen; the sign of the LLR sum,
  replicated.
* ``SPC``: only the first position frozen; threshold detection, then flip the
  least reliable bit if the parity check fails.

Everything else stays a ``BRANCH`` and recurses with the min-sum updates from
:mod:`fastssc.reference`.

Tie resolution
--------------
The shortcut rules match plain SC decoding whenever a node's LLRs contain no
exact zeros and, for an SPC node whose hard decisions fail the parity check,
the minimum magnitude is unique.  With even parity SC keeps the hard
decisions whatever the repeated magnitudes; with odd parity and a repeated
minimum SC may repair a different copy of it than the comparator fold does
(the proof is on ``_spc_tie_risk``).  On such tie events both answers are
equally likely codewords, but they can differ bit-for-bit.  The composite
decoder therefore supports two modes:

* ``tie_mode="exact"`` (default): tie-risk frames are re-decoded node-locally
  with plain SC, so the output always equals :func:`fastssc.reference.sc_decode`.
* ``tie_mode="hardware"``: pure shortcut rules with deterministic tie breaks
  (lowest index wins), matching the cycle-level datapath model bit for bit.

Float Monte-Carlo frames hit tie events with probability zero; quantized
frames hit them routinely, which is why the distinction exists at all.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, replace

import numpy as np

from .core import PolarCode, construct_code, polar_transform
from .quant import sat_add
from .reference import (
    DecodeResult,
    combine_beta,
    f_min_sum,
    g_function,
    hard_decision,
    prepare_llr,
    sc_decode,
)


class NodeKind(enum.Enum):
    RATE0 = "rate0"
    RATE1 = "rate1"
    REP = "rep"
    SPC = "spc"
    BRANCH = "branch"


@dataclass(frozen=True)
class DecodeNode:
    """One node of the classified decode tree and its cycle cost.

    ``node`` is the node's preorder index, which is also its decode order.
    """

    node: int
    kind: NodeKind
    stage: int
    offset: int
    cycles: int

    @property
    def size(self):
        return 1 << self.stage


def classify_tree(code):
    """Classify the decode tree of a code.

    Returns its nodes as a tuple in preorder, the order decoding visits them,
    so ``nodes[i].node == i``.  A branch's left child follows it directly and
    its right child follows the left child's subtree.  Each node carries its
    :func:`node_cycles` cost in the precomputed schedule.
    """
    frozen = code.frozen
    nodes = []

    def build(stage, offset):
        size = 1 << stage
        kind = _classify_mask(frozen[offset : offset + size])
        nodes.append(DecodeNode(len(nodes), kind, stage, offset, node_cycles(kind, stage)))
        if kind is NodeKind.BRANCH:
            build(stage - 1, offset)
            build(stage - 1, offset + size // 2)

    build(code.n, 0)
    return tuple(nodes)


def _classify_mask(mask):
    if mask.all():
        return NodeKind.RATE0
    if not mask.any():
        return NodeKind.RATE1
    # Reached only for size >= 2 with a mixed pattern.  REP is checked before
    # SPC so the size-2 pattern [frozen, info] decodes as a repetition node,
    # which is what plain SC computes for it.
    if mask[:-1].all() and not mask[-1]:
        return NodeKind.REP
    if mask[0] and not mask[1:].any():
        return NodeKind.SPC
    return NodeKind.BRANCH


def decode_rate1(alpha):
    """Codeword estimate of an all-information node: elementwise thresholds."""
    return hard_decision(alpha)


def fold_argmin(mags):
    """Per row of a (batch, size) block, size a power of two, the index of
    the minimum as a strict-less comparator tree finds it.

    Each round compares the low half of the surviving lanes against the high
    half; the challenger wins only when strictly smaller.  With a unique
    minimum this is the plain argmin.  On repeated minima the survivor
    depends on fold order, matching the comparator tree in the datapath
    model rather than a lowest-index scan: the first round splits lanes on
    the highest index bit and the last on the lowest, each keeping the lane
    with a 0 bit on a tie, so the survivor is the minimum with the smallest
    bit-reversed index.  That is a first-occurrence argmin over the lanes in
    bit-reversed order.
    """
    order = _bit_reversal(mags.shape[1])
    return order[np.argmin(mags[:, order], axis=1)]


@functools.cache
def _bit_reversal(size):
    """Indices 0..size-1 with their log2(size) bits reversed (an involution)."""
    idx = np.arange(size)
    rev = np.zeros(size, dtype=np.intp)
    for bit in range(size.bit_length() - 1):
        rev = (rev << 1) | ((idx >> bit) & 1)
    rev.flags.writeable = False
    return rev


def decode_spc(alpha):
    """Single-parity-check decode of a (batch, size) block: thresholds plus a
    parity-repair flip.

    The flipped position is the minimum |LLR|, found by fold_argmin so ties
    land where the comparator tree lands them.
    """
    beta = hard_decision(alpha)
    parity = np.bitwise_xor.reduce(beta, axis=1)
    beta[np.arange(len(beta)), fold_argmin(np.abs(alpha))] ^= parity
    return beta


def decode_rep(alpha, spec=None):
    """Repetition decode of a (batch, size) block: the sign of each row's LLR
    sum, replicated.

    The sum comes from :func:`rep_sum`, in the order plain SC accumulates it.
    """
    bit = hard_decision(rep_sum(alpha, spec))
    return np.repeat(bit[:, None], alpha.shape[1], axis=1)


def rep_sum(alpha, spec=None):
    """Row sums of a (batch, size) block on the repetition adder tree.

    The sum is accumulated pairwise over strides of half the node length,
    saturating at each level when a quantization spec is given.  That is the
    exact order the plain SC recursion (and the adder tree in the datapath
    model) accumulates it in, which keeps all three bit-identical.
    """
    total = alpha
    while total.shape[1] > 1:
        half = total.shape[1] // 2
        if spec is None:
            total = total[:, :half] + total[:, half:]
        else:
            total = sat_add(total[:, :half], total[:, half:], spec)
    return total[:, 0]


def _rate1_tie_risk(alpha):
    # Plain SC resolves a zero LLR using neighbouring positions; elementwise
    # thresholds resolve it locally.  Nonzero inputs provably agree.
    return (alpha == 0).any(axis=-1)


def _spc_tie_risk(alpha):
    """Rows of a (batch, size) SPC block that plain SC may decode differently.

    A row is flagged when min|alpha| == 0, or when its hard-decision parity
    is odd and the minimum magnitude occurs at least twice.  Every other row
    decodes under plain SC exactly as :func:`decode_spc` decodes it.

    Proof, by induction on the size.  Plain SC splits SPC(n) into SPC(n/2) on
    the f outputs and rate-1(n/2) on the g outputs; SPC(1) is a frozen bit,
    which decides 0, the parity-repaired hard decision of a nonzero LLR.

    * With no zero, f(far, near) carries the XOR of its pair's signs and
      min(|far|, |near|) > 0, so the f outputs have no zero and the same
      parity as alpha.  Rate-1 on nonzero LLRs returns the hard decisions
      (the same split with g = sign(near)(|near| + |far|) shows it).
    * Even parity: the left SPC returns its hard decisions, so every g is
      sign(near)(|near| + |far|) and the right child returns hard(near).  The
      combined word is the hard decisions of alpha, whatever the ties.
    * Odd parity, unique minimum: the pair holding the minimum has the
      unique minimum of the f outputs, so the left SPC flips that pair's bit.
      That pair's g is then +-||near| - |far|| > 0, signed by the larger
      magnitude, so the right child flips exactly the minimum's lane, and
      every other pair keeps its hard decisions.
    * Saturation clips to +-internal_limit >= 1: it never zeroes a value and
      never flips a sign.
    """
    mags = np.abs(alpha)
    low = mags.min(axis=1, keepdims=True)
    odd = np.count_nonzero(alpha < 0, axis=1) % 2 == 1
    repeated = np.count_nonzero(mags == low, axis=1) > 1
    return (low[:, 0] == 0) | (odd & repeated)


def _plan(code):
    """The code's node table as an immutable schedule report, cached on the code."""
    plan = getattr(code, "_decode_plan", None)
    if plan is None:
        plan = code._decode_plan = ScheduleReport(classify_tree(code))
    return plan


def classified(code):
    """Classified nodes of a code in preorder, cached on the code object."""
    return _plan(code).entries


def fast_ssc_decode(code, llr, spec=None, tie_mode="exact"):
    """Decode with the pruned tree.

    Parameters
    ----------
    code : PolarCode
    llr : array_like
        One frame or a (batch, N) block; floats, or raw integers when a
        quantization spec is given.
    spec : QuantSpec, optional
        Saturating fixed-point arithmetic throughout.
    tie_mode : str
        ``"exact"`` reproduces plain SC bit-for-bit on every input;
        ``"hardware"`` applies the pure shortcut rules (see module docstring).

    Returns
    -------
    DecodeResult
    """
    if tie_mode not in ("exact", "hardware"):
        raise ValueError(f"unknown tie_mode {tie_mode!r}")
    return _walk(code, llr, spec, tie_mode)


def _walk(code, llr, spec, tie_mode, hook=None):
    """Decode one frame or a (batch, N) block depth-first over the classified tree.

    The LLRs go through :func:`~fastssc.reference.prepare_llr` with ``spec``,
    and the result has the input's shape: one frame in, one frame out.

    ``hook(node, op, inp, out)``, when given, sees every (batch, size) update
    in decode order.  A branch reports ``op="f"`` with its LLRs in and the left
    child's LLRs out, then ``op="g"`` with the left child's estimate in and
    the right child's LLRs out.  A leaf reports its kind's value with its
    LLRs in and its codeword estimate out.

    Each visit takes the next node of the preorder table, so a branch's
    children are the nodes its two recursive visits take.

    The transform is its own inverse, so one transform of the root estimate
    gives ``u_hat``.
    """
    alpha, single = prepare_llr(llr, code.N, spec)
    batch = alpha.shape[0]
    nodes = iter(classified(code))

    def visit(a):
        node = next(nodes)
        if node.kind is NodeKind.BRANCH:
            half = node.size // 2
            near, far = a[:, half:], a[:, :half]
            a_left = f_min_sum(far, near)
            if hook:
                hook(node, "f", a, a_left)
            beta_l = visit(a_left)
            a_right = g_function(beta_l, near, far, spec)
            if hook:
                hook(node, "g", beta_l, a_right)
            return combine_beta(beta_l, visit(a_right))
        if node.kind is NodeKind.RATE0:
            beta = np.zeros((batch, node.size), dtype=np.uint8)
        elif node.kind is NodeKind.RATE1:
            beta = decode_rate1(a)
        elif node.kind is NodeKind.REP:
            beta = decode_rep(a, spec)
        else:
            beta = decode_spc(a)
        if tie_mode == "exact" and node.kind in (NodeKind.RATE1, NodeKind.SPC):
            risk = _rate1_tie_risk(a) if node.kind is NodeKind.RATE1 else _spc_tie_risk(a)
            if risk.any():
                mask = code.frozen[node.offset : node.offset + node.size]
                beta[risk] = sc_decode(PolarCode.from_frozen_mask(mask), a[risk], spec).x_hat
        if hook:
            hook(node, node.kind.value, a, beta)
        return beta

    x_hat = visit(alpha)
    u_hat = polar_transform(x_hat)
    return DecodeResult(u_hat[0], x_hat[0]) if single else DecodeResult(u_hat, x_hat)


@dataclass(frozen=True)
class ScheduleReport:
    """Cycle accounting for one decode of one code, nodes in visit order."""

    entries: tuple = ()

    @property
    def total_cycles(self):
        return sum(e.cycles for e in self.entries)

    def to_json(self):
        return json.dumps([{**e.__dict__, "kind": e.kind.value} for e in self.entries], indent=2)


@functools.cache
def _node_steps(kind, stage):
    """The scheduling plan: one ``(layer, unit, op)`` per cycle of one visit.

    Single-bit leaves resolve inside the parent's update, which keeps an
    unprunable tree at the N - 1 cycles of the precomputed schedule.
    """
    if stage == 0:
        return ()
    rounds = range(stage - 1, -1, -1)
    if kind is NodeKind.REP:
        return tuple((s, "pu[*]", "rep_accumulate") for s in rounds)
    if kind is NodeKind.SPC:
        return tuple((s, "pu[*]", "spc_compare") for s in rounds) + ((0, "ptu[*]", "ptu_route"),)
    if kind is NodeKind.BRANCH:
        return ((stage - 1, "pu[*]", "f"),)
    return ((stage - 1, "psg" if kind is NodeKind.RATE0 else "pu[*]", kind.value),)


def node_cycles(kind, stage, precompute=True):
    """Cycle cost of one visit: its steps in the plan, plus one per branch without precompute."""
    return len(_node_steps(kind, stage)) + (kind is NodeKind.BRANCH and not precompute)


def sc_latency_cycles(code, variant="conventional"):
    """Cycle count of sequential SC schedules.

    ``"conventional"`` charges separate check and variable updates (2N - 2);
    ``"precomputed"`` computes both speculatively in one pass (N - 1).
    """
    if variant == "conventional":
        return 2 * code.N - 2
    if variant == "precomputed":
        return code.N - 1
    raise ValueError(f"unknown latency variant {variant!r}")


def two_bit_precomputed_cycles(N):
    """Latency of the stage-merged two-bit lookahead schedule: 0.75 N - 1.

    This is the baseline that pruned-tree latency reductions are quoted
    against.
    """
    return 0.75 * N - 1


def latency_model(nodes, precompute=True):
    """Static cycle count of the pruned schedule.

    ``nodes`` is a node table from :func:`classify_tree`, whose cycle column
    already holds the precomputed schedule; without precompute each branch
    is re-costed.  The cycle-level datapath model's trace logs one row per
    step of the same plan, so its cycles add up to the same total.
    """
    nodes = tuple(nodes)
    if not precompute:
        nodes = tuple(replace(n, cycles=node_cycles(n.kind, n.stage, False)) for n in nodes)
    return ScheduleReport(nodes)


def latency_reduction_sweep(N, rates, design_snr_db):
    """Pruned-schedule latency across code rates.

    For each rate, constructs an (N, round(rate * N)) code and reports the
    schedule total plus its reduction relative to the 0.75 N - 1 baseline.

    Returns a list of dicts with keys rate, K, cycles, reduction.
    """
    baseline = two_bit_precomputed_cycles(N)
    rows = []
    for rate in rates:
        K = int(np.floor(rate * N + 0.5))
        total = latency_model(classify_tree(construct_code(N, K, design_snr_db))).total_cycles
        rows.append({
            "rate": rate,
            "K": K,
            "cycles": total,
            "reduction": 1.0 - total / baseline,
        })
    return rows
