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

Everything else stays a ``BRANCH``, split with the min-sum f and g updates.

Decode plan
-----------
Each code's node table and its flat list of ops in decode order are built
once, together, in one descent of the tree (:func:`_tree`): a branch gives an
f update before its left subtree, a g update before its right subtree and a
combine after it, and a leaf gives its shortcut decode.  One loop runs that
list, for both tie modes and for the datapath model, in float and fixed
point.  Each op is a kernel writing with ``out=`` into buffers made per call,
frames along the columns, in the per-stage memory layout of Leroux et al.
(IEEE TSP 2013):

* one LLR buffer per stage, so a node's halves are contiguous row blocks;
* one codeword buffer of 0/-1 masks, where each node owns its positions' rows.

The rows after a stage's buffer belong to the deeper stages, which are dead
while that stage is worked on, so they double as its scratch.  A rate-0
node's estimate is the codeword buffer's initial zeros, so the update that
feeds it is skipped unless a hook watches the walk.

Tie resolution
--------------
The shortcut rules match plain SC decoding whenever a node's LLRs contain no
exact zeros and, for an SPC node whose hard decisions fail the parity check,
the minimum magnitude is unique.  With even parity SC keeps the hard
decisions whatever the repeated magnitudes; with odd parity and a repeated
minimum SC may repair a different copy of it than the comparator fold does
(the proof is on ``_spc_into``).  On such tie events both answers are
equally likely codewords, but they can differ bit-for-bit.  The composite
decoder therefore supports two modes:

* ``tie_mode="exact"`` (default): on its tie-risk frames a rate-1 or SPC
  node is decoded as the branch it is, one f, g and combine around two
  children, each decoded by its own shortcut and tie check, so the split
  recurses only where a child is at risk too (:func:`_repair`).  The output
  always equals :func:`fastssc.reference.sc_decode`.
* ``tie_mode="hardware"``: pure shortcut rules with deterministic tie breaks
  (lowest index wins), matching the cycle-level datapath model bit for bit.

Float Monte-Carlo frames hit tie events with probability zero; quantized
frames hit them routinely, which is why the distinction exists at all.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .core import construct_code
from .reference import decode_result, prepare_llr


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


def _tree(frozen, stage, root=None):
    """The node table and op list of the decode tree over the frozen mask
    ``frozen`` of length ``2**stage``, built in one preorder descent.

    A leaf gives its kind's op.  A branch gives ``"f"``, its left subtree,
    ``"g"``, its right subtree and ``"combine"`` (see :class:`DecodePlan`);
    an update that only feeds a rate-0 child is optional, and a combine with
    a rate-0 right child XORs zeros, so it is left out.  ``root`` overrides
    the root's kind.
    """
    nodes, ops = [], []

    def build(kind, stage, offset):
        size = 1 << stage
        half = size // 2
        node = DecodeNode(len(nodes), kind, stage, offset, node_cycles(kind, stage))
        nodes.append(node)
        if kind is not NodeKind.BRANCH:
            ops.append((kind, node, kind is NodeKind.RATE0, slice(offset, offset + size), None))
            return
        rows = slice(offset, offset + half), slice(offset + half, offset + size)
        left, right = (_classify_mask(frozen[r]) for r in rows)
        ops.append(("f", node, left is NodeKind.RATE0, *rows))
        build(left, stage - 1, offset)
        ops.append(("g", node, right is NodeKind.RATE0, *rows))
        build(right, stage - 1, offset + half)
        if right is not NodeKind.RATE0:
            ops.append(("combine", node, False, *rows))

    build(_classify_mask(frozen) if root is None else root, stage, 0)
    return tuple(nodes), tuple(ops)


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


@functools.cache
def _bit_reversal(size):
    """Indices 0..size-1 with their log2(size) bits reversed (an involution)."""
    idx = np.arange(size)
    rev = np.zeros(size, dtype=np.intp)
    for bit in range(size.bit_length() - 1):
        rev = (rev << 1) | ((idx >> bit) & 1)
    rev.flags.writeable = False
    return rev


def _hard_masks(a, out):
    """Hard decisions of ``a`` as 0/-1 masks into ``out``: -1 where a < 0."""
    np.less(a, 0, out=out)
    np.negative(out, out=out)


def _spc_into(a, out, scratch, tie_check=False):
    """Single-parity-check decode of a (size, batch) block into 0/-1 masks.

    Thresholds, then the parity repair flips the minimum |LLR| that a
    strict-less comparator tree finds.  Each round compares the low half of
    the surviving lanes against the high half, and the challenger wins only
    when strictly smaller.  With a unique minimum this is the plain argmin.
    On repeated minima the survivor depends on fold order: the first round
    splits lanes on the highest index bit and the last on the lowest, each
    keeping the lane with a 0 bit on a tie, so the survivor is the minimum
    with the smallest bit-reversed index.  That is a first-occurrence argmin
    over the rows taken in bit-reversed order into ``scratch``.

    Returns ``(rows, flags)``: the survivor row of each column, and with
    ``tie_check`` the columns plain SC may decode differently (None
    without), from the same magnitudes, minimum and parity: those with a
    zero minimum, or with odd hard-decision parity and a repeated minimum.
    Every other column decodes under plain SC exactly as here.

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
    _hard_masks(a, out)
    parity = np.bitwise_xor.reduce(out, axis=0)
    order = _bit_reversal(len(a))
    mags = a.take(order, axis=0, out=scratch, mode="wrap")
    np.abs(mags, out=mags)
    lane = mags.argmin(axis=0)
    rows, cols = order[lane], np.arange(a.shape[1])
    out[rows, cols] ^= parity
    if not tie_check:
        return rows, None
    low = mags[lane, cols]
    return rows, (low == 0) | ((parity != 0) & (np.count_nonzero(mags == low, axis=0) > 1))


def _rep_into(a, out, scratch, spec=None):
    """Repetition decode of a (size, batch) block into 0/-1 masks: the sign
    of each column's sum, replicated.  Returns the (1, batch) sums.

    The sum is accumulated in ``scratch`` pairwise over strides of half the
    node length, saturating at each level when a quantization spec is given.
    That is the exact order the plain SC recursion (and the adder tree in the
    datapath model) accumulates it in, which keeps all three bit-identical.
    """
    lim = None if spec is None else a.dtype.type(spec.internal_limit)
    while len(a) > 1:
        half = len(a) // 2
        a = np.add(a[:half], a[half:], out=scratch[:half])
        if lim is not None:
            a.clip(-lim, lim, out=a)
    _hard_masks(a, out[:1])
    out[1:] = out[0]
    return a


def _plan(code):
    """The code's :class:`DecodePlan`, built once and cached on the code."""
    plan = getattr(code, "_decode_plan", None)
    if plan is None:
        plan = DecodePlan(*_tree(code.frozen, code.n))
        object.__setattr__(code, "_decode_plan", plan)  # the code is frozen
    return plan


def classified(code):
    """Classify the decode tree of a code; cached on the code object.

    Returns its nodes as a tuple in preorder, the order decoding visits them,
    so ``nodes[i].node == i``.  A branch's left child follows it directly and
    its right child follows the left child's subtree.  Each node carries its
    :func:`node_cycles` cost in the precomputed schedule.
    """
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
    _check_tie_mode(tie_mode)
    return _walk(code, llr, spec, tie_mode)


def _check_tie_mode(tie_mode):
    if tie_mode not in ("exact", "hardware"):
        raise ValueError(f"unknown tie_mode {tie_mode!r}")


def _walk(code, llr, spec, tie_mode, hook=None):
    """Decode one frame or a (batch, N) block by running the code's plan.

    :func:`~fastssc.reference.prepare_llr` gives :func:`_run` its root, and
    :func:`~fastssc.reference.decode_result` returns its estimate, negated to
    0/1, in the input's shape: one frame in, one frame out.
    """
    root, single = prepare_llr(llr, code.N, spec)
    masks = _run(_plan(code).ops, root, spec, tie_mode == "exact", hook)
    return decode_result(np.negative(masks, out=masks), single)


def _run(ops, root, spec, exact, hook=None):
    """Run a plan's ops over the (size, batch) LLRs ``root``, frames along
    the columns; returns the codeword estimate as (size, batch) 0/-1 masks.

    In exact mode, the columns a rate-1 or SPC node's tie check flags are
    repaired by :func:`_repair`.  ``root`` is only read.

    ``hook(node, op, inp, out)``, when given, sees every update in decode
    order.  Its arguments are (size, batch) views of the plan's buffers, or
    for estimates 0/1 copies of its masks, valid only during the call.  A
    branch reports ``op="f"`` with its LLRs in and the left child's LLRs out,
    then ``op="g"`` with the left child's estimate in and the right child's
    LLRs out.  A leaf reports its kind's value with its LLRs in and its
    codeword estimate out, after any repair.

    f is ``max(min(a, b), -max(a, b))``, which equals min-sum exactly on
    integers; on floats it can differ only in the sign of a zero, which no
    decision reads.  g negates the far operand exactly: by the mask trick
    ``(far ^ m) - m`` on integers, by a multiply by +-1 on floats.  Float
    LLRs are bounded by float64 max / N, so no sum overflows.
    """
    N, batch = root.shape
    # Stage s's LLRs are rows [N - 2**(s+1), N - 2**s) of scratch, and the
    # rows after them, the deeper stages', are its free rows.  The root
    # stage's LLRs are the root.
    scratch = np.empty((N, batch), dtype=root.dtype)
    n = N.bit_length() - 1
    alpha = [scratch[N - (2 << s) : N - (1 << s)] for s in range(n)] + [root]
    free = [scratch[N - (1 << s) :] for s in range(n + 1)]
    masks = np.zeros((N, batch), dtype=np.int8 if spec is None else spec.word_dtype)
    if spec is None:
        signs = np.empty((N // 2, batch), dtype=np.int8)
    else:
        lim = root.dtype.type(spec.internal_limit)

    for op, node, optional, left, right in ops:
        if optional and hook is None:
            continue
        s = node.stage
        a = alpha[s]
        if op == "f":
            out, tmp, half = alpha[s - 1], free[s - 1], len(a) // 2
            np.minimum(a[:half], a[half:], out=out)
            np.maximum(a[:half], a[half:], out=tmp)
            np.negative(tmp, out=tmp)
            np.maximum(out, tmp, out=out)
            if hook:
                hook(node, "f", a, out)
        elif op == "g":
            out, m, half = alpha[s - 1], masks[left], len(a) // 2
            if spec is None:
                np.bitwise_or(m, 1, out=signs[:half])
                np.multiply(a[:half], signs[:half], out=out)
            else:
                np.bitwise_xor(a[:half], m, out=out)
                np.subtract(out, m, out=out)
            np.add(out, a[half:], out=out)
            if spec is not None:
                out.clip(-lim, lim, out=out)
            if hook:
                hook(node, "g", np.negative(m), out)
        elif op == "combine":
            np.bitwise_xor(masks[left], masks[right], out=masks[left])
        else:
            beta, risk = masks[left], None
            if op is NodeKind.RATE1:
                _hard_masks(a, beta)
                # SC resolves a zero LLR from its neighbours, a threshold
                # locally; a single bit's threshold is SC's leaf decision
                if exact and s:
                    risk = (a == 0).any(axis=0)
            elif op is NodeKind.SPC:
                risk = _spc_into(a, beta, free[s], exact)[1]
            elif op is NodeKind.REP:
                _rep_into(a, beta, free[s], spec)
            if risk is not None and risk.any():
                beta[:, risk] = _repair(op, s, a[:, risk], spec)
            if hook:
                hook(node, op.value, a, np.negative(beta))
    return masks


def _repair(kind, stage, a, spec):
    """Plain SC's estimate of a rate-1 or SPC node on the (size, batch) LLRs
    ``a``, as 0/-1 masks.

    The node is decoded as the branch it is: one f, g and combine around two
    children, each decoded by its own shortcut and tie check (the plan of
    :func:`_split_ops`), so a child repairs only the columns it flags.  By
    the proof on :func:`_spc_into`, each shortcut that its check passes
    decides as plain SC, and a size-1 leaf, REP and rate-0 always do, so the
    recursion reproduces plain SC bit for bit.
    """
    return _run(_split_ops(kind, stage), a, spec, True)


@functools.cache
def _split_ops(kind, stage):
    """The op list of a rate-1 or SPC node of ``stage`` split once: a rate-1
    node into two rate-1 children, an SPC node into an SPC child (REP at
    size 2) and a rate-1 child.  It does not depend on the code, so it is
    built on the first repair that needs it and cached."""
    return _tree(np.arange(1 << stage) < (kind is NodeKind.SPC), stage, NodeKind.BRANCH)[1]


@dataclass(frozen=True)
class ScheduleReport:
    """Cycle accounting for one decode of one code, nodes in visit order."""

    entries: tuple = ()

    @property
    def total_cycles(self):
        return sum(e.cycles for e in self.entries)

    def to_json(self):
        return json.dumps([{**e.__dict__, "kind": e.kind.value} for e in self.entries], indent=2)


@dataclass(frozen=True)
class DecodePlan(ScheduleReport):
    """A code's node table plus the flat op list the decode loop runs.

    Each op is ``(op, node, optional, left, right)`` in decode order.  A
    branch gives ``"f"``, ``"g"`` and ``"combine"`` with the codeword rows of
    its two halves as ``left`` and ``right``; a leaf gives its kind with its
    own rows as ``left``.  An optional op only feeds or fills a rate-0 node,
    so it runs only under a hook.
    """

    ops: tuple = field(default=(), repr=False, compare=False)


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

    ``nodes`` is a node table from :func:`classified`, whose cycle column
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
        total = latency_model(classified(construct_code(N, K, design_snr_db))).total_cycles
        rows.append({
            "rate": rate,
            "K": K,
            "cycles": total,
            "reduction": 1.0 - total / baseline,
        })
    return rows
