"""Independent reference implementations used only by tests.

Everything here is written against the definitions, not against the library:
dense generator-matrix encoding, the Bhattacharyya construction one position
at a time, a scalar list-based SC decoder, a scalar model of the pruned
datapath with its cycle count, the shortcut tie-risk rule, and brute-force
maximum-likelihood decisions for the short constituent codes.  Slow on
purpose; clarity over speed.
"""

import math

import numpy as np

F_KERNEL = np.array([[1, 0], [1, 1]], dtype=np.uint8)


def generator_matrix(N):
    """Kronecker power of the 2x2 kernel."""
    G = np.array([[1]], dtype=np.uint8)
    while G.shape[0] < N:
        G = np.kron(F_KERNEL, G)
    return G


def dense_transform(bits):
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    G = generator_matrix(bits.shape[1])
    return (bits.astype(np.int64) @ G.astype(np.int64)) % 2


def bhattacharyya_frozen(N, K, design_snr_db):
    """Frozen mask of the Bhattacharyya construction of an (N, K) code.

    Position i starts from z = exp(-(K / N) Eb/N0) and takes one step per bit
    of i, most significant first: a 0 bit gives the worse channel 2z - z^2,
    a 1 bit the better one z^2.  The N - K largest z are frozen, ties going
    to the lower index.
    """
    z0 = math.exp(-(K / N) * 10.0 ** (design_snr_db / 10.0))
    n = N.bit_length() - 1
    zs = []
    for i in range(N):
        z = z0
        for shift in range(n - 1, -1, -1):
            z = z * z if (i >> shift) & 1 else 2.0 * z - z * z
        zs.append(z)
    frozen = np.zeros(N, dtype=bool)
    frozen[sorted(range(N), key=lambda i: (-zs[i], i))[: N - K]] = True
    return frozen


def _f_scalar(a, b):
    sa = -1.0 if a < 0 else 1.0
    sb = -1.0 if b < 0 else 1.0
    return sa * sb * min(abs(a), abs(b))


def scalar_sc_decode(frozen, alpha, internal_limit=None):
    """Plain-Python SC decode of one frame.

    Returns (u, x) as lists.  When internal_limit is given the g outputs
    saturate to [-limit, limit], mirroring fixed-point internals.
    """
    frozen = list(frozen)
    alpha = [float(v) for v in alpha]

    def clip(v):
        if internal_limit is None:
            return v
        return max(-internal_limit, min(internal_limit, v))

    def rec(a, mask):
        n = len(a)
        if n == 1:
            bit = 0 if mask[0] else (1 if a[0] < 0 else 0)
            return [bit], [bit]
        h = n // 2
        far, near = a[:h], a[h:]
        u_l, b_l = rec([_f_scalar(far[i], near[i]) for i in range(h)], mask[:h])
        g = [clip(near[i] + (far[i] if b_l[i] == 0 else -far[i])) for i in range(h)]
        u_r, b_r = rec(g, mask[h:])
        return u_l + u_r, [b_l[i] ^ b_r[i] for i in range(h)] + b_r

    return rec(alpha, frozen)


def even_parity_words(length):
    words = []
    for v in range(1 << length):
        bits = [(v >> i) & 1 for i in range(length)]
        if sum(bits) % 2 == 0:
            words.append(bits)
    return np.array(words, dtype=np.uint8)


def spc_ml_optima(alpha):
    """All maximum-correlation even-parity words for one LLR vector."""
    alpha = np.asarray(alpha, dtype=np.float64)
    words = even_parity_words(alpha.shape[-1])
    scores = (1 - 2 * words.astype(np.float64)) @ alpha
    best = scores.max()
    return words[scores >= best - 1e-9]


def rep_ml_word(alpha):
    """Two-hypothesis repetition decision; the tie goes to all-zeros."""
    alpha = np.asarray(alpha, dtype=np.float64)
    n = alpha.shape[-1]
    return np.ones(n, dtype=np.uint8) if alpha.sum() < 0 else np.zeros(n, dtype=np.uint8)


def comparator_fold_argmin(mags):
    """Survivor of a strict-less comparator tree over one row: each round
    pits lane j against lane j + half, and the high lane wins only when
    strictly smaller."""
    lanes = list(enumerate(mags))
    while len(lanes) > 1:
        half = len(lanes) // 2
        lanes = [hi if hi[1] < lo[1] else lo for lo, hi in zip(lanes[:half], lanes[half:])]
    return lanes[0][0]


def tie_risk(kind, alpha):
    """Rows of a (batch, size) rate-1 (``"rate1"``) or SPC (``"spc"``) block
    where a shortcut decision may differ from plain SC: any zero LLR, or, for
    SPC, odd hard-decision parity with the minimum magnitude repeated."""
    alpha = np.asarray(alpha)
    if alpha.dtype.kind in "iu":
        alpha = alpha.astype(np.int64)
    risk = (alpha == 0).any(axis=1)
    if kind == "spc":
        mags = np.abs(alpha)
        odd = (alpha < 0).sum(axis=1) % 2 == 1
        repeated = (mags == mags.min(axis=1, keepdims=True)).sum(axis=1) > 1
        risk |= odd & repeated
    return risk


def _node_kind(mask):
    """Constituent-code kind of a frozen mask; REP wins the size-2 [1, 0]."""
    if all(mask):
        return "rate0"
    if not any(mask):
        return "rate1"
    if all(mask[:-1]) and not mask[-1]:
        return "rep"
    if mask[0] and not any(mask[1:]):
        return "spc"
    return "branch"


def scalar_datapath_decode(frozen, words, spec):
    """Plain-Python model of the pruned datapath on one frame of raw words.

    Each node is classified from its own slice of the frozen mask and decoded
    by its shortcut in saturating integer arithmetic: rate-0 as zeros, rate-1
    by threshold, REP by the sign of a pairwise adder tree that saturates
    every round, SPC by threshold plus, on odd parity, a flip of the lane
    :func:`comparator_fold_argmin` keeps on |alpha|.  A branch runs the
    min-sum f, its left child, the saturating g and its right child.

    Cycles follow the README's cycle model: 1 per branch (2 without
    precompute), 1 per rate-0 and rate-1 node, log2(size) per REP and
    log2(size) + 1 per SPC node, none for a single bit.  ``steps`` lists the
    trace's ``(cycle, stage, op)`` rows: a node of size 2**s updates on layer
    s - 1, adder and comparator rounds step down the layers to 0, where the
    parity route runs, and each g select lands in the left child's last cycle.

    Returns ``(u, x, cycles, cycles_no_precompute, steps)``, bits as lists.
    """
    lim = spec.internal_limit
    steps, cycle, branches = [], [0], [0]

    def clip(v):
        return max(-lim, min(lim, v))

    def hard(v):
        return 1 if v < 0 else 0

    def step(layer, op):
        cycle[0] += 1
        steps.append((cycle[0], layer, op))

    def rec(a, mask):
        n = len(a)
        stage = n.bit_length() - 1
        kind = _node_kind(mask)
        if kind == "branch":
            branches[0] += 1
            step(stage - 1, "f")
            h = n // 2
            far, near = a[:h], a[h:]
            f = [(-1 if (p < 0) != (q < 0) else 1) * min(abs(p), abs(q)) for p, q in zip(far, near)]
            left = rec(f, mask[:h])
            steps.append((cycle[0], stage - 1, "g_select"))
            g = [clip(q - p if b else q + p) for p, q, b in zip(far, near, left)]
            right = rec(g, mask[h:])
            return [b ^ c for b, c in zip(left, right)] + right
        if kind == "rate0":
            if stage:
                step(stage - 1, "rate0")
            return [0] * n
        if kind == "rate1":
            if stage:
                step(stage - 1, "rate1")
            return [hard(v) for v in a]
        if kind == "rep":
            sums = a
            for layer in range(stage - 1, -1, -1):
                step(layer, "rep_accumulate")
                half = len(sums) // 2
                sums = [clip(sums[i] + sums[i + half]) for i in range(half)]
            return [hard(sums[0])] * n
        for layer in range(stage - 1, -1, -1):
            step(layer, "spc_compare")
        step(0, "ptu_route")
        bits = [hard(v) for v in a]
        if sum(bits) % 2:
            bits[comparator_fold_argmin([abs(v) for v in a])] ^= 1
        return bits

    x = rec([int(v) for v in words], [bool(m) for m in frozen])
    u = dense_transform(x)[0].tolist()
    return u, x, cycle[0], cycle[0] + branches[0], steps
