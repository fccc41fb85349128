"""Independent reference implementations used only by tests.

Everything here is written against the definitions, not against the library:
dense generator-matrix encoding, a scalar list-based SC decoder, and
brute-force maximum-likelihood decisions for the short constituent codes.
Slow on purpose; clarity over speed.
"""

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
