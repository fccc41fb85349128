"""Successive-cancellation reference decoder.

This is the deliberately plain tree-recursive decoder every other decoder in
the package is checked against.  Conventions, used consistently everywhere:

* min-sum check update with sign(0) = +1,
* hard decision maps LLR >= 0 to bit 0,
* frozen leaves decide 0 regardless of their LLR.

Decoders accept float LLRs or, when a :class:`~fastssc.quant.QuantSpec` is
given, raw quantized integers (floats are channel-quantized on entry); all
additions then saturate to the internal word width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quant import QuantSpec, quantize_channel, sat_add, validate_quantized


@dataclass
class DecodeResult:
    """Decoder output: message-domain estimate and its re-encoding."""

    u_hat: np.ndarray
    x_hat: np.ndarray


def _negate_where(x, flip):
    """x with its sign flipped where ``flip`` is set, in x's own dtype.

    A multiply by +-1 rather than ``np.where``, which branches per element
    and runs several times slower on random signs.  The values are the
    same, -0.0 included.
    """
    return x * (1 - 2 * np.asarray(flip, dtype=bool).view(np.int8))


def f_min_sum(a, b):
    """Min-sum check-node update: sign(a)sign(b)min(|a|, |b|), sign(0) = +1.

    Computed in sign-magnitude form, in the operands' own dtype.  sign(0) =
    +1 keeps every zero-LLR decision consistent with the "LLR >= 0 decides 0"
    convention.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return _negate_where(np.minimum(np.abs(a), np.abs(b)), (a < 0) != (b < 0))


def g_function(beta, a_near, a_far, spec=None):
    """Variable-node update: a_near + a_far when beta = 0, a_near - a_far when beta = 1.

    With a quantization spec the addition saturates to the internal width.
    """
    a_near = np.asarray(a_near)
    signed_far = _negate_where(np.asarray(a_far), beta)
    if spec is None:
        return a_near + signed_far
    return sat_add(a_near, signed_far, spec)


def hard_decision(a):
    """Threshold detection: 0 for LLR >= 0, else 1."""
    return (np.asarray(a) < 0).astype(np.uint8)


def combine_beta(beta_left, beta_right):
    """Stitch child codeword estimates: [left XOR right, right]."""
    beta_left = np.asarray(beta_left, dtype=np.uint8)
    beta_right = np.asarray(beta_right, dtype=np.uint8)
    if beta_left.shape != beta_right.shape:
        raise ValueError("child estimates must have equal length")
    return np.concatenate([beta_left ^ beta_right, beta_right], axis=-1)


def prepare_llr(llr, N, spec=None):
    """Normalize decoder input to a 2-D (batch, N) array.

    Returns the array plus a flag telling whether the input was a single frame.
    Without a spec the LLRs come back as float64 (not copied if they already
    are) and must satisfy |llr| <= float64 max / N, which rejects NaN and inf:
    a decode adds at most N of them, so then no sum overflows.  Float input is
    channel-quantized when a spec is given; integer input is assumed to be raw
    quantized values already and is only range-checked.  Quantized frames come
    back as L-bit words in the spec's ``word_dtype``.  Decoders only read the
    returned array.
    """
    arr = np.asarray(llr)
    if arr.ndim == 1:
        arr = arr[None, :]
        single = True
    elif arr.ndim == 2:
        single = False
    else:
        raise ValueError("LLR input must be 1-D or 2-D")
    if arr.shape[1] != N:
        raise ValueError(f"LLR frame length must be {N}, got {arr.shape[1]}")
    if spec is None:
        arr = arr.astype(np.float64, copy=False)
        bound = np.finfo(np.float64).max / N
        # NaN fails both comparisons.
        if arr.size and not (-bound <= arr.min() and arr.max() <= bound):
            raise ValueError(f"LLRs must be finite with |llr| <= float64 max / N = {bound:.6g}")
    elif np.issubdtype(arr.dtype, np.integer):
        arr = validate_quantized(arr, spec)
    else:
        arr = quantize_channel(arr, spec)
    return arr, single


def sc_decode(code, llr, spec=None):
    """Decode by plain depth-first successive cancellation.

    Parameters
    ----------
    code : PolarCode
    llr : array_like
        Channel LLRs, one frame or a (batch, N) block.  Positive favors bit 0.
    spec : QuantSpec, optional
        Run the whole decode in saturating fixed point.

    Returns
    -------
    DecodeResult
        ``u_hat`` has zeros at frozen positions; ``x_hat`` is its re-encoding.
    """
    alpha, single = prepare_llr(llr, code.N, spec)
    batch = alpha.shape[0]
    u_hat = np.zeros((batch, code.N), dtype=np.uint8)
    frozen = code.frozen

    def recurse(a, lo, hi):
        if hi - lo == 1:
            if frozen[lo]:
                beta = np.zeros((batch, 1), dtype=np.uint8)
            else:
                beta = hard_decision(a)
            u_hat[:, lo] = beta[:, 0]
            return beta
        half = (hi - lo) // 2
        near, far = a[:, half:], a[:, :half]
        beta_l = recurse(f_min_sum(far, near), lo, lo + half)
        beta_r = recurse(g_function(beta_l, near, far, spec), lo + half, hi)
        return combine_beta(beta_l, beta_r)

    x_hat = recurse(alpha, 0, code.N)
    if single:
        return DecodeResult(u_hat[0], x_hat[0])
    return DecodeResult(u_hat, x_hat)

