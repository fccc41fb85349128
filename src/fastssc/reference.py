"""Successive-cancellation reference decoder.

This is the deliberately plain tree-recursive decoder every other decoder in
the package is checked against.  Conventions, used consistently everywhere:

* min-sum check update with sign(0) = +1,
* hard decision maps LLR >= 0 to bit 0,
* frozen leaves decide 0 regardless of their LLR,
* inside a decoder, blocks are (size, batch), frames along the columns;
  :func:`prepare_llr` and :func:`decode_result` are the only axis switches.

Decoders accept float LLRs or, when a :class:`~fastssc.quant.QuantSpec` is
given, raw quantized integers (floats are channel-quantized on entry); all
additions then saturate to the internal word width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import polar_transform
from .quant import _real_array, quantize_channel, sat_add, validate_quantized


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


def _transpose(src, dst):
    """Copy ``src.T`` into ``dst``, in blocks of source rows that stay in cache."""
    step = max(32, 16384 // max(src.shape[1], 1))
    for i in range(0, len(src), step):
        dst[:, i : i + step] = src[i : i + step].T


def prepare_llr(llr, N, spec=None):
    """Turn one frame or a (batch, N) block into a C-contiguous (N, batch)
    array, frames along the columns, plus a flag telling whether the input was
    a single frame.  Decoders only read the returned array, so a checked
    input whose transpose is C-contiguous comes back as that view, uncopied.

    Without a spec the LLRs come back as float64 and must satisfy |llr| <=
    float64 max / N, which rejects NaN and inf: a decode adds at most N of
    them, so then no sum overflows.  Float input is channel-quantized when a
    spec is given; integer input is assumed to be raw quantized values already
    and is only range-checked.  Quantized frames come back as L-bit words in
    the spec's ``word_dtype``.  Any other dtype kind (bool, complex, strings,
    datetimes, objects) is an error.
    """
    arr = _real_array(llr)
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
    if arr.T.flags.c_contiguous:
        return arr.T, single
    cols = np.empty((N, len(arr)), dtype=arr.dtype)
    _transpose(arr, cols)
    return cols, single


def decode_result(x_cols, single):
    """The :class:`DecodeResult` of a (N, batch) 0/1 codeword estimate: uint8
    ``x_hat`` with frames along the rows, ``u_hat`` its (self-inverse)
    transform, and one frame unwrapped when ``single``."""
    x_hat = np.empty(x_cols.shape[::-1], dtype=np.uint8)
    _transpose(x_cols, x_hat)
    u_hat = polar_transform(x_hat)
    return DecodeResult(u_hat[0], x_hat[0]) if single else DecodeResult(u_hat, x_hat)


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

    def recurse(a, lo):
        if len(a) == 1:
            if code.frozen[lo]:
                return np.zeros(a.shape, dtype=np.uint8)
            return (a < 0).astype(np.uint8)
        half = len(a) // 2
        far, near = a[:half], a[half:]
        # f: min-sum, sign(far) sign(near) min(|far|, |near|) with sign(0) = +1
        beta_l = recurse(_negate_where(np.minimum(np.abs(far), np.abs(near)),
                                       (far < 0) != (near < 0)), lo)
        # g: near + far where beta_l is 0, near - far where it is 1
        g = _negate_where(far, beta_l)
        g = near + g if spec is None else sat_add(near, g, spec)
        beta_r = recurse(g, lo + half)
        return np.concatenate([beta_l ^ beta_r, beta_r])

    return decode_result(recurse(alpha, 0), single)
