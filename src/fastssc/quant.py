"""Fixed-point LLR quantization with symmetric saturation.

A quantization scheme is written ``C,L,F``: channel LLRs are quantized to
``C`` bits, internal datapath values are held in ``L`` bits, and both share
``F`` fraction bits.  Quantized LLRs are stored as plain integers scaled by
``2**F``; all saturation limits below apply to those raw integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class QuantSpec:
    """Fixed-point layout: channel bits, internal bits, shared fraction bits."""

    channel_bits: int
    internal_bits: int
    fraction_bits: int

    def __post_init__(self):
        c, l, f = map(operator.index, (self.channel_bits, self.internal_bits, self.fraction_bits))
        # Wide specs emulate unquantized arithmetic (datapaths use L <= 16).
        # C >= 2 leaves a nonzero channel limit (C = 1 quantizes every LLR to
        # 0), L <= 63 keeps in-range sums from wrapping in int64, and C <= 54
        # keeps the channel limit exact in float64, where it clips.
        if not (2 <= c <= l <= 63 and c <= 54):
            raise ValueError(f"need 2 <= C <= L <= 63 and C <= 54, got C={c}, L={l}")
        if not (0 <= f < c):
            raise ValueError(f"need 0 <= F < C, got F={f}, C={c}")

    @classmethod
    def from_string(cls, text):
        """Parse a ``"C,L,F"`` string such as ``"4,5,0"``."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"quantization spec must be 'C,L,F', got {text!r}")
        try:
            c, l, f = (int(p.strip()) for p in parts)
        except ValueError:
            raise ValueError(f"quantization spec must be 'C,L,F' integers, got {text!r}") from None
        return cls(c, l, f)

    def __str__(self):
        return f"{self.channel_bits},{self.internal_bits},{self.fraction_bits}"

    @property
    def channel_limit(self):
        """Largest raw integer representable on the channel side."""
        return (1 << (self.channel_bits - 1)) - 1

    @property
    def internal_limit(self):
        """Largest raw integer representable in the internal datapath."""
        return (1 << (self.internal_bits - 1)) - 1

    @cached_property
    def word_dtype(self):
        """Narrowest signed integer dtype that holds the sum of two L-bit words:
        int8 for L <= 7, int16 for L <= 15, int32 for L <= 31, else int64."""
        return np.min_scalar_type(-2 * self.internal_limit)

    @cached_property
    def word_bounds(self):
        """``(-internal_limit, internal_limit)`` as read-only 0-d arrays of
        :attr:`word_dtype`, the form ``ndarray.clip`` takes fastest."""
        bounds = np.array([-self.internal_limit, self.internal_limit], self.word_dtype)
        bounds.flags.writeable = False
        return bounds[0, ...], bounds[1, ...]

    @property
    def scale(self):
        """Raw integers encode value * 2**fraction_bits."""
        return 1 << self.fraction_bits


_ROW_BLOCK = 64


def _real_array(llr):
    """``llr`` as an array; a dtype kind other than integer or float is an error."""
    arr = np.asarray(llr)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"LLRs must be real numbers, got dtype {arr.dtype}")
    return arr


def quantize_channel(llr, spec):
    """Quantize float channel LLRs to raw integers.

    Rounds half away from zero to ``F`` fraction bits, then saturates to the
    symmetric ``C``-bit range; infinities saturate, NaN is rejected.  Works
    on blocks of ``_ROW_BLOCK`` rows with one magnitude buffer, so it stays
    in cache; a block with a NaN raises before anything is returned.

    Parameters
    ----------
    llr : array_like of int or float
        Channel LLRs in natural units; any other dtype kind is rejected.
    spec : QuantSpec

    Returns
    -------
    ndarray of ``spec.word_dtype``
        Raw integers encoding value * 2**F, the decoders' word format.
    """
    x = _real_array(llr).astype(np.float64, copy=False)
    raw = np.empty(x.shape, dtype=spec.word_dtype)
    rows, out_rows = np.atleast_2d(x), np.atleast_2d(raw)
    mags = np.empty(rows[:_ROW_BLOCK].shape)
    for i in range(0, len(rows), _ROW_BLOCK):
        blk = rows[i : i + _ROW_BLOCK]
        mag = mags[: len(blk)]
        np.abs(blk, out=mag)
        if np.isnan(mag).any():
            raise ValueError("channel LLRs contain NaN")
        # Clip while still in float: casting first would wrap inf and huge
        # values.  copysign differs from a sign select only on zeros, which
        # cast to 0.
        mag *= spec.scale
        mag += 0.5
        np.floor(mag, out=mag)
        np.minimum(mag, spec.channel_limit, out=mag)
        np.copysign(mag, blk, out=out_rows[i : i + _ROW_BLOCK], casting="unsafe")
    return raw


def dequantize(raw, spec):
    """Map raw quantized integers back to natural LLR units."""
    return np.asarray(raw, dtype=np.float64) / spec.scale


def sat_add(a, b, spec):
    """Add raw integers and saturate to the internal ``L``-bit range.

    Operands are L-bit words of :attr:`QuantSpec.word_dtype`, ``|x| <=
    spec.internal_limit``, so their sum fits that dtype and the result keeps
    it.
    """
    return np.clip(a + b, *spec.word_bounds)


def validate_quantized(llr, spec):
    """Check that raw integers lie in the internal range; returns them as
    ``spec.word_dtype`` words, not copied if they already are.

    Raises ValueError for non-integer input or a value outside
    ``+/-spec.internal_limit``.
    """
    arr = np.asarray(llr)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"quantized LLRs must be integers, got {arr.dtype}")
    lim = spec.internal_limit
    # The extremes, not abs: abs of the most negative narrow int wraps.
    if arr.size and (arr.max() > lim or arr.min() < -lim):
        raise ValueError(f"quantized LLR outside +/-{lim} for spec {spec}")
    return arr.astype(spec.word_dtype, copy=False)
