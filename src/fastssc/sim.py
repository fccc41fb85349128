"""Monte-Carlo harness: BPSK over AWGN, BER/FER sweeps, throughput arithmetic.

Reproducibility contract: frames are drawn in fixed, frame-aligned blocks of
``DRAW_BLOCK`` = 64.  Block ``b`` holds frames ``64 b`` to ``64 b + 63`` and
has its own counter-based Philox generator, keyed ``(seed, b)``, which fills
the block's message bits and then its noise in two bulk calls.  A chunk that
starts or ends inside a block draws the whole block and keeps its own rows, so
frame ``i`` still depends only on ``(seed, i)``, and results are identical no
matter how frames are batched or spread across workers.  The worker count
defaults to 1 and never exceeds the number of CPUs.
"""

from __future__ import annotations

import csv
import io
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .core import db_to_linear, encode
from .fast import _check_tie_mode, fast_ssc_decode
from .hw import PuTree, hw_decode_frame
from .quant import quantize_channel
from .reference import sc_decode

CSV_HEADER = ["ebn0_db", "frames", "bit_errors", "frame_errors", "ber", "fer"]


@dataclass(frozen=True)
class ChannelConfig:
    """BPSK-AWGN operating point: Eb/N0 in dB, code rate, RNG seed."""

    ebn0_db: float
    rate: float
    seed: int = 0

    def __post_init__(self):
        db_to_linear(self.ebn0_db)
        if not 0 < self.rate <= 1:  # NaN fails too
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if not 0 <= operator.index(self.seed) < 2**64:
            raise ValueError(f"seed must be in 0..2**64-1, got {self.seed}")

    @property
    def noise_var(self):
        return 1.0 / (2.0 * self.rate * db_to_linear(self.ebn0_db))


@dataclass(frozen=True)
class StopRule:
    """Stop a point after enough frame errors or a frame budget."""

    min_frame_errors: int = 200
    max_frames: int = 10_000_000

    def __post_init__(self):
        if min(operator.index(self.min_frame_errors), operator.index(self.max_frames)) < 1:
            raise ValueError("min_frame_errors and max_frames must be >= 1, got "
                             f"{self.min_frame_errors} and {self.max_frames}")


@dataclass
class TrialStats:
    """Error counters for one simulated operating point."""

    frames: int = 0
    bit_errors: int = 0
    frame_errors: int = 0
    info_bits_per_frame: int = 1

    @property
    def ber(self):
        if self.frames == 0:
            return 0.0
        return self.bit_errors / (self.frames * self.info_bits_per_frame)

    @property
    def fer(self):
        if self.frames == 0:
            return 0.0
        return self.frame_errors / self.frames


DRAW_BLOCK = 64


def _message_bits(bit_generator, K):
    """A block's ``(DRAW_BLOCK, K)`` message bits, the ones ``Generator(
    bit_generator).integers(0, 2, size=(DRAW_BLOCK, K), dtype=np.uint8)``
    returns, at well under half its cost, leaving the same generator state.

    That call takes the top bit of each byte of the raw 64-bit stream, low
    byte first.  ``DRAW_BLOCK * K`` bytes are a whole number of words, so it
    leaves no half word buffered either.
    """
    raw = bit_generator.random_raw(DRAW_BLOCK * K // 8).astype("<u8", copy=False)
    return (raw.view(np.uint8) >> 7).reshape(DRAW_BLOCK, K)


def _draw_messages(cfg, K, first_frame, count):
    """Messages of every block of ``DRAW_BLOCK`` frames that [first_frame,
    first_frame + count) touches, as one (blocks * DRAW_BLOCK, K) array, each
    block's Philox generator, already advanced past its messages, and the
    row of ``first_frame`` in the array.

    Block ``b``'s generator is keyed ``(seed, b)`` and fills its messages
    ``(DRAW_BLOCK, K)`` first; its noise is the next draw.
    """
    first_block = first_frame // DRAW_BLOCK
    blocks = range(first_block, -(-(first_frame + count) // DRAW_BLOCK))
    msgs = np.empty((len(blocks) * DRAW_BLOCK, K), dtype=np.uint8)
    rngs = []
    for j, block in enumerate(blocks):
        bit_generator = np.random.Philox(key=np.array([cfg.seed, block], dtype=np.uint64))
        msgs[j * DRAW_BLOCK : (j + 1) * DRAW_BLOCK] = _message_bits(bit_generator, K)
        rngs.append(np.random.Generator(bit_generator))
    return msgs, rngs, first_frame - first_block * DRAW_BLOCK


def draw_messages_and_noise(cfg, K, N, first_frame, count):
    """Messages and unit-variance noise for frames [first, first+count).

    Each block of ``DRAW_BLOCK`` frames the range touches is drawn whole from
    a Philox generator keyed ``(seed, frame // DRAW_BLOCK)``: messages
    ``(DRAW_BLOCK, K)`` first, then noise ``(DRAW_BLOCK, N)``.
    """
    msgs, rngs, skip = _draw_messages(cfg, K, first_frame, count)
    noise = np.empty((len(rngs) * DRAW_BLOCK, N), dtype=np.float64)
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=noise[j * DRAW_BLOCK : (j + 1) * DRAW_BLOCK])
    return msgs[skip:skip + count], noise[skip:skip + count]


def awgn_llr(codeword, cfg, noise):
    """Channel LLRs of BPSK codeword bits over AWGN, written over ``noise``.

    Bit 0 maps to +1, bit 1 to -1; the LLR of received sample y is
    ``2 y / noise_var``, positive favouring bit 0.  ``noise`` is the frames'
    unit-variance draw, a float64 array of the codeword's shape; it is
    overwritten with the LLRs and returned, so the channel holds one float64
    block, not two: one draw block's (see :func:`channel_frames`).

    Each element is ``2.0 * ((1.0 - 2.0 * bit) + sqrt(var) * noise) / var``,
    evaluated in that order, on blocks of ``DRAW_BLOCK`` rows, so the
    temporaries stay in cache.
    """
    bits = np.asarray(codeword, dtype=np.uint8)
    if not (isinstance(noise, np.ndarray) and noise.dtype == np.float64
            and noise.shape == bits.shape):
        raise ValueError(f"noise must be a float64 array of the codeword's shape {bits.shape}")
    var = cfg.noise_var
    sigma = np.sqrt(var)
    rows, bits = np.atleast_2d(noise), np.atleast_2d(bits)
    symbols = np.empty(rows[:DRAW_BLOCK].shape)
    for i in range(0, len(rows), DRAW_BLOCK):
        out = rows[i : i + DRAW_BLOCK]
        sym = symbols[: len(out)]
        np.multiply(bits[i : i + DRAW_BLOCK], 2.0, out=sym)
        np.subtract(1.0, sym, out=sym)
        np.multiply(out, sigma, out=out)
        np.add(sym, out, out=out)
        np.multiply(out, 2.0, out=out)
        np.divide(out, var, out=out)
    return noise


def channel_frames(code, cfg, first_frame, count, spec=None):
    """Messages, codewords and BPSK/AWGN channel LLRs of frames [first_frame,
    first_frame + count).

    The LLRs are made one draw block at a time: the block's noise is drawn
    into one reused ``(DRAW_BLOCK, N)`` float64 buffer, and its kept rows go
    through :func:`awgn_llr` (and :func:`~fastssc.quant.quantize_channel`
    given a spec) into the block's columns of one ``(N, count)`` array of
    float64 or ``spec.word_dtype``.  Its transpose is returned, which
    :func:`~fastssc.reference.prepare_llr` takes without a copy.
    """
    msgs, rngs, skip = _draw_messages(cfg, code.K, first_frame, count)
    msgs = msgs[skip:skip + count]
    codewords = encode(code, msgs)
    cols = np.empty((code.N, count), dtype=np.float64 if spec is None else spec.word_dtype)
    noise = np.empty((DRAW_BLOCK, code.N), dtype=np.float64)
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=noise)
        # the block's rows in the chunk, clipped to the range
        lo = j * DRAW_BLOCK - skip
        rows = slice(max(lo, 0), min(lo + DRAW_BLOCK, count))
        llr = awgn_llr(codewords[rows], cfg, noise[rows.start - lo : rows.stop - lo])
        cols[:, rows] = (llr if spec is None else quantize_channel(llr, spec)).T
    return msgs, codewords, cols.T


def make_decoder(code, decoder, quant, tie_mode):
    """Bind :func:`run_point`'s decoder settings to a callable ``llr ->
    DecodeResult``; the ``"hw"`` one also takes ``hw_decode_frame``'s ``trace``.
    Its ``spec`` is the word format it decodes in, the tree's for ``"hw"``.
    """
    _check_tie_mode(tie_mode)
    if decoder == "sc":
        decode = lambda llr: sc_decode(code, llr, quant)
    elif decoder == "fast_ssc":
        decode = lambda llr: fast_ssc_decode(code, llr, quant, tie_mode=tie_mode)
    elif decoder == "hw":
        tree = PuTree(code.N, quant)
        decode = lambda llr, trace=False: hw_decode_frame(tree, code, llr, trace)
        quant = tree.spec
    else:
        raise ValueError(f"unknown decoder {decoder!r}")
    decode.spec = quant
    return decode


def resolve_workers(workers):
    """``workers`` clamped to the CPU count; a count below 1 is an error."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


@cache
def _pool(n_workers, pid):
    """The process's pool of ``n_workers`` threads, reused by every later call.

    A thread per call can open a new malloc arena while the last one exits:
    repeated 4096-frame (1024,870) calls peaked at 98 MB of RSS, against 68 MB
    on one reused thread.  A forked child (another ``pid``) gets its own pool.
    """
    return ThreadPoolExecutor(n_workers)


def _run_chunk(code, decode, cfg, first_frame, count, spec=None):
    """``(frame_errors, bit_errors)`` of frames [first_frame, first_frame + count).

    ``spec`` is the decoder's ``spec``: with one, the channel hands the
    decoder ``spec.word_dtype`` words, the words it would have quantized from
    float LLRs itself, and either way in its own ``(N, count)`` layout, which
    it decodes without a copy (see :func:`channel_frames`).

    A frame is in error exactly when its codeword estimate differs from the
    sent codeword: every decoder returns ``x_hat = u_hat * G`` with ``u_hat``
    zero on the frozen positions, and the transform is a bijection.  Only
    those frames' message bits are compared.
    """
    msgs, tx, llr = channel_frames(code, cfg, first_frame, count, spec)
    res = decode(llr)
    bad = (res.x_hat != tx).any(axis=1)
    return int(bad.sum()), int((res.u_hat[bad][:, code.info_indices] != msgs[bad]).sum())


def run_point(code, cfg, decoder="fast_ssc", quant=None, tie_mode="exact",
              stop=StopRule(), batch=2048, workers=1):
    """Simulate one Eb/N0 point until the stop rule fires.

    ``decoder`` is ``"sc"``, ``"fast_ssc"`` or ``"hw"``.  A ``quant`` spec
    runs it in fixed point; ``"hw"`` defaults to :class:`~fastssc.hw.PuTree`'s.
    ``tie_mode`` resolves ties in ``"fast_ssc"`` (see :mod:`fastssc.fast`)
    and is checked for every decoder.  Each round decodes up to ``batch *
    workers`` frames in chunks of ``batch`` on a pool of ``workers`` threads.
    """
    batch, workers = operator.index(batch), operator.index(workers)
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    decode = make_decoder(code, decoder, quant, tie_mode)
    n_workers = resolve_workers(workers)
    stats = TrialStats(info_bits_per_frame=code.K)
    pool = _pool(n_workers, os.getpid())
    while stats.frame_errors < stop.min_frame_errors and stats.frames < stop.max_frames:
        end = min(stats.frames + batch * n_workers, stop.max_frames)
        starts = range(stats.frames, end, batch)
        counts = [min(batch, end - lo) for lo in starts]
        for frame_errors, bit_errors in pool.map(
                partial(_run_chunk, code, decode, cfg, spec=decode.spec), starts, counts):
            stats.frame_errors += frame_errors
            stats.bit_errors += bit_errors
        stats.frames = end
    return stats


def run_ber_sweep(code, ebn0_list, seed=0, **point):
    """BER/FER at each Eb/N0 point in dB, as a list of (ebn0_db, TrialStats).

    ``seed`` is in 0..2**64-1: every frame's randomness derives from (seed,
    frame index), so results do not depend on batching or worker count.
    Every other keyword is passed to :func:`run_point`.
    """
    return [(ebn0, run_point(code, ChannelConfig(ebn0, code.rate, seed), **point))
            for ebn0 in ebn0_list]


def throughput_gbps(K, cycles, freq_ghz):
    """Information throughput in Gbps: K bits per decode of ``cycles`` clocks."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    return K * freq_ghz / cycles


def stats_csv_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for ebn0, st in rows:
        writer.writerow([ebn0, st.frames, st.bit_errors, st.frame_errors,
                         f"{st.ber:.6e}", f"{st.fer:.6e}"])
    return buf.getvalue()
