"""The benchmark's workloads, their closed loops and correctness gates.

All three are closed loops: the next request is sent only when the
previous one returns.  The Monte-Carlo workloads run a fixed frame budget per
request, with ``min_frame_errors`` above it, so every commit does the same
work per request.  Inputs derive from the workload seed only: the Monte-Carlo
workloads hand the library a channel seed per request, and the datapath
workload hands it float LLR blocks made by this module's own BPSK/AWGN
generator.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from dataclasses import dataclass

import numpy as np

import fastssc.cli
import fastssc.fast
import fastssc.hw
import fastssc.reference
import fastssc.sim
from fastssc.quant import QuantSpec
from tracing import rebinding

GATE_FRAMES = 512   # held-back frames checked against the oracle per run
POOL_BLOCKS = 64    # distinct input blocks the datapath workload cycles through


@dataclass(frozen=True)
class Workload:
    """Parameters of one workload; the reason for each is in BENCHMARK.json."""

    name: str
    entry: str           # "cli", "run_point" or "hw": how requests enter the library
    N: int
    K: int
    design_snr_db: float
    decoder: str         # a make_decoder name
    quant: str | None
    tie_mode: str
    ebn0_db: float
    batch: int           # frames per sim._run_chunk, or per decode call
    workers: int
    frames_per_call: int  # frames per closed-loop request


WORKLOADS = (
    Workload(
        "mc-float-512-w2",
        "cli", 1024, 512, 2.0, "fast_ssc", None, "exact", 2.5, 2048, 2, 8192),
    Workload(
        "mc-q450x-870-w1",
        "run_point", 1024, 870, 2.0, "fast_ssc", "4,5,0", "exact", 4.0, 2048, 1, 4096),
    Workload(
        "hw-q450-512-b16",
        "hw", 1024, 512, 2.0, "hw", "4,5,0", "hardware", 2.5, 16, 1, 16),
)
BY_NAME = {wl.name: wl for wl in WORKLOADS}


def polar_encode(frozen, msgs):
    """Codewords of ``msgs`` (rows of K bits): scatter into the unfrozen
    positions and apply the GF(2) butterfly, natural order."""
    n_frames, N = len(msgs), len(frozen)
    x = np.zeros((n_frames, N), dtype=np.uint8)
    x[:, ~frozen] = msgs
    step = 2
    while step <= N:
        blocks = x.reshape(n_frames, N // step, step)
        blocks[:, :, : step // 2] ^= blocks[:, :, step // 2 :]
        step *= 2
    return x


def channel_llr(code, ebn0_db, frames, rng):
    """Random messages and their BPSK/AWGN channel LLRs (positive means bit 0)."""
    msgs = rng.integers(0, 2, size=(frames, code.K), dtype=np.uint8)
    x = polar_encode(np.asarray(code.frozen, dtype=bool), msgs)
    var = 1.0 / (2.0 * (code.K / code.N) * 10.0 ** (ebn0_db / 10.0))
    y = 1.0 - 2.0 * x + np.sqrt(var) * rng.standard_normal(x.shape)
    return msgs, 2.0 * y / var


class _Runner:
    def __init__(self, wl, bound, seed):
        self.wl = wl
        self.code = bound.code
        self.spec = bound.spec
        self.bound = bound
        self.seed = seed
        self.batch_s = []
        self.expected_cycles = fastssc.fast.latency_model(
            fastssc.fast.classified(self.code)).total_cycles

    def _gate_llr(self):
        rng = np.random.default_rng([self.seed, 1])
        return channel_llr(self.code, self.wl.ebn0_db, GATE_FRAMES, rng)[1]


class MonteCarlo(_Runner):
    """One request is one ``fastssc ber`` call (entry "cli") or one
    ``run_point`` call of ``frames_per_call`` frames; a batch is one chunk."""

    def __init__(self, wl, bound, seed):
        super().__init__(wl, bound, seed)
        self._seeds = np.random.default_rng([seed, 0])

    @contextlib.contextmanager
    def batch_timer(self):
        sim = fastssc.sim
        chunk = sim._run_chunk
        times = self.batch_s

        def timed_chunk(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return chunk(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        with rebinding([sim], {chunk: timed_chunk}):
            yield

    def warm_up(self):
        self.step(self.wl.batch * self.wl.workers)

    def step(self, frames=None):
        """Run one request; returns (frames, frame errors, bit errors)."""
        wl = self.wl
        frames = frames or wl.frames_per_call
        seed = int(self._seeds.integers(2**31))
        if wl.entry == "cli":
            got = self._cli(frames, seed)
        else:
            st = fastssc.sim.run_point(
                self.code, fastssc.sim.ChannelConfig(wl.ebn0_db, self.code.rate, seed),
                decoder=wl.decoder, quant=self.spec, tie_mode=wl.tie_mode,
                stop=fastssc.sim.StopRule(frames + 1, frames), batch=wl.batch,
                workers=wl.workers)
            got = (st.frames, st.frame_errors, st.bit_errors)
        if got[0] != frames:
            raise RuntimeError(f"{wl.name}: asked for {frames} frames, ran {got[0]}")
        return got

    def _cli(self, frames, seed):
        wl = self.wl
        argv = ["ber", "--frozen-file", str(self.bound.frozen_path),
                "--decoder", wl.decoder.replace("_", "-"), "--tie-mode", wl.tie_mode,
                "--ebn0", str(wl.ebn0_db), "--seed", str(seed),
                "--min-frame-errors", str(frames + 1), "--max-frames", str(frames),
                "--batch", str(wl.batch), "--workers", str(wl.workers)]
        if wl.quant:
            argv += ["--quant", wl.quant]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = fastssc.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"fastssc {' '.join(argv)} exited {rc}")
        lines = out.getvalue().splitlines()
        head = lines.index("ebn0_db,frames,bit_errors,frame_errors,ber,fer")
        row = next(csv.DictReader(lines[head:]))
        return int(row["frames"]), int(row["frame_errors"]), int(row["bit_errors"])

    def check(self):
        """Exact-mode pruned decode against plain SC on held-back frames.

        Returns (frames checked, frames mismatched, cycles the datapath
        model spends on one decode of this code, decodes whose cycle count
        disagrees with the latency model).
        """
        llr = self._gate_llr()
        got = fastssc.fast.fast_ssc_decode(self.code, llr, self.spec, tie_mode="exact").u_hat
        ref = fastssc.reference.sc_decode(self.code, llr, self.spec).u_hat
        bad = int((got != ref).any(axis=1).sum())
        tree = fastssc.hw.PuTree(self.code.N, self.spec or QuantSpec(4, 5, 0))
        cycles = fastssc.hw.hw_decode_frame(tree, self.code, llr[:1]).cycle_trace.total_cycles
        return len(llr), bad, cycles, int(cycles != self.expected_cycles)


class HwBlocks(_Runner):
    """One request is one ``hw_decode_frame`` call on a pregenerated block."""

    def __init__(self, wl, bound, seed):
        super().__init__(wl, bound, seed)
        rng = np.random.default_rng([seed, 0])
        msgs, llr = channel_llr(self.code, wl.ebn0_db, POOL_BLOCKS * wl.batch, rng)
        self._pool = list(zip(np.split(msgs, POOL_BLOCKS), np.split(llr, POOL_BLOCKS)))
        self._next = 0
        self._info = np.flatnonzero(~np.asarray(self.code.frozen, dtype=bool))
        self.cycles = []

    def batch_timer(self):
        return contextlib.nullcontext()

    def warm_up(self):
        for _ in range(4):
            self.step()

    def step(self, frames=None):
        """Decode the next block, whatever ``frames`` asks; returns (frames,
        frame errors, bit errors)."""
        msgs, llr = self._pool[self._next % POOL_BLOCKS]
        self._next += 1
        t0 = time.perf_counter()
        res = fastssc.hw.hw_decode_frame(self.bound.decoder, self.code, llr)
        self.batch_s.append(time.perf_counter() - t0)
        self.cycles.append(res.cycle_trace.total_cycles)
        errs = res.u_hat[:, self._info] != msgs
        return len(llr), int(errs.any(axis=1).sum()), int(errs.sum())

    def check(self):
        """Datapath model against hardware-mode pruned decode on held-back
        blocks, and every decode's cycle count against the latency model.

        Returns the same tuple as :meth:`MonteCarlo.check`.
        """
        llr = self._gate_llr()
        bad = 0
        cycles = list(self.cycles)
        for blk in np.split(llr, len(llr) // self.wl.batch):
            res = fastssc.hw.hw_decode_frame(self.bound.decoder, self.code, blk)
            ref = fastssc.fast.fast_ssc_decode(self.code, blk, self.spec, tie_mode="hardware")
            bad += int((res.u_hat != ref.u_hat).any(axis=1).sum())
            cycles.append(res.cycle_trace.total_cycles)
        wrong = sum(c != self.expected_cycles for c in cycles)
        return len(llr), bad, int(np.median(cycles)), wrong


def make_runner(wl, bound, seed):
    return (HwBlocks if wl.entry == "hw" else MonteCarlo)(wl, bound, seed)
