"""End-to-end acceptance checks.

Each test prints one PASS line with its headline numbers so a full run reads
as a nine-line report.  These are the slow, definitive checks; the per-module
suites cover the same ground at commit speed.
"""

import numpy as np

import fastssc as fs
from fastssc.sim import ChannelConfig, StopRule, draw_messages_and_noise, run_ber_sweep
from conftest import noisy_float_llr, random_code

QUANT = fs.QuantSpec(4, 5, 0)


def _report(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def test_01_pruned_decoder_equals_plain_sc(capsys):
    rng = np.random.default_rng(101)
    frames = 10_000
    sets_per_n = 50
    checked = 0
    for N in (4, 8, 16, 32, 64, 128, 256):
        for _ in range(sets_per_n):
            code = random_code(N, rng)
            _, llr = noisy_float_llr(code, rng, frames)
            ref = fs.sc_decode(code, llr)
            fast = fs.fast_ssc_decode(code, llr)
            assert (ref.u_hat == fast.u_hat).all(), f"float mismatch N={N} K={code.K}"
            assert (ref.x_hat == fast.x_hat).all()
            qllr = fs.quantize_channel(llr, QUANT)
            qref = fs.sc_decode(code, qllr, QUANT)
            qfast = fs.fast_ssc_decode(code, qllr, QUANT, tie_mode="exact")
            assert (qref.u_hat == qfast.u_hat).all(), f"quantized mismatch N={N} K={code.K}"
            checked += 2 * frames
    _report(capsys, f"[1/9] pruned decoder equals plain SC: PASS "
                    f"({checked:,} frame comparisons, float and 4,5,0, zero mismatches)")


def test_02_datapath_model_equals_pruned_decoder(capsys):
    rng = np.random.default_rng(202)
    frames = 10_000
    checked = 0
    for N in (4, 8, 16, 32, 64):
        tree = fs.PuTree(N, QUANT)
        for _ in range(50):
            code = random_code(N, rng)
            qllr = fs.quantize_channel(noisy_float_llr(code, rng, frames)[1], QUANT)
            hw = fs.hw_decode_frame(tree, code, qllr)
            sw = fs.fast_ssc_decode(code, qllr, QUANT, tie_mode="hardware")
            assert (hw.u_hat == sw.u_hat).all(), f"datapath mismatch N={N} K={code.K}"
            assert (hw.x_hat == sw.x_hat).all()
            model = fs.latency_model(fs.classified(code))
            assert hw.cycle_trace.total_cycles == model.total_cycles
            checked += frames
    _report(capsys, f"[2/9] cycle-level datapath equals pruned decoder: PASS "
                    f"({checked:,} frames, cycle totals match the closed-form model)")


def test_03_short_node_decoders_are_ml(capsys):
    # Each node type is the whole of a one-node code, decoded by the pruned
    # decoder's shortcut in hardware tie mode.
    rows = 0
    for length in (4, 8):
        # every vector of `length` integers in -3..3, in lexicographic order
        grid = np.indices((7,) * length, dtype=np.int8).reshape(length, -1).T - 3
        spc_code = fs.PolarCode.from_frozen_mask(np.arange(length) < 1)
        rep_code = fs.PolarCode.from_frozen_mask(np.arange(length) < length - 1)
        for start in range(0, grid.shape[0], 500_000):
            alphas = grid[start:start + 500_000]
            beta = fs.fast_ssc_decode(spc_code, alphas, tie_mode="hardware").x_hat
            assert not np.bitwise_xor.reduce(beta, axis=1).any()
            score = ((1 - 2 * beta.astype(np.int64)) * alphas).sum(axis=1)
            hd_odd = np.bitwise_xor.reduce((alphas < 0).astype(np.uint8), axis=1).astype(bool)
            # best even-parity correlation: sum of |a|, less twice the
            # smallest |a| when the plain thresholds have odd parity
            best = np.abs(alphas).sum(axis=1) - 2 * np.where(hd_odd, np.abs(alphas).min(axis=1), 0)
            assert (score == best).all(), "single-parity decode is not maximum likelihood"

            rep = fs.fast_ssc_decode(rep_code, alphas, tie_mode="hardware").x_hat
            total = alphas.sum(axis=1)
            want = (total < 0).astype(np.uint8)[:, None]  # ties go to zeros
            assert (rep == np.repeat(want, length, axis=1)).all()
            rows += alphas.shape[0]
    _report(capsys, f"[3/9] short-node decoders are ML on exhaustive grids: PASS "
                    f"({rows:,} LLR vectors per node type, lengths 4 and 8)")


def test_04_latency_reduction_floor(capsys):
    baseline = fs.two_bit_precomputed_cycles(1024)
    rates = [round(r, 2) for r in np.arange(0.05, 0.951, 0.05)]
    rows = fs.latency_reduction_sweep(1024, rates, design_snr_db=2.0)
    worst = max(r["cycles"] for r in rows)
    for r in rows:
        assert r["cycles"] <= 0.40 * baseline, f"rate {r['rate']}: {r['cycles']} cycles"
    _report(capsys, f"[4/9] >=60% latency cut at every rate: PASS "
                    f"(N=1024, worst {worst} of {0.40 * baseline:.0f} allowed cycles)")


def test_05_reference_design_cycle_bands(capsys):
    hits = {}
    for K, lo, hi in ((870, 133, 179), (512, 226, 306)):
        totals = {}
        for snr in (0.0, 1.0, 2.0, 3.0, 4.0):
            code = fs.construct_code(1024, K, snr)
            totals[snr] = fs.latency_model(fs.classified(code)).total_cycles
        inside = {s: t for s, t in totals.items() if lo <= t <= hi}
        assert inside, f"(1024,{K}) totals {totals} all outside [{lo},{hi}]"
        hits[K] = inside
    _report(capsys, f"[5/9] reference design points in cycle bands: PASS "
                    f"(1024,870): {hits[870]}; (1024,512): {hits[512]}")


def test_06_throughput_arithmetic(capsys):
    hi = fs.throughput_gbps(870, 156, 1.04)
    lo = fs.throughput_gbps(512, 266, 1.04)
    assert 5.75 <= hi <= 5.87
    assert 1.99 <= lo <= 2.03
    _report(capsys, f"[6/9] throughput arithmetic: PASS "
                    f"(870 bits / 156 cycles @ 1.04 GHz = {hi:.3f} Gbps; "
                    f"512 / 266 = {lo:.3f} Gbps)")


def test_07_baseline_latencies(capsys):
    rng = np.random.default_rng(707)
    for n in range(1, 11):
        N = 1 << n
        code = random_code(N, rng)
        assert fs.sc_latency_cycles(code, "conventional") == 2 * N - 2
        assert fs.sc_latency_cycles(code, "precomputed") == N - 1
        assert fs.two_bit_precomputed_cycles(N) == 0.75 * N - 1
    rows = fs.latency_reduction_sweep(1024, [0.5], 2.0)
    assert rows[0]["reduction"] == 1 - rows[0]["cycles"] / fs.two_bit_precomputed_cycles(1024)
    _report(capsys, "[7/9] baseline cycle counts 2N-2, N-1, 0.75N-1: PASS "
                    "(exact for N = 2..1024; reduction reports use the 0.75N-1 floor)")


def _ebn0_at_fer(rows, target):
    # linear interpolation in (ebn0, log10 fer); curves fall monotonically
    pts = [(e, np.log10(s.fer)) for e, s in rows if s.fer > 0]
    want = np.log10(target)
    for (e0, f0), (e1, f1) in zip(pts, pts[1:]):
        if f0 >= want >= f1:
            return e0 + (e1 - e0) * (f0 - want) / (f0 - f1)
    raise AssertionError(f"FER {target} not bracketed by {pts}")


def test_08_quantization_penalty_within_quarter_db(capsys):
    code = fs.construct_code(1024, 512, 2.0)
    ladder = (2.25, 2.5, 2.75, 3.0)
    stop = StopRule(min_frame_errors=200, max_frames=400_000)
    ref = run_ber_sweep(code, ladder, seed=88, quant=None, tie_mode="exact", stop=stop, batch=8192)
    qnt = run_ber_sweep(code, ladder, seed=88, quant=QUANT, tie_mode="hardware", stop=stop,
                        batch=8192)
    for _, stats in ref + qnt:
        assert stats.frame_errors >= 200, "not enough frame errors for a stable point"
    e_ref = _ebn0_at_fer(ref, 1e-2)
    e_qnt = _ebn0_at_fer(qnt, 1e-2)
    gap = e_qnt - e_ref
    assert gap <= 0.25, f"quantization penalty {gap:.3f} dB exceeds 0.25 dB"
    _report(capsys, f"[8/9] 4,5,0 quantization costs <= 0.25 dB at FER 1e-2: PASS "
                    f"(float {e_ref:.3f} dB, quantized {e_qnt:.3f} dB, gap {gap:.3f} dB)")


def test_09_involution_and_determinism(capsys):
    rng = np.random.default_rng(909)
    for n in range(0, 11):
        bits = rng.integers(0, 2, size=(8, 1 << n)).astype(np.uint8)
        assert (fs.polar_transform(fs.polar_transform(bits)) == bits).all()
    for method in ("ga", "bhattacharyya"):
        a = fs.construct_code(512, 300, 1.5, method=method)
        b = fs.construct_code(512, 300, 1.5, method=method)
        assert (a.frozen == b.frozen).all()
    # quantizer invariants: idempotent saturation, symmetric rounding
    vals = rng.normal(0, 4, size=5000)
    q = fs.quantize_channel(vals, QUANT)
    assert (fs.quantize_channel(fs.dequantize(q, QUANT), QUANT) == q).all()
    assert (fs.quantize_channel(-vals, QUANT) == -q).all()
    assert np.abs(q).max() <= QUANT.channel_limit
    # frame draws depend only on (seed, frame index), not on partitioning
    cfg = ChannelConfig(2.0, 0.5, seed=4242)
    m1, n1 = draw_messages_and_noise(cfg, 16, 32, first_frame=0, count=12)
    m2, n2 = draw_messages_and_noise(cfg, 16, 32, first_frame=6, count=6)
    assert (m1[6:] == m2).all() and (n1[6:] == n2).all()
    _report(capsys, "[9/9] involution and determinism invariants: PASS "
                    "(transform, construction, quantizer, per-frame RNG)")
