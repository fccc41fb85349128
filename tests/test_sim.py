import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastssc import (
    ChannelConfig,
    QuantSpec,
    StopRule,
    TrialStats,
    awgn_llr,
    construct_code,
    encode,
    polar_transform,
    run_ber_sweep,
    run_point,
    stats_csv_text,
    throughput_gbps,
)
from fastssc.sim import _run_chunk, draw_messages_and_noise, make_decoder, resolve_workers
from conftest import noisy_float_llr, noisy_int_llr, random_code


def test_noise_variance_formula():
    cfg = ChannelConfig(ebn0_db=0.0, rate=0.5)
    assert cfg.noise_var == pytest.approx(1.0)
    cfg = ChannelConfig(ebn0_db=3.0, rate=0.5)
    assert cfg.noise_var == pytest.approx(1.0 / 10 ** 0.3)
    for ebn0 in (float("nan"), float("inf"), float("-inf"), 1e6, -1e6):
        with pytest.raises(ValueError, match="SNR"):
            ChannelConfig(ebn0, 0.5)


def test_llr_scaling_statistics():
    # all-zero codeword sends +1; LLR mean should sit at 2/var
    cfg = ChannelConfig(ebn0_db=2.0, rate=0.5, seed=7)
    n = 100_000
    bits = np.zeros((1, n), dtype=np.uint8)
    rng = np.random.default_rng(7)
    llr = awgn_llr(bits, cfg, noise=rng.standard_normal((1, n)))
    mean = 2.0 / cfg.noise_var
    sd = 2.0 / np.sqrt(cfg.noise_var)  # per-sample LLR std
    assert abs(llr.mean() - mean) < 3 * sd / np.sqrt(n)


def whole_array_awgn_llr(codeword, cfg, noise):
    """The channel expression on whole arrays, as one line of numpy."""
    symbols = 1.0 - 2.0 * np.asarray(codeword, dtype=np.uint8).astype(np.float64)
    return 2.0 * (symbols + np.sqrt(cfg.noise_var) * np.asarray(noise)) / cfg.noise_var


@pytest.mark.parametrize("batch", [0, 1, 63, 64, 65, 2100])
def test_awgn_llr_blocks_are_byte_identical(rng, batch):
    cfg = ChannelConfig(2.5, 870 / 1024, seed=0)
    bits = rng.integers(0, 2, size=(batch, 1024), dtype=np.uint8)
    noise = rng.standard_normal((batch, 1024))
    noise[:, :4] = [np.inf, -np.inf, 1e308, -1e300]
    with np.errstate(over="ignore"):
        pairs = [(bits, noise)]
        if batch:  # a nested list, and one frame as a 1-D vector
            pairs += [(bits[:2].tolist(), noise[:2]), (bits[-1], noise[-1])]
        for cw, nz in pairs:
            nz = nz.copy()
            want = whole_array_awgn_llr(cw, cfg, nz)
            got = awgn_llr(cw, cfg, noise=nz)
            assert got is nz  # the LLRs are written over the noise
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        for nz in (noise.astype(np.float32), noise[:, :512], noise.tolist()):
            with pytest.raises(ValueError, match="float64"):
                awgn_llr(bits, cfg, noise=nz)


def test_trial_stats_rates_and_merge():
    a = TrialStats(100, 30, 10, info_bits_per_frame=50)
    b = TrialStats(50, 10, 5, info_bits_per_frame=50)
    assert a.ber == pytest.approx(30 / 5000)
    assert a.fer == pytest.approx(0.1)
    m = a.merge(b)
    assert (m.frames, m.bit_errors, m.frame_errors) == (150, 40, 15)
    empty = TrialStats()
    assert empty.ber == 0.0 and empty.fer == 0.0
    assert (empty.merge(a).merge(b).frames == a.merge(b.merge(empty)).frames)
    with pytest.raises(ValueError):
        a.merge(TrialStats(1, 0, 0, info_bits_per_frame=9))


def test_draw_is_per_frame_deterministic():
    cfg = ChannelConfig(2.0, 0.5, seed=42)
    m1, n1 = draw_messages_and_noise(cfg, 8, 16, first_frame=0, count=10)
    m2, n2 = draw_messages_and_noise(cfg, 8, 16, first_frame=5, count=5)
    assert (m1[5:] == m2).all()
    assert (n1[5:] == n2).all()


def test_block_draw_is_partition_free():
    # frames 63|64 and 640..703 straddle block edges
    cfg = ChannelConfig(2.0, 0.5, seed=42)
    m, n = draw_messages_and_noise(cfg, 8, 16, first_frame=0, count=200)
    for first, count in [(63, 2), (1, 199)]:
        part_m, part_n = draw_messages_and_noise(cfg, 8, 16, first, count)
        assert (part_m == m[first:first + count]).all()
        assert (part_n == n[first:first + count]).all()
    m, n = draw_messages_and_noise(cfg, 8, 16, first_frame=0, count=2100)
    parts = [draw_messages_and_noise(cfg, 8, 16, lo, 700) for lo in (0, 700, 1400)]
    assert (np.concatenate([p[0] for p in parts]) == m).all()
    assert (np.concatenate([p[1] for p in parts]) == n).all()


def test_draw_golden_values():
    # pins the stream: frame 0 opens block 0 and frame 64 opens block 1
    cfg = ChannelConfig(2.0, 0.5, seed=0)
    m, n = draw_messages_and_noise(cfg, 8, 16, first_frame=0, count=65)
    assert m[0].tolist() == [1, 1, 1, 0, 0, 1, 1, 0]
    assert m[64].tolist() == [0, 1, 1, 1, 1, 1, 0, 1]
    assert n[0, :4] == pytest.approx(
        [-0.1459393950357257, 0.0679170675642295, -0.09398274575168718, 1.5718567223945916],
        rel=1e-12)
    assert n[64, :4] == pytest.approx(
        [0.2862208112773351, -1.6625176151701733, -1.7273213912853327, -0.5386785182589856],
        rel=1e-12)


def test_seed_range_is_checked():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            ChannelConfig(2.0, 0.5, seed=seed)
    with pytest.raises(TypeError):
        ChannelConfig(2.0, 0.5, seed=1.5)


def test_large_seeds_draw_distinct_frames():
    # a list key once turned 2**63 + 1 and 2**63 + 2 into the same float64
    _, a = draw_messages_and_noise(ChannelConfig(2.0, 0.5, seed=2**63 + 1), 8, 16, 0, 4)
    _, b = draw_messages_and_noise(ChannelConfig(2.0, 0.5, seed=2**63 + 2), 8, 16, 0, 4)
    assert (a != b).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draw_messages_and_noise(ChannelConfig(2.0, 0.5, seed=2**64 - 1), 8, 16, 0, 4)


def test_high_snr_decodes_clean():
    code = construct_code(64, 32, 2.0)
    stats = run_point(code, ChannelConfig(40.0, code.rate, seed=1), stop=StopRule(10, 500), batch=100)
    assert stats.frames >= 500 or stats.frame_errors >= 10
    assert stats.frame_errors == 0


def test_run_point_deterministic_across_batch_size():
    code = construct_code(32, 16, 2.0)
    cfg = ChannelConfig(1.0, code.rate, seed=3)
    stop = StopRule(min_frame_errors=10**9, max_frames=600)
    a = run_point(code, cfg, stop=stop, batch=600)
    b = run_point(code, cfg, stop=stop, batch=64)
    assert (a.frames, a.bit_errors, a.frame_errors) == (b.frames, b.bit_errors, b.frame_errors)


def test_run_point_deterministic_across_workers():
    code = construct_code(32, 16, 2.0)
    cfg = ChannelConfig(1.0, code.rate, seed=3)
    stop = StopRule(min_frame_errors=10**9, max_frames=512)
    a = run_point(code, cfg, stop=stop, batch=128, workers=1)
    b = run_point(code, cfg, stop=stop, batch=128, workers=4)
    assert (a.frames, a.bit_errors, a.frame_errors) == (b.frames, b.bit_errors, b.frame_errors)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_run_point_runs_in_a_forked_child():
    # the parent's pool is reused by later calls; a child holds a copy of it
    # with no threads, so it must get one of its own, not wait on that copy
    code = construct_code(32, 16, 2.0)
    point = dict(stop=StopRule(10**9, 256), batch=64)
    want = run_point(code, ChannelConfig(1.0, code.rate, seed=3), **point)
    pid = os.fork()
    if pid == 0:  # the child leaves through os._exit, whatever happens
        status = 1
        try:
            signal.alarm(60)
            status = int(run_point(code, ChannelConfig(1.0, code.rate, seed=3), **point) != want)
        finally:
            os._exit(status)
    assert os.waitpid(pid, 0)[1] == 0


@pytest.mark.parametrize("batch", [0, -1])
def test_run_point_rejects_empty_batch(batch):
    code = construct_code(16, 8, 2.0)
    with pytest.raises(ValueError, match="batch"):
        run_point(code, ChannelConfig(1.0, code.rate), stop=StopRule(1, 10), batch=batch)


def test_different_seeds_differ():
    code = construct_code(32, 16, 2.0)
    m1, n1 = draw_messages_and_noise(ChannelConfig(1.0, code.rate, seed=1), code.K, code.N, 0, 300)
    m2, n2 = draw_messages_and_noise(ChannelConfig(1.0, code.rate, seed=2), code.K, code.N, 0, 300)
    assert (m1 != m2).any()
    assert (n1 != n2).any(axis=1).all()


def test_decoders_agree_on_error_counts():
    # quantized fast decode and the datapath model count identical errors
    code = construct_code(16, 8, 2.0)
    cfg = ChannelConfig(2.0, code.rate, seed=5)
    stop = StopRule(10**9, 400)
    q = QuantSpec(4, 5, 0)
    a = run_point(code, cfg, decoder="fast_ssc", quant=q, tie_mode="hardware", stop=stop)
    b = run_point(code, cfg, decoder="hw", quant=q, stop=stop)
    assert (a.bit_errors, a.frame_errors) == (b.bit_errors, b.frame_errors)
    with pytest.raises(ValueError, match="unknown decoder"):
        make_decoder(code, "fast-ssc", q, "exact")


@settings(max_examples=60)
@given(n=st.integers(1, 8), k=st.sampled_from(["one", "all", "random"]),
       raw=st.booleans(), seed=st.integers(0, 2**32 - 1),
       decoder=st.sampled_from([("sc", "exact"), ("fast_ssc", "exact"),
                                ("fast_ssc", "hardware"), ("hw", "hardware")]))
def test_decoders_return_codewords_so_chunks_count_on_them(n, k, raw, seed, decoder):
    # _run_chunk calls a frame bad when x_hat differs from the sent codeword;
    # that matches the message-bit count only while u_hat is 0 on the frozen
    # positions and x_hat is its transform
    rng = np.random.default_rng(seed)
    N = 1 << n
    code = random_code(N, rng, {"one": 1, "all": N}.get(k))
    name, tie_mode = decoder
    spec = QuantSpec(4, 5, 0) if raw else None  # hw quantizes floats with its default spec
    decode = make_decoder(code, name, spec, tie_mode)
    _, llr = (noisy_int_llr if raw else noisy_float_llr)(code, rng, 24)
    res = decode(llr)
    assert not res.u_hat[:, code.frozen].any()
    assert (res.x_hat == polar_transform(res.u_hat)).all()

    cfg = ChannelConfig(float(rng.uniform(-1.0, 3.0)), code.rate, seed)
    first = int(rng.integers(0, 200))
    msgs, noise = draw_messages_and_noise(cfg, code.K, N, first, 40)
    errs = decode(awgn_llr(encode(code, msgs), cfg, noise)).u_hat[:, code.info_indices] != msgs
    got = _run_chunk(code, decode, cfg, first, 40)
    assert (got.frames, got.bit_errors, got.frame_errors) == (
        40, int(errs.sum()), int(errs.any(axis=1).sum()))


# (frames, bit_errors, frame_errors) as the harness counted them on u_hat's
# message bits, before it counted frame errors on the codeword
@pytest.mark.parametrize("k, ebn0, decoder, quant, frames, batch, workers, want", [
    (512, 1.5, "fast_ssc", None, 2000, 1000, 1, (2000, 85822, 639)),
    (512, 2.0, "fast_ssc", None, 2000, 1000, 1, (2000, 17234, 162)),
    (870, 3.0, "fast_ssc", "4,5,0", 2000, 1000, 1, (2000, 393329, 1477)),
    (512, 2.0, "hw", "4,5,0", 500, 500, 1, (500, 5928, 51)),
    # 700 + 700 + a partial chunk of 100
    (512, 1.5, "fast_ssc", None, 1500, 700, 1, (1500, 63832, 481)),
    (512, 1.5, "fast_ssc", None, 1500, 700, 2, (1500, 63832, 481)),
])
def test_run_point_golden_error_counts(k, ebn0, decoder, quant, frames, batch, workers, want):
    code = construct_code(1024, k, 2.0)
    stats = run_point(code, ChannelConfig(ebn0, code.rate, seed=11), decoder=decoder,
                      quant=QuantSpec.from_string(quant) if quant else None,
                      stop=StopRule(10**9, frames), batch=batch, workers=workers)
    assert (stats.frames, stats.bit_errors, stats.frame_errors) == want


def test_stop_rule_halts_on_frame_errors():
    code = construct_code(64, 32, 2.0)
    # 0 dB is noisy enough that errors come quickly
    stats = run_point(code, ChannelConfig(0.0, code.rate, seed=9), stop=StopRule(5, 10**6), batch=50)
    assert stats.frame_errors >= 5
    assert stats.frames < 10**6


def test_sweep_default_seed_is_zero():
    code = construct_code(64, 32, 2.0)
    point = dict(stop=StopRule(10**9, 300), batch=300)

    [(_, swept)] = run_ber_sweep(code, [1.0], **point)
    seeded = [run_point(code, ChannelConfig(1.0, code.rate, seed), **point) for seed in (0, 1)]
    assert swept == seeded[0] != seeded[1]


def test_sweep_shapes_and_monotone_trend():
    code = construct_code(64, 32, 2.0)
    rows = run_ber_sweep(code, [0.0, 6.0], stop=StopRule(20, 3000), seed=11, batch=500)
    assert [r[0] for r in rows] == [0.0, 6.0]
    assert rows[0][1].fer > rows[1][1].fer


def test_throughput_values():
    assert throughput_gbps(870, 156, 1.04) == pytest.approx(5.8, abs=0.01)
    assert throughput_gbps(512, 266, 1.04) == pytest.approx(2.0018, abs=0.001)
    with pytest.raises(ValueError):
        throughput_gbps(10, 0, 1.0)


def test_csv_format():
    rows = [(2.0, TrialStats(1000, 25, 7, info_bits_per_frame=512))]
    text = stats_csv_text(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "ebn0_db,frames,bit_errors,frame_errors,ber,fer"
    fields = lines[1].split(",")
    assert fields[0] == "2.0"
    assert fields[1:4] == ["1000", "25", "7"]
    assert float(fields[4]) == pytest.approx(25 / 512000)
    assert float(fields[5]) == pytest.approx(0.007)


def test_resolve_workers_env(monkeypatch):
    # resolve_workers only computes a count; no pool is started here
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(10**6) == 8
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert resolve_workers(4) == 1


@pytest.mark.parametrize("decoder", ["sc", "fast_ssc", "hw"])
def test_every_decoder_rejects_unknown_tie_mode(decoder):
    # the binding checks the mode with fast_ssc_decode's set and message
    code = construct_code(16, 8, 2.0)
    with pytest.raises(ValueError, match="unknown tie_mode 'bogus'"):
        make_decoder(code, decoder, None, "bogus")
    with pytest.raises(ValueError, match="unknown tie_mode 'bogus'"):
        run_point(code, ChannelConfig(2.0, code.rate), decoder=decoder, tie_mode="bogus",
                  stop=StopRule(1, 64))


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_counts_below_one_are_rejected(workers):
    # the count is checked before any frame is drawn or any pool is started
    code = construct_code(16, 8, 2.0)
    with pytest.raises(ValueError, match="workers"):
        resolve_workers(workers)
    with pytest.raises(ValueError, match="workers"):
        run_point(code, ChannelConfig(2.0, code.rate), workers=workers)
