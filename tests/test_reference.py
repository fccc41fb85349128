import numpy as np
import pytest

from fastssc import (
    PolarCode,
    PuTree,
    QuantSpec,
    combine_beta,
    construct_code,
    encode,
    f_min_sum,
    fast_ssc_decode,
    g_function,
    hard_decision,
    hw_decode_frame,
    sc_decode,
    sc_latency_cycles,
    two_bit_precomputed_cycles,
)
from fastssc.reference import prepare_llr
from conftest import noisy_float_llr, noisy_int_llr, random_code
from oracles import scalar_sc_decode


def test_f_min_sum_values():
    a = np.array([3.0, -3.0, 3.0, -3.0, 0.0, 0.0])
    b = np.array([2.0, 2.0, -2.0, -2.0, -5.0, 5.0])
    out = f_min_sum(a, b)
    assert out.tolist() == [2.0, -2.0, -2.0, 2.0, 0.0, 0.0]


def test_g_function_values():
    beta = np.array([0, 1], dtype=np.uint8)
    near = np.array([2.0, 2.0])
    far = np.array([3.0, 3.0])
    assert g_function(beta, near, far).tolist() == [5.0, -1.0]


def test_g_function_saturates_when_quantized():
    spec = QuantSpec(4, 5, 0)
    out = g_function(np.array([0]), np.array([14]), np.array([14]), spec)
    assert out.tolist() == [15]


def test_hard_decision_zero_is_zero():
    assert hard_decision(np.array([0.0, -0.0, 1e-9, -1e-9])).tolist() == [0, 0, 0, 1]


def test_combine_beta():
    left = np.array([[0, 1]], dtype=np.uint8)
    right = np.array([[1, 1]], dtype=np.uint8)
    assert combine_beta(left, right).tolist() == [[1, 0, 1, 1]]
    with pytest.raises(ValueError):
        combine_beta(np.zeros((1, 2), np.uint8), np.zeros((1, 4), np.uint8))


def test_sc_decode_hand_worked_n4():
    # alpha [1,-2,3,-4], frozen first two positions: the left subtree decodes
    # (0,0); g feedback gives [4,-6] so the right subtree decodes (1,1).
    code = PolarCode.from_frozen_mask(np.array([True, True, False, False]))
    res = sc_decode(code, np.array([1.0, -2.0, 3.0, -4.0]))
    assert res.u_hat.tolist() == [0, 0, 1, 1]
    assert res.x_hat.tolist() == [0, 1, 0, 1]


def test_sc_decode_matches_scalar_oracle(rng):
    for N in (2, 4, 8, 16, 32, 64):
        for _ in range(6):
            code = random_code(N, rng)
            _, llr = noisy_float_llr(code, rng, frames=5)
            res = sc_decode(code, llr)
            for row, frame in zip(res.u_hat, llr):
                u, x = scalar_sc_decode(code.frozen, frame)
                assert row.tolist() == u


def test_sc_decode_quantized_matches_scalar_oracle(rng):
    spec = QuantSpec(4, 5, 0)
    for N in (4, 8, 16, 32):
        for _ in range(6):
            code = random_code(N, rng)
            _, llr = noisy_int_llr(code, rng, frames=8)
            res = sc_decode(code, llr, spec)
            for row, frame in zip(res.u_hat, llr):
                u, _ = scalar_sc_decode(code.frozen, frame, internal_limit=spec.internal_limit)
                assert row.tolist() == u


def test_sc_decode_recovers_noiseless(rng):
    for N in (2, 8, 64, 256):
        code = random_code(N, rng)
        msgs = rng.integers(0, 2, size=(20, code.K)).astype(np.uint8)
        llr = (1.0 - 2.0 * encode(code, msgs)) * 8.0
        res = sc_decode(code, llr)
        assert (res.u_hat[:, code.info_indices] == msgs).all()
        assert (res.x_hat == encode(code, msgs)).all()


def test_sc_decode_x_is_transform_of_u(rng):
    from fastssc import polar_transform

    code = random_code(32, rng)
    _, llr = noisy_float_llr(code, rng, frames=50)
    res = sc_decode(code, llr)
    assert (res.x_hat == polar_transform(res.u_hat)).all()
    assert (res.u_hat[:, code.frozen] == 0).all()


def test_sc_decode_wide_integers_match_float(rng):
    # With enough internal headroom nothing saturates, so fixed point on
    # integer inputs is the float decode on the same integers.
    spec = QuantSpec(6, 40, 0)
    code = random_code(64, rng)
    _, llr = noisy_int_llr(code, rng, frames=200)
    llr = np.clip(llr, -31, 31)
    a = sc_decode(code, llr, spec)
    b = sc_decode(code, llr.astype(np.float64))
    assert (a.u_hat == b.u_hat).all()


def test_sc_decode_rejects_bad_frame_length():
    code = construct_code(8, 4, 2.0)
    with pytest.raises(ValueError):
        sc_decode(code, np.zeros(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decoders_reject_non_finite_float_llrs(bad):
    code = construct_code(16, 8, 2.0)
    llr = np.full(16, 2.0)
    llr[5] = bad
    with pytest.raises(ValueError, match="finite"):
        prepare_llr(llr, 16)
    with pytest.raises(ValueError, match="finite"):
        sc_decode(code, np.stack([np.full(16, 2.0), llr]))


def test_float_llrs_beyond_max_over_n_are_rejected_by_every_decoder():
    # A sum inside the pruned walk overflowed to inf on this frame, and the
    # exact-mode re-decode then sent the inf back through prepare_llr.
    code = construct_code(16, 8, 2.0)
    frame = np.full(16, 1e308)
    frame[0] = -1e308
    for decode in (sc_decode, fast_ssc_decode,
                   lambda code, llr: fast_ssc_decode(code, llr, tie_mode="hardware")):
        with pytest.raises(ValueError, match=r"finite with \|llr\| <= float64 max / N"):
            decode(code, frame)


@pytest.mark.parametrize("llr", [
    np.full(16, 1.5 - 2j), np.full(16, "1.5"), np.full(16, b"-2"), np.full(16, True),
    np.full(16, np.datetime64(3, "s")), np.full(16, np.timedelta64(3, "s")),
    np.full(16, 2.0, dtype=object),
], ids=["complex", "str", "bytes", "bool", "datetime64", "timedelta64", "object"])
def test_decoders_reject_llrs_that_are_not_real_numbers(llr):
    # A cast to float or to words would decode each of these silently.
    code = construct_code(16, 8, 2.0)
    spec = QuantSpec(4, 5, 0)
    for decode in (lambda x: sc_decode(code, x), lambda x: sc_decode(code, x, spec),
                   lambda x: fast_ssc_decode(code, x),
                   lambda x: fast_ssc_decode(code, x, spec),
                   lambda x: hw_decode_frame(PuTree(16), code, x)):
        with pytest.raises(ValueError, match="real numbers"):
            decode(llr)


def test_float_llrs_up_to_max_over_n_decode_like_plain_sc(rng):
    # No sum of at most N values of magnitude <= max / N overflows.
    N = 64
    bound = np.finfo(np.float64).max / N
    for _ in range(20):
        code = random_code(N, rng)
        llr = bound * rng.choice([-1.0, 1.0], size=(40, N)) * rng.choice([1.0, 0.5, 0.25], size=(40, N))
        llr[:5] = np.nextafter(bound, 0) * np.sign(llr[:5])
        with np.errstate(over="raise", invalid="raise"):
            ref = sc_decode(code, llr)
            got = fast_ssc_decode(code, llr)
        assert (got.u_hat == ref.u_hat).all() and (got.x_hat == ref.x_hat).all()


@pytest.mark.parametrize("bits,dtype", [(2, np.int8), (7, np.int8), (8, np.int16),
                                        (15, np.int16), (16, np.int32), (31, np.int32),
                                        (32, np.int64), (63, np.int64)])
def test_prepare_llr_returns_word_dtype(bits, dtype):
    spec = QuantSpec(2, bits, 0)
    # C = 2 quantizes floats to {-1, 0, 1}; integers are taken as raw words
    for llr, want in ((np.array([0.4, -3.0, 1.0, 0.0]), [0, -1, 1, 0]),
                      (np.array([1, -1, 0, 1], dtype=np.int64), [1, -1, 0, 1])):
        arr, _ = prepare_llr(llr, 4, spec)
        assert arr.dtype == dtype
        assert arr.tolist() == [want]
    assert prepare_llr(np.array([1, -1, 0, 1]), 4)[0].dtype == np.float64


def test_sc_decode_validates_quantized_inputs():
    code = construct_code(8, 4, 2.0)
    with pytest.raises(ValueError):
        sc_decode(code, np.full(8, 99, dtype=np.int64), QuantSpec(4, 5, 0))


def test_latency_baselines():
    code = construct_code(16, 8, 2.0)
    assert sc_latency_cycles(code, "conventional") == 30
    assert sc_latency_cycles(code, "precomputed") == 15
    assert two_bit_precomputed_cycles(1024) == 767
    with pytest.raises(ValueError):
        sc_latency_cycles(code, "nonsense")
