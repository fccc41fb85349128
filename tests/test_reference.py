import ast
from pathlib import Path

import numpy as np
import pytest

import fastssc.reference
from fastssc import (
    PolarCode,
    PuTree,
    QuantSpec,
    construct_code,
    encode,
    fast_ssc_decode,
    hw_decode_frame,
    quantize_channel,
    sc_decode,
)
from fastssc.reference import prepare_llr
from conftest import noisy_float_llr, noisy_int_llr, random_code
from oracles import scalar_sc_decode


def test_oracle_imports_nothing_from_the_pruned_decoders():
    # Acceptance 1 compares two implementations; an oracle built on the
    # plan's kernels would compare the plan with itself.
    tree = ast.parse(Path(fastssc.reference.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "fastssc" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert imported, "the parse found no imports at all"
    assert not {m for m in imported if m.split(".")[:2] in (["fastssc", "fast"], ["fastssc", "hw"])}


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
    lim = spec.internal_limit
    for N in (4, 8, 16, 32):
        for _ in range(6):
            code = random_code(N, rng)
            _, llr = noisy_int_llr(code, rng, frames=8)
            # and as many frames with words at +-limit, on which g saturates
            loud = rng.random(llr.shape) < 0.3
            llr = np.vstack([llr, np.where(loud, np.where(llr < 0, -lim, lim), llr)])
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
    for decode in (sc_decode, fast_ssc_decode,
                   lambda code, llr: hw_decode_frame(PuTree(8), code, llr)):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            decode(code, np.zeros((2, 1, 8)))


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
                   lambda x: hw_decode_frame(PuTree(16), code, x),
                   lambda x: quantize_channel(x, spec)):
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
        assert arr.T.tolist() == [want]
    assert prepare_llr(np.array([1, -1, 0, 1]), 4)[0].dtype == np.float64
    # Every decoder works on C-contiguous (N, batch) columns, and a single
    # frame comes back as one.
    for llr, batch, single in ((np.array([0.4, -3.0, 1.0, 0.0]), 1, True),
                               (np.zeros((0, 4)), 0, False),
                               (np.arange(12.0).reshape(3, 4)[:, ::-1], 3, False)):
        for arr, got_single in (prepare_llr(llr, 4), prepare_llr(llr, 4, spec)):
            assert arr.shape == (4, batch) and arr.flags.c_contiguous
            assert got_single is single
    code = construct_code(4, 2, 2.0)
    for decode in (sc_decode, fast_ssc_decode):
        out = decode(code, np.array([0.4, -3.0, 1.0, 0.0]), spec)
        assert out.u_hat.shape == out.x_hat.shape == (4,)


def test_prepare_llr_takes_a_block_already_in_column_layout_as_is(rng):
    # sim.channel_frames returns the transpose of (N, batch) columns; the
    # decoders take it without a copy, after the same checks, and leave it
    # as it was.
    code = random_code(64, rng)
    spec = QuantSpec(4, 5, 0)
    floats = noisy_float_llr(code, rng, 40)[1].copy(order="F")
    words = noisy_int_llr(code, rng, 40)[1].astype(spec.word_dtype, order="F")
    for llr, s in ((floats, None), (words, spec)):
        cols, single = prepare_llr(llr, 64, s)
        assert np.shares_memory(cols, llr) and cols.flags.c_contiguous and not single
        assert (cols == llr.T).all()
        before = llr.copy()
        for decode in (sc_decode, fast_ssc_decode,
                       lambda code, x, s: fast_ssc_decode(code, x, s, tie_mode="hardware")):
            decode(code, llr, s)
            assert llr.tobytes() == before.tobytes()
        hw_decode_frame(PuTree(64, s), code, llr)
        assert llr.tobytes() == before.tobytes()
    for bad, match in ((np.nan, "finite"), (np.inf, "finite"), (1e308, "finite")):
        llr = floats.copy(order="F")
        llr[3, 7] = bad
        with pytest.raises(ValueError, match=match):
            prepare_llr(llr, 64)
    llr = words.copy(order="F")
    llr[3, 7] = spec.internal_limit + 1
    with pytest.raises(ValueError, match="outside"):
        prepare_llr(llr, 64, spec)


def test_sc_decode_validates_quantized_inputs():
    code = construct_code(8, 4, 2.0)
    with pytest.raises(ValueError):
        sc_decode(code, np.full(8, 99, dtype=np.int64), QuantSpec(4, 5, 0))
