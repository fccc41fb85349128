import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastssc import (
    PolarCode,
    PuTree,
    QuantSpec,
    construct_code,
    encode,
    fast_ssc_decode,
    frozen_file_text,
    polar_transform,
    read_frozen_file,
    write_frozen_file,
)
from fastssc import core
from conftest import DATA_DIR, random_code
from oracles import bhattacharyya_frozen, dense_transform, generator_matrix


def test_transform_matches_dense_generator(rng):
    # past 64 the packed transform runs its word-block stages as well
    for n in range(12):
        N = 1 << n
        bits = rng.integers(0, 2, size=(8, N)).astype(np.uint8)
        assert (polar_transform(bits) == dense_transform(bits)).all(), N


@pytest.mark.parametrize("N", [1, 8, 64, 256])
def test_transform_keeps_shape_and_takes_any_bit_layout(rng, N):
    bits = rng.integers(0, 2, size=(6, N)).astype(np.uint8)
    want = dense_transform(bits).astype(np.uint8)
    for shaped, expect in [(bits[0], want[0]), (bits, want),
                           (bits.reshape(2, 3, N), want.reshape(2, 3, N)),
                           (bits[:0], want[:0]),
                           # a transposed view: not contiguous along the last axis
                           (np.ascontiguousarray(bits.T).T, want),
                           (bits.astype(bool), want), (bits.astype(np.int64), want)]:
        out = polar_transform(shaped)
        assert out.dtype == np.uint8 and out.shape == expect.shape
        assert (out == expect).all()


def test_transform_single_frame_shape(rng):
    bits = rng.integers(0, 2, size=16).astype(np.uint8)
    out = polar_transform(bits)
    assert out.shape == (16,)
    assert (out == dense_transform(bits)[0]).all()


@settings(max_examples=60)
@given(st.integers(0, 6), st.integers(0, 2**30))
def test_transform_is_an_involution(n, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(3, 1 << n)).astype(np.uint8)
    assert (polar_transform(polar_transform(bits)) == bits).all()


def test_transform_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        polar_transform(np.zeros(6, dtype=np.uint8))


def test_encode_hand_worked_n4():
    # u = [0,0,1,1]: x0 = u0^u1^u2^u3 = 0, x1 = u1^u3 = 0^1... worked out
    # against the dense matrix: [0,1,0,1].
    code = PolarCode.from_frozen_mask(np.array([True, True, False, False]))
    x = encode(code, np.array([1, 1], dtype=np.uint8))
    assert x.tolist() == [0, 1, 0, 1]


def test_encode_zero_message_gives_zero_codeword():
    code = PolarCode.from_frozen_mask(np.array([True] * 7 + [False]))
    x = encode(code, np.zeros((3, 1), dtype=np.uint8))
    assert not x.any()


@pytest.mark.parametrize("N", [1, 2, 16, 64, 128, 512])
def test_encode_matches_generator_matrix(rng, N):
    G = generator_matrix(N).astype(np.int64)
    for K in sorted({1, N, int(rng.integers(1, N + 1))}):
        code = random_code(N, rng, K)
        msgs = rng.integers(0, 2, size=(5, K)).astype(np.uint8)
        u = np.zeros((5, N), dtype=np.int64)
        u[:, code.info_indices] = msgs
        want = (u @ G) % 2
        assert (encode(code, msgs) == want).all()
        assert (encode(code, msgs[0]) == want[0]).all()


def test_encode_is_linear(rng):
    code = construct_code(64, 30, 2.0)
    a = rng.integers(0, 2, size=(10, 30)).astype(np.uint8)
    b = rng.integers(0, 2, size=(10, 30)).astype(np.uint8)
    assert (encode(code, a ^ b) == (encode(code, a) ^ encode(code, b))).all()


def test_code_validation():
    with pytest.raises(ValueError, match="power of 2"):
        construct_code(24, 12, 2.0)
    with pytest.raises(ValueError):
        construct_code(16, 0, 2.0)
    with pytest.raises(ValueError):
        construct_code(16, 17, 2.0)
    with pytest.raises(ValueError):
        PolarCode(N=8, K=3, frozen=np.ones(8, dtype=bool), construction=None)
    with pytest.raises(ValueError, match="frozen mask length must equal N"):
        PolarCode(8, 4, np.arange(4) < 2)
    with pytest.raises(ValueError, match="unknown construction method 'rm'"):
        construct_code(16, 8, 2.0, method="rm")
    with pytest.raises(ValueError, match="message length must be K=8, got 7"):
        encode(construct_code(16, 8, 2.0), np.zeros(7))
    for method in ("ga", "bhattacharyya"):
        for snr in (float("nan"), float("inf"), float("-inf"), 1e6, -1e6):
            with pytest.raises(ValueError, match="SNR"):
                construct_code(16, 8, snr, method=method)


def test_frozen_mask_is_a_read_only_copy(rng):
    for make in (lambda m: PolarCode(16, 8, m), PolarCode.from_frozen_mask):
        mask = np.tile([True, False], 8)
        code = make(mask)
        mask[:2] = [False, True]
        assert code.frozen[:2].tolist() == [True, False]
    # decoding caches the classified tree, so the mask must not change under it
    code = construct_code(16, 8, 2.0)
    fast_ssc_decode(code, rng.normal(size=(4, 16)))
    with pytest.raises(ValueError):
        code.frozen[:] = np.tile([True, False], 8)
    # nor can a field be replaced
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.frozen = np.tile([True, False], 8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.K = 7


def test_two_bit_code_freezes_the_weak_position():
    code = construct_code(2, 1, 0.0)
    assert code.frozen.tolist() == [True, False]


def test_bhattacharyya_hand_worked_n4():
    # z0 = exp(-0.5) at rate 1/2, 0 dB; one recursion step by hand puts the
    # two worst synthetic channels at indices 0 and 1.
    code = construct_code(4, 2, 0.0, method="bhattacharyya")
    assert code.frozen.tolist() == [True, True, False, False]


@pytest.mark.parametrize("N, K, snr", [(1024, 512, 2.0), (1024, 870, 2.0), (256, 100, 0.5)])
def test_bhattacharyya_matches_the_recursion(N, K, snr):
    code = construct_code(N, K, snr, method="bhattacharyya")
    assert (code.frozen == bhattacharyya_frozen(N, K, snr)).all()


def test_construction_is_deterministic():
    a = construct_code(256, 128, 1.5)
    b = construct_code(256, 128, 1.5)
    assert (a.frozen == b.frozen).all()


def test_construction_nested_in_k():
    # The same reliability order serves every rate, so frozen sets nest.
    big = construct_code(128, 100, 2.0)
    small = construct_code(128, 40, 2.0)
    assert (big.frozen & ~small.frozen).sum() == 0


def test_golden_frozen_set_1024_512():
    golden = read_frozen_file(DATA_DIR / "frozen_1024_512_ga2.0.txt")
    built = construct_code(1024, 512, 2.0)
    assert (golden.frozen == built.frozen).all()


def test_info_positions_more_reliable_than_frozen():
    # In any sensible construction the all-ones upper index is informational
    # and index 0 is frozen, for rates away from the extremes.
    for method in ("ga", "bhattacharyya"):
        code = construct_code(64, 32, 2.0, method=method)
        assert code.frozen[0]
        assert not code.frozen[63]


def test_frozen_file_roundtrip(tmp_path, rng):
    code = construct_code(64, 20, 3.0)
    path = tmp_path / "code.txt"
    write_frozen_file(path, code)
    back = read_frozen_file(path)
    assert back.N == 64 and back.K == 20
    assert (back.frozen == code.frozen).all()
    assert frozen_file_text(code).splitlines()[0] == "64 20"


MALFORMED_FILES = [  # (text, a piece of its error message)
    ("8 4\n0 1 2\n", "expected 4 frozen indices, found 3"),
    ("8 4\n0 1 2 9\n", "frozen index out of range"),
    ("8 4\n0 1 2 2\n", "duplicate frozen index"),
    ("6 3\n0 1 2\n", "power of 2"),
    ("4 2\n0 1\n0 2\n", "at most two non-empty lines"),
    ("", "empty frozen-set file"),
]


@pytest.mark.parametrize("text, message", MALFORMED_FILES,
                         ids=[text or "empty" for text, _ in MALFORMED_FILES])
def test_frozen_file_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_frozen_file(path)


def test_frozen_file_header_error_quotes_line_one(tmp_path):
    path = tmp_path / "bad.txt"
    for head in ("8", "8 4 1"):
        path.write_text(f"{head}\n0 1 2 3\n")
        with pytest.raises(ValueError, match=re.escape(f"first line must be 'N K', got {head!r}")):
            read_frozen_file(path)


def test_frozen_file_caps_n_before_allocating(tmp_path):
    # K = N needs no index line; the cap must fire before the 2**21 mask exists
    path = tmp_path / "big.txt"
    path.write_text("2097152 2097152\n")
    with pytest.raises(ValueError, match="cap"):
        read_frozen_file(path)


def test_constructors_cap_n_first(monkeypatch):
    def no_recursion(*args):
        raise AssertionError("the reliability recursion ran")

    monkeypatch.setattr(core, "_ga_means", no_recursion)
    monkeypatch.setattr(core, "_bhattacharyya_params", no_recursion)
    for method in ("ga", "bhattacharyya"):
        with pytest.raises(ValueError, match="cap"):
            construct_code(2 * core.MAX_N, 1, 2.0, method=method)
    with pytest.raises(ValueError, match="cap"):
        PolarCode(2 * core.MAX_N, 1, np.zeros(1, dtype=bool))
    with pytest.raises(ValueError, match="cap"):
        PuTree(2 * core.MAX_N)


def test_sizes_and_widths_are_integers():
    mask = np.arange(16) < 8
    with pytest.raises(TypeError):
        PolarCode(16, 8.0, mask)
    with pytest.raises(TypeError):
        QuantSpec(4.5, 5, 0)
    assert PolarCode(np.int64(16), np.int64(8), mask).K == 8
    assert str(QuantSpec(np.int64(4), np.int64(5), np.int64(0))) == "4,5,0"


def test_rate_and_index_properties():
    code = construct_code(32, 8, 2.0)
    assert code.n == 5
    assert code.rate == 0.25
    assert len(code.info_indices) == 8
    assert len(code.frozen_indices) == 24
    assert not (set(code.info_indices) & set(code.frozen_indices))
