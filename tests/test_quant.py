import numpy as np
import pytest
from hypothesis import given, strategies as st

from fastssc import QuantSpec, dequantize, quantize_channel, validate_quantized
from fastssc.quant import sat_add
from fastssc.reference import prepare_llr


def test_spec_string_roundtrip():
    spec = QuantSpec.from_string("4,5,0")
    assert (spec.channel_bits, spec.internal_bits, spec.fraction_bits) == (4, 5, 0)
    assert str(spec) == "4,5,0"
    assert QuantSpec.from_string(" 4 , 6 , 1 ") == QuantSpec(4, 6, 1)


def test_spec_limits():
    spec = QuantSpec(4, 5, 0)
    assert spec.channel_limit == 7
    assert spec.internal_limit == 15
    assert spec.scale == 1
    assert QuantSpec(4, 6, 1).scale == 2


@pytest.mark.parametrize("bad", ["4,5", "a,b,c", "", "4;5;0"])
def test_spec_string_rejects_garbage(bad):
    with pytest.raises(ValueError):
        QuantSpec.from_string(bad)


@pytest.mark.parametrize("c,l,f", [(0, 5, 0), (6, 5, 0), (4, 65, 0), (4, 5, 4), (4, 5, -1),
                                   (4, 64, 0), (55, 63, 0), (1, 1, 0)])
def test_spec_rejects_bad_widths(c, l, f):
    with pytest.raises(ValueError):
        QuantSpec(c, l, f)


def test_quantize_rounds_half_away_from_zero():
    spec = QuantSpec(4, 5, 0)
    # 7.9 -> 7 (saturated would be 8, channel caps at 7), -0.4 -> 0
    assert quantize_channel(7.9, spec) == 7
    assert quantize_channel(-0.4, spec) == 0
    assert quantize_channel(0.5, spec) == 1
    assert quantize_channel(-0.5, spec) == -1
    assert quantize_channel(1.49, spec) == 1
    # one fraction bit: 3.5 becomes raw 7
    assert quantize_channel(3.5, QuantSpec(4, 6, 1)) == 7


def test_quantize_saturates_at_channel_limit():
    spec = QuantSpec(4, 5, 0)
    vals = quantize_channel(np.array([100.0, -100.0, 7.0, -8.0]), spec)
    assert vals.tolist() == [7, -7, 7, -7]
    assert vals.dtype == spec.word_dtype == np.int8


def test_quantize_saturates_extreme_values():
    spec = QuantSpec(4, 5, 0)
    x = np.array([np.inf, 1e30, 9.3e18, 1e300, np.finfo(float).max])
    assert quantize_channel(x, spec).tolist() == [7] * 5
    assert quantize_channel(-x, spec).tolist() == [-7] * 5
    with pytest.raises(ValueError, match="NaN"):
        quantize_channel(np.array([np.inf, -np.inf, np.nan, 1e30]), spec)


def whole_array_quantize(llr, spec, dtype):
    """Channel quantization on whole arrays, one temporary per step."""
    x = np.asarray(llr, dtype=np.float64)
    mag = np.minimum(np.floor(np.abs(x) * spec.scale + 0.5), spec.channel_limit)
    return np.copysign(mag, x).astype(dtype)


@pytest.mark.parametrize("batch", [0, 1, 63, 64, 65, 2100])
def test_quantize_blocks_are_byte_identical(batch):
    rng = np.random.default_rng(batch)
    x = rng.normal(1.0, 4.0, size=(batch, 1024))
    x[:, :6] = [np.inf, -np.inf, 1e300, -9.3e18, 0.5, -0.0]
    for spec, dtype in [(QuantSpec(4, 5, 0), np.int8), (QuantSpec(6, 8, 2), np.int16),
                        (QuantSpec(54, 63, 20), np.int64)]:
        for llr in (x, x[-1:].T, x[-1] if batch else x.ravel(), x[:2].tolist()):
            got = quantize_channel(llr, spec)
            want = whole_array_quantize(llr, spec, dtype)
            assert got.shape == want.shape and got.dtype == want.dtype == spec.word_dtype
            assert got.tobytes() == want.tobytes()
            words = validate_quantized(got.astype(np.int64), spec)
            assert words.dtype == dtype and words.tobytes() == want.tobytes()


@pytest.mark.parametrize("row", [0, 63, 64, 2099])
def test_quantize_rejects_nan_in_any_block(row):
    x = np.zeros((2100, 16))
    x[row, 5] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        quantize_channel(x, QuantSpec(4, 5, 0))
    with pytest.raises(ValueError, match="NaN"):
        prepare_llr(x, 16, QuantSpec(4, 5, 0))


@given(st.floats(allow_nan=False))
def test_quantize_is_sign_symmetric(x):
    spec = QuantSpec(4, 5, 0)
    q = quantize_channel(x, spec)
    assert quantize_channel(-x, spec) == -q
    assert abs(q) <= spec.channel_limit


def test_dequantize_inverts_on_grid():
    spec = QuantSpec(4, 6, 1)
    raw = np.arange(-7, 8)
    again = quantize_channel(dequantize(raw, spec), spec)
    assert (again == raw).all()


def test_sat_add_clips_to_internal_limit():
    spec = QuantSpec(4, 5, 0)
    assert sat_add(10, 10, spec) == 15
    assert sat_add(-10, -10, spec) == -15
    assert sat_add(np.array([7, -7]), np.array([7, -7]), spec).tolist() == [14, -14]


def test_validate_quantized_bounds():
    spec = QuantSpec(4, 5, 0)
    words = np.array([15, -15, 0], dtype=np.int8)
    assert validate_quantized(words, spec) is words  # already words: no copy
    assert validate_quantized([15, -15, 0], spec).dtype == np.int8
    with pytest.raises(ValueError):
        validate_quantized(np.array([16]), spec)
    # abs(-128) wraps to -128 in int8; the range check must not rely on it
    with pytest.raises(ValueError):
        validate_quantized(np.array([-128], dtype=np.int8), QuantSpec(4, 8, 0))


@pytest.mark.parametrize("llr", [np.array([1.5, -2.7]), np.array([1.0, -2.0]), np.array([True])])
def test_validate_quantized_rejects_non_integers(llr):
    # a float is not a raw word: it must not be truncated to one
    with pytest.raises(ValueError, match="integers"):
        validate_quantized(llr, QuantSpec(4, 5, 0))


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_quantize_error_bounded_inside_range(x):
    spec = QuantSpec(5, 6, 1)
    q = dequantize(quantize_channel(x, spec), spec)
    if abs(x) <= spec.channel_limit / spec.scale:
        assert abs(q - x) <= 0.5 / spec.scale + 1e-12
    else:
        assert abs(q) == spec.channel_limit / spec.scale


@given(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-(2**40), max_value=2**40),
)
def test_sat_add_commutes_and_bounds(a, b):
    spec = QuantSpec(4, 50, 0)
    r = sat_add(a, b, spec)
    assert r == sat_add(b, a, spec)
    assert abs(r) <= spec.internal_limit
    if abs(a + b) <= spec.internal_limit:
        assert r == a + b


@st.composite
def specs(draw):
    c = draw(st.integers(2, 54))
    return QuantSpec(c, draw(st.integers(c, 63)), draw(st.integers(0, c - 1)))


@given(specs(), st.data())
def test_widest_specs_saturate_without_wrapping(spec, data):
    lim = spec.channel_limit
    q = quantize_channel(np.array([np.inf, -np.inf, 1e30, -1e30]), spec)
    assert q.tolist() == [lim, -lim, lim, -lim]
    wide = st.integers(-spec.internal_limit, spec.internal_limit)
    a, b = data.draw(wide), data.draw(wide)
    want = max(-spec.internal_limit, min(spec.internal_limit, a + b))
    assert int(sat_add(a, b, spec)) == want


@pytest.mark.parametrize("bits,dtype", [(7, np.int8), (8, np.int16), (15, np.int16),
                                        (16, np.int32), (31, np.int32), (32, np.int64),
                                        (63, np.int64)])
@given(data=st.data())
def test_sat_add_in_word_dtype_matches_clipped_int64(bits, dtype, data):
    spec = QuantSpec(2, bits, 0)
    assert spec.word_dtype == dtype
    lim = spec.internal_limit
    bounds = spec.word_bounds
    assert bounds == (-lim, lim)
    for bound in bounds:
        assert bound.dtype == spec.word_dtype
        assert not bound.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bound[...] = 0
    assert spec.word_bounds is bounds  # cached: made once per spec
    n = data.draw(st.integers(0, 8))
    word = st.integers(-lim, lim)
    # the corners first: the largest sums a word dtype must hold
    a = [lim, -lim, lim, -lim] + data.draw(st.lists(word, min_size=n, max_size=n))
    b = [lim, -lim, -lim, lim] + data.draw(st.lists(word, min_size=n, max_size=n))
    out = sat_add(np.array(a, dtype=dtype), np.array(b, dtype=dtype), spec)
    assert out.dtype == dtype == spec.word_dtype
    want = np.clip(np.array(a, dtype=np.int64) + np.array(b, dtype=np.int64), -lim, lim)
    assert (out.astype(np.int64) == want).all()
