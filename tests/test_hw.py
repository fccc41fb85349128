import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastssc import (
    PolarCode,
    PuTree,
    QuantSpec,
    classified,
    construct_code,
    fast_ssc_decode,
    hw_decode_frame,
    latency_model,
    write_trace_jsonl,
)
from fastssc.fast import _plan
from conftest import DATA_DIR, noisy_int_llr, random_code
from oracles import scalar_datapath_decode

SPEC = QuantSpec(4, 5, 0)


def test_hw_decode_matches_fast_hardware_mode(rng):
    for N in (4, 8, 16, 32, 64):
        tree = PuTree(N, SPEC)
        for _ in range(5):
            code = random_code(N, rng)
            _, llr = noisy_int_llr(code, rng, frames=300)
            hw = hw_decode_frame(tree, code, llr)
            sw = fast_ssc_decode(code, llr, SPEC, tie_mode="hardware")
            assert (hw.u_hat == sw.u_hat).all()
            assert (hw.x_hat == sw.x_hat).all()


def test_hw_cycle_totals_match_latency_model(rng):
    for _ in range(100):
        N = 2 ** int(rng.integers(2, 8))
        code = random_code(N, rng)
        tree = PuTree(N, SPEC)
        _, llr = noisy_int_llr(code, rng, frames=2)
        hw = hw_decode_frame(tree, code, llr)
        model = latency_model(classified(code))
        assert hw.cycle_trace.total_cycles == model.total_cycles


def test_hw_schedule_mirrors_model_nodes(rng):
    code = construct_code(32, 16, 2.0)
    tree = PuTree(32, SPEC)
    _, llr = noisy_int_llr(code, rng, frames=1)
    hw = hw_decode_frame(tree, code, llr)
    model = latency_model(classified(code))
    got = [(e.node, e.kind, e.cycles) for e in hw.cycle_trace.entries]
    want = [(e.node, e.kind, e.cycles) for e in model.entries]
    assert got == want


def test_hw_trace_jsonl_schema(tmp_path, rng):
    code = construct_code(16, 8, 2.0)
    tree = PuTree(16, SPEC)
    _, llr = noisy_int_llr(code, rng, frames=1)
    hw = hw_decode_frame(tree, code, llr, trace=True)
    assert hw.trace_rows
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(path, hw)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows
    for row in rows:
        assert set(row) == {"cycle", "stage", "unit", "op", "in", "out"}
    cycles = [r["cycle"] for r in rows]
    assert cycles == sorted(cycles)
    assert max(cycles) <= hw.cycle_trace.total_cycles


def test_pu_tree_default_spec():
    assert PuTree(16).spec == PuTree(16, None).spec == QuantSpec(4, 5, 0)


def test_hw_requires_matching_tree_size(rng):
    code = construct_code(32, 16, 2.0)
    tree = PuTree(16, SPEC)
    with pytest.raises(ValueError):
        hw_decode_frame(tree, code, np.zeros((1, 32), dtype=np.int64))


GOLDEN_CODES = {
    # every node kind; frame 0 has a parity repair and a comparator tie that
    # the fold order decides
    "trace_ga64_32": construct_code(64, 32, 2.0),
    # nothing prunes: branches all the way down to single-bit leaves
    "trace_alt16": PolarCode.from_frozen_mask(np.tile([False, True], 8)),
    # the headline GA-2.0 codes, one frame each: the first frame of a seed-0
    # channel draw at 2.5 dB, quantized to 4,5,0, on which an SPC node of size
    # >= 32 repairs parity (frame 11 for K = 512, frame 0 for K = 870)
    "trace_ga1024_512": construct_code(1024, 512, 2.0),
    "trace_ga1024_870": construct_code(1024, 870, 2.0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CODES))
def test_hw_trace_matches_golden(tmp_path, name):
    code = GOLDEN_CODES[name]
    llr = np.loadtxt(DATA_DIR / f"{name}.llr", dtype=np.int64, ndmin=2)
    hw = hw_decode_frame(PuTree(code.N, SPEC), code, llr, trace=True)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(path, hw)
    assert path.read_text() == (DATA_DIR / f"{name}.jsonl").read_text()


@pytest.mark.parametrize(("K", "cycles"), [(512, 372), (870, 217)])
def test_headline_no_precompute_totals(K, cycles):
    code = construct_code(1024, K, 2.0)
    assert latency_model(classified(code), precompute=False).total_cycles == cycles


def test_hw_trace_covers_every_cycle(rng):
    codes = [random_code(2 ** int(rng.integers(1, 9)), rng) for _ in range(60)]
    codes += [construct_code(1024, 512, 2.0), construct_code(1024, 870, 2.0)]
    for code in codes:
        N = code.N
        _, llr = noisy_int_llr(code, rng, frames=2)
        hw = hw_decode_frame(PuTree(N, SPEC), code, llr, trace=True)
        total = latency_model(classified(code)).total_cycles
        assert {row["cycle"] for row in hw.trace_rows} == set(range(1, total + 1))


def test_hw_schedule_is_built_once_and_immutable(rng):
    code = construct_code(64, 32, 2.0)
    tree = PuTree(64, SPEC)
    _, llr = noisy_int_llr(code, rng, frames=3)
    first = hw_decode_frame(tree, code, llr).cycle_trace
    assert hw_decode_frame(tree, code, llr[:1], trace=True).cycle_trace is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.entries = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.entries[0].cycles = 0
    assert isinstance(first.entries, tuple)


def test_walk_and_trace_share_one_node_table(rng):
    code = construct_code(64, 32, 2.0)
    nodes = classified(code)
    assert nodes is _plan(code).entries
    _, llr = noisy_int_llr(code, rng, frames=2)
    hw = hw_decode_frame(PuTree(64, SPEC), code, llr, trace=True)
    assert all(a is b for a, b in zip(hw.cycle_trace.entries, nodes, strict=True))


def test_decoding_caches_one_private_attribute(rng):
    code = construct_code(64, 32, 2.0)
    _, llr = noisy_int_llr(code, rng, frames=50)
    fast_ssc_decode(code, llr.astype(np.float64))
    # integer LLRs with repeated magnitudes send SPC and rate-1 nodes through
    # the exact-mode re-decode
    fast_ssc_decode(code, llr, SPEC, tie_mode="exact")
    hw_decode_frame(PuTree(64, SPEC), code, llr, trace=True)
    private = [name for name in vars(code) if name.startswith("_")]
    assert len(private) <= 1


@settings(max_examples=150)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), frames=st.integers(1, 3),
       spec=st.sampled_from([SPEC, QuantSpec(3, 3, 0), QuantSpec(5, 6, 1), QuantSpec(6, 10, 2)]))
def test_datapath_matches_the_scalar_model(n, seed, frames, spec):
    # Small words make ties and parity repairs common; words at the internal
    # limit make sums saturate.
    rng = np.random.default_rng(seed)
    N = 1 << n
    code = random_code(N, rng)
    lim = spec.internal_limit
    words = rng.integers(-3, 4, size=(frames, N))
    words[rng.random(words.shape) < 0.1] = lim
    words = (words * rng.choice([-1, 1], size=words.shape)).clip(-lim, lim)
    hw = hw_decode_frame(PuTree(N, spec), code, words, trace=True)
    for i, frame in enumerate(words):
        u, x, cycles, no_precompute, steps = scalar_datapath_decode(code.frozen, frame, spec)
        assert hw.u_hat[i].tolist() == u and hw.x_hat[i].tolist() == x
        assert hw.cycle_trace.total_cycles == cycles
        assert latency_model(hw.cycle_trace.entries, precompute=False).total_cycles == no_precompute
        if i == 0:
            assert [(r["cycle"], r["stage"], r["op"]) for r in hw.trace_rows] == steps
