import itertools
import json
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastssc import (
    NodeKind,
    PolarCode,
    PuTree,
    QuantSpec,
    classified,
    construct_code,
    encode,
    fast_ssc_decode,
    hw_decode_frame,
    latency_model,
    latency_reduction_sweep,
    node_cycles,
    sc_decode,
)
from fastssc import fast
from fastssc.fast import _plan, fold_argmin
from fastssc.reference import prepare_llr
from fastssc.sim import ChannelConfig, awgn_llr, draw_messages_and_noise
from conftest import noisy_float_llr, noisy_int_llr, random_code
from oracles import comparator_fold_argmin, rep_ml_word, spc_ml_optima, tie_risk


def decode_spc(alphas, spec=None):
    """Hardware-mode decode of (batch, L) LLRs by the one-node SPC code."""
    mask = np.arange(alphas.shape[1]) < 1
    return fast_ssc_decode(PolarCode.from_frozen_mask(mask), alphas, spec, tie_mode="hardware").x_hat


def decode_rep(alphas, spec=None):
    """Hardware-mode decode of (batch, L) LLRs by the one-node REP code."""
    L = alphas.shape[1]
    mask = np.arange(L) < L - 1
    return fast_ssc_decode(PolarCode.from_frozen_mask(mask), alphas, spec, tie_mode="hardware").x_hat


def kinds_by_preorder(code):
    return [(node.stage, node.offset, node.kind) for node in classified(code)]


def test_classification_pure_nodes():
    rate1 = PolarCode.from_frozen_mask(np.zeros(8, dtype=bool))
    assert classified(rate1)[0].kind is NodeKind.RATE1
    spc = PolarCode.from_frozen_mask(np.array([True] + [False] * 7))
    assert classified(spc)[0].kind is NodeKind.SPC
    rep = PolarCode.from_frozen_mask(np.array([True] * 7 + [False]))
    assert classified(rep)[0].kind is NodeKind.REP
    # an all-frozen subtree shows up one level down, as the root's left child
    half = PolarCode.from_frozen_mask(np.array([1, 1, 1, 1, 0, 1, 0, 0], dtype=bool))
    assert classified(half)[1].kind is NodeKind.RATE0


def test_classification_split_example():
    # [1,1,1,1,0,0,0,0]: frozen half then open half
    code = PolarCode.from_frozen_mask(np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool))
    got = kinds_by_preorder(code)
    assert got == [
        (3, 0, NodeKind.BRANCH),
        (2, 0, NodeKind.RATE0),
        (2, 4, NodeKind.RATE1),
    ]


def test_classification_mixed_example():
    # [1,1,1,0,1,0,0,0]: a repetition left half and an SPC right half
    code = PolarCode.from_frozen_mask(np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=bool))
    got = kinds_by_preorder(code)
    assert got == [
        (3, 0, NodeKind.BRANCH),
        (2, 0, NodeKind.REP),
        (2, 4, NodeKind.SPC),
    ]


def test_classification_size2_pairs():
    # [1,0] pairs decode as repetition, [0,1] splits into two leaves
    rep2 = PolarCode.from_frozen_mask(np.array([True, False]))
    assert classified(rep2)[0].kind is NodeKind.REP
    odd = PolarCode.from_frozen_mask(np.array([False, True]))
    nodes = classified(odd)
    assert nodes[0].kind is NodeKind.BRANCH
    assert [c.stage for c in nodes[1:]] == [0, 0]


def test_node_ids_are_unique_preorder(rng):
    code = random_code(64, rng)
    nodes = classified(code)
    assert [n.node for n in nodes] == list(range(len(nodes)))


def test_fold_argmin_matches_argmin_when_unique(rng):
    for _ in range(50):
        n = 2 ** int(rng.integers(1, 6))
        vals = rng.permutation(100)[:n].reshape(1, n)
        assert fold_argmin(vals)[0] == np.argmin(vals)


def test_fold_argmin_tie_follows_comparator_order():
    # |a| = [3,1,1,1]: lanes 1 and 3 tie first (keep 1), lanes 0 and 2 pick 2,
    # then 1-vs-2 ties and the fold keeps the lane holding index 2.
    assert fold_argmin(np.array([[3, 1, 1, 1]])).tolist() == [2]
    assert fold_argmin(np.array([[0, 5, 0, 5]])).tolist() == [0]


def test_fold_argmin_matches_comparator_tree(rng):
    # every row over {0,1,2} up to 8 lanes, where ties are dense, then
    # random rows up to 1024 lanes
    blocks = [np.array(list(itertools.product(range(3), repeat=n))) for n in (1, 2, 4, 8)]
    blocks += [rng.integers(0, 4, size=(200, n)) for n in (16, 64, 256, 1024)]
    for mags in blocks:
        assert fold_argmin(mags).tolist() == [comparator_fold_argmin(row) for row in mags]


def test_decode_spc_parity_and_flip():
    # parity already even: thresholds stand
    assert decode_spc(np.array([[1.0, -2.0, -3.0, 4.0]])).tolist() == [[0, 1, 1, 0]]
    # parity odd: weakest position flips
    assert decode_spc(np.array([[1.0, 2.0, 3.0, -4.0]])).tolist() == [[1, 0, 0, 1]]


def test_decode_spc_is_ml_on_exhaustive_grid():
    # every length-4 integer frame in [-3,3]; the length-8 grid runs in the
    # acceptance suite
    grid = np.stack(np.meshgrid(*([np.arange(-3, 4)] * 4), indexing="ij"), axis=-1)
    alphas = grid.reshape(-1, 4)
    betas = decode_spc(alphas)
    assert not np.bitwise_xor.reduce(betas, axis=1).any()
    scores = ((1 - 2 * betas.astype(np.float64)) * alphas).sum(axis=1)
    # the best even-parity correlation is sum|a|, minus twice the smallest
    # |a| when the raw thresholds come out odd
    hd = (alphas < 0).astype(np.uint8)
    odd = np.bitwise_xor.reduce(hd, axis=1).astype(bool)
    expected = np.abs(alphas).sum(axis=1) - 2 * np.where(odd, np.abs(alphas).min(axis=1), 0)
    assert np.allclose(scores, expected)


@pytest.mark.parametrize("values,length", [(range(-3, 4), 4), ((-2, -1, 1, 2), 8)],
                         ids=["int3-len4", "pm12-len8"])
def test_decode_spc_flips_the_comparator_tree_lane(values, length):
    # Hardware mode's tie break, in the decoder's own fold: on odd parity the
    # flip lands on the lane a strict-less comparator tree keeps among
    # repeated minima; on even parity nothing flips.
    alphas = np.array(list(itertools.product(values, repeat=length)))
    hard = (alphas < 0).astype(np.uint8)
    flips = decode_spc(alphas) ^ hard
    odd = np.bitwise_xor.reduce(hard, axis=1).astype(bool)
    assert not flips[~odd].any()
    want = np.zeros_like(flips[odd])
    want[np.arange(len(want)), [comparator_fold_argmin(row) for row in np.abs(alphas[odd])]] = 1
    assert (flips[odd] == want).all()


def test_decode_spc_ml_against_bruteforce_sample(rng):
    # full brute force on a random sample of the grid rows
    for length in (4, 8):
        alphas = rng.integers(-3, 4, size=(300, length))
        betas = decode_spc(alphas)
        for a, b in zip(alphas, betas):
            optima = spc_ml_optima(a)
            assert any((b == w).all() for w in optima)


def test_decode_rep_matches_two_hypothesis_rule(rng):
    for length in (2, 4, 8):
        alphas = rng.integers(-3, 4, size=(500, length))
        betas = decode_rep(alphas)
        for a, b in zip(alphas, betas):
            assert (b == rep_ml_word(a)).all()


def test_decode_rep_saturating_order():
    # stride-halving pairwise sums saturate level by level
    spec = QuantSpec(4, 5, 0)
    out = decode_rep(np.array([[-15, -15, 14, 15]]), spec)
    # pairs: sat(-15+14) = -1, sat(-15+15) = 0; sat(-1+0) = -1 -> ones
    assert out.tolist() == [[1, 1, 1, 1]]


def test_fast_equals_sc_float(rng):
    for N in (4, 8, 16, 32, 64, 128):
        for _ in range(4):
            code = random_code(N, rng)
            _, llr = noisy_float_llr(code, rng, frames=200)
            a = sc_decode(code, llr)
            b = fast_ssc_decode(code, llr)
            assert (a.u_hat == b.u_hat).all()
            assert (a.x_hat == b.x_hat).all()


def test_fast_equals_sc_quantized_exact_mode(rng):
    spec = QuantSpec(4, 5, 0)
    for N in (4, 8, 16, 32, 64):
        for _ in range(4):
            code = random_code(N, rng)
            _, llr = noisy_int_llr(code, rng, frames=400)
            a = sc_decode(code, llr, spec)
            b = fast_ssc_decode(code, llr, spec, tie_mode="exact")
            assert (a.u_hat == b.u_hat).all()


def test_hardware_mode_diverges_only_at_ties(rng):
    # on tie-free frames both modes agree with plain SC
    spec = QuantSpec(4, 5, 0)
    code = construct_code(16, 8, 2.0)
    _, llr = noisy_int_llr(code, rng, frames=500)
    exact = fast_ssc_decode(code, llr, spec, tie_mode="exact")
    hard = fast_ssc_decode(code, llr, spec, tie_mode="hardware")
    sc = sc_decode(code, llr, spec)
    differs = (exact.u_hat != hard.u_hat).any(axis=1)
    assert (exact.u_hat == sc.u_hat).all()
    # hardware mode still produces valid codewords of the same code
    from fastssc import polar_transform

    assert (hard.x_hat == polar_transform(hard.u_hat)).all()
    assert (hard.u_hat[:, code.frozen] == 0).all()
    # and matches exact mode off the tie set
    assert (exact.u_hat[~differs] == hard.u_hat[~differs]).all()


@pytest.mark.parametrize("spec", [QuantSpec(4, 5, 0), QuantSpec(3, 3, 0)], ids=str)
@pytest.mark.parametrize("size,top", [(4, 4), (8, 2)])
def test_spc_tie_predicate_exhaustive(monkeypatch, spec, size, top):
    # Every SPC input on the grid {-top..top}^size.  The grid goes in as
    # floats, so at 3,3,0 the channel clips +-4 to +-3 and g saturates at 3.
    alphas = np.array(list(itertools.product(range(-top, top + 1), repeat=size)), dtype=float)
    code = PolarCode.from_frozen_mask(np.array([True] + [False] * (size - 1)))
    calls = watch_repairs(monkeypatch)
    exact = fast_ssc_decode(code, alphas, spec, tie_mode="exact")
    sc = sc_decode(code, alphas, spec)
    assert (exact.x_hat == sc.x_hat).all()
    words, _ = prepare_llr(alphas, size, spec)
    risk = tie_risk("spc", words)
    even = np.count_nonzero(words < 0, axis=1) % 2 == 0
    nonzero = (words != 0).all(axis=1)
    assert not risk[even & nonzero].any()
    # The kernel's own check hands the repair exactly the rows the rule
    # flags, and off them the shortcut alone decides as plain SC.
    assert_repaired_rows(calls, words[risk])
    hard = fast_ssc_decode(code, alphas, spec, tie_mode="hardware")
    assert (hard.x_hat[~risk] == sc.x_hat[~risk]).all()


def watch_repairs(monkeypatch):
    """Log ``(depth, kind, stage, rows)`` for every call of the exact-mode
    repair, ``rows`` being the (columns, size) LLRs it was handed; depth 0
    is a call at a node of the code's own plan, deeper ones come from the
    split it recurses into."""
    calls, depth, repair = [], [0], fast._repair

    def logged(kind, stage, a, spec):
        calls.append((depth[0], kind, stage, a.T.copy()))
        depth[0] += 1
        try:
            return repair(kind, stage, a, spec)
        finally:
            depth[0] -= 1

    # the decode looks _repair up when it runs, so the patch sees every call
    monkeypatch.setattr(fast, "_repair", logged)
    return calls


def assert_repaired_rows(calls, want):
    """The rows handed to the repair at the code's own nodes are ``want``,
    as a multiset."""
    got = [row for depth, *_, rows in calls if depth == 0 for row in rows.tolist()]
    assert sorted(got) == sorted(want.tolist())


def test_exact_mode_rarely_re_decodes(monkeypatch):
    # Tier-1 guard for the SPC tie predicate: at 4 dB the GA (1024,870) code
    # at 4,5,0 hands the repair far fewer columns than frames.  Only the
    # columns handed over at the code's own nodes count, not those the
    # split hands on.
    code = construct_code(1024, 870, 2.0)
    cfg = ChannelConfig(4.0, code.rate, seed=0)
    msgs, noise = draw_messages_and_noise(cfg, code.K, code.N, 0, 256)
    llr = awgn_llr(encode(code, msgs), cfg, noise=noise)
    calls = watch_repairs(monkeypatch)
    spec = QuantSpec(4, 5, 0)
    out = fast_ssc_decode(code, llr, spec, tie_mode="exact")
    assert 0 < sum(len(rows) for depth, _, _, rows in calls if depth == 0) < 256
    assert (out.u_hat == sc_decode(code, llr, spec).u_hat).all()


@pytest.mark.parametrize("spec", [QuantSpec(4, 5, 0), QuantSpec(3, 3, 0)], ids=str)
@pytest.mark.parametrize("size,top", [(8, 1), (4, 2)])
def test_rate1_repair_exhaustive(monkeypatch, spec, size, top):
    # Every rate-1 input on the grid {-top..top}^size, zeros included, as raw words.
    alphas = np.array(list(itertools.product(range(-top, top + 1), repeat=size)))
    code = PolarCode.from_frozen_mask(np.zeros(size, dtype=bool))
    calls = watch_repairs(monkeypatch)
    exact = fast_ssc_decode(code, alphas, spec, tie_mode="exact")
    sc = sc_decode(code, alphas, spec)
    assert (exact.x_hat == sc.x_hat).all() and (exact.u_hat == sc.u_hat).all()
    assert {depth for depth, *_ in calls} == set(range(size.bit_length() - 1))
    assert_repaired_rows(calls, alphas[tie_risk("rate1", alphas)])


@pytest.mark.parametrize("spec", [None, QuantSpec(4, 5, 0), QuantSpec(3, 3, 0)], ids=str)
@pytest.mark.parametrize("size", [16, 32])
def test_spc_repair_recurses_through_deep_ties(monkeypatch, rng, spec, size):
    # Equal magnitudes with odd parity keep a repeated minimum in every SPC
    # child down to size 4, and a zero reaches every f output of its lane,
    # so the split recurses once per halving.  Random grid frames add
    # mixed ties.
    code = PolarCode.from_frozen_mask(np.arange(size) < 1)
    ones = np.ones((size, size))
    ones[np.arange(size), np.arange(size)] = -1
    zeros = rng.choice([-2, -1, 1, 2], size=(size, size))
    zeros[np.arange(size), np.arange(size)] = 0
    grid = rng.integers(-2, 3, size=(3000, size))
    alphas = np.concatenate([ones, -ones, zeros, grid]).astype(float)
    calls = watch_repairs(monkeypatch)
    exact = fast_ssc_decode(code, alphas, spec, tie_mode="exact")
    sc = sc_decode(code, alphas, spec)
    assert (exact.x_hat == sc.x_hat).all() and (exact.u_hat == sc.u_hat).all()
    spc_depths = {depth for depth, kind, _, _ in calls if kind is NodeKind.SPC}
    assert spc_depths == set(range(size.bit_length() - 2))


def test_narrow_words_decode_like_int64(rng):
    spec = QuantSpec(4, 5, 0)
    for N in (16, 64):
        code = random_code(N, rng)
        _, llr = noisy_int_llr(code, rng, frames=300)
        narrow = llr.astype(spec.word_dtype)
        for decode in (lambda x: sc_decode(code, x, spec),
                       lambda x: fast_ssc_decode(code, x, spec, tie_mode="exact"),
                       lambda x: fast_ssc_decode(code, x, spec, tie_mode="hardware")):
            assert (decode(llr).u_hat == decode(narrow).u_hat).all()


def test_fast_known_tie_case_hardware_vs_exact():
    # alpha (0,-1) on an open pair: thresholds give x=[0,1] while plain SC
    # resolves the zero toward bit 0 and emits x=[1,1]
    code = PolarCode.from_frozen_mask(np.array([False, False]))
    llr = np.array([[0, -1]], dtype=np.int64)
    spec = QuantSpec(4, 5, 0)
    hard = fast_ssc_decode(code, llr, spec, tie_mode="hardware")
    exact = fast_ssc_decode(code, llr, spec, tie_mode="exact")
    sc = sc_decode(code, llr, spec)
    assert hard.x_hat.tolist() == [[0, 1]]
    assert exact.x_hat.tolist() == [[1, 1]]
    assert (exact.u_hat == sc.u_hat).all()


@pytest.mark.parametrize("decode", [
    fast_ssc_decode,
    lambda code, llr: hw_decode_frame(PuTree(code.N), code, llr),
], ids=["fast_ssc_decode", "hw_decode_frame"])
def test_fast_batch_matches_single_frames(rng, decode):
    # both decoders take their single-frame unwrap from the shared walk
    code = random_code(32, rng)
    _, llr = noisy_float_llr(code, rng, frames=64)
    batch = decode(code, llr)
    for i in range(0, 64, 7):
        one = decode(code, llr[i])
        assert (one.u_hat == batch.u_hat[i]).all()


def test_fast_rejects_unknown_tie_mode(rng):
    code = random_code(8, rng)
    with pytest.raises(ValueError):
        fast_ssc_decode(code, np.zeros(8), tie_mode="sometimes")


def test_node_cycles_table():
    assert node_cycles(NodeKind.BRANCH, 3) == 1
    assert node_cycles(NodeKind.BRANCH, 3, precompute=False) == 2
    assert node_cycles(NodeKind.RATE0, 2) == 1
    assert node_cycles(NodeKind.RATE1, 2) == 1
    assert node_cycles(NodeKind.SPC, 4) == 5
    assert node_cycles(NodeKind.REP, 4) == 4
    # single-bit leaves ride along with the parent update
    assert node_cycles(NodeKind.RATE0, 0) == 0
    assert node_cycles(NodeKind.RATE1, 0) == 0


def test_latency_unprunable_tree_is_n_minus_1():
    # [0,1] pairs split into bare leaves, so nothing prunes above stage 0
    for N in (4, 16, 64):
        mask = np.tile([False, True], N // 2).astype(bool)
        code = PolarCode.from_frozen_mask(mask)
        report = latency_model(classified(code))
        assert report.total_cycles == N - 1
        no_pre = latency_model(classified(code), precompute=False)
        assert no_pre.total_cycles == 2 * N - 2


def test_latency_single_node_codes():
    rate1 = PolarCode.from_frozen_mask(np.zeros(1024, dtype=bool))
    assert latency_model(classified(rate1)).total_cycles == 1
    spc = PolarCode.from_frozen_mask(np.array([True] + [False] * 1023))
    assert latency_model(classified(spc)).total_cycles == 11
    rep = PolarCode.from_frozen_mask(np.array([True] * 1023 + [False]))
    assert latency_model(classified(rep)).total_cycles == 10


@pytest.mark.parametrize("K,total,optional,counts", [
    (512, 333, 38, {("f", False): 64, ("f", True): 19, ("g", False): 83,
                    ("combine", False): 83, ("rate0", True): 19, ("rate1", False): 15,
                    ("rep", False): 23, ("spc", False): 27}),
    (870, 177, 2, {("f", False): 43, ("f", True): 1, ("g", False): 44,
                   ("combine", False): 44, ("rate0", True): 1, ("rate1", False): 12,
                   ("rep", False): 17, ("spc", False): 15}),
])
def test_plan_op_counts_of_the_ga_codes(K, total, optional, counts):
    # An op added to the plan, or an update that only feeds a rate-0 child
    # left mandatory, costs time without changing one bit.
    ops = _plan(construct_code(1024, K, 2.0)).ops
    got = Counter((op if isinstance(op, str) else op.value, opt) for op, _, opt, *_ in ops)
    assert got == counts
    assert len(ops) == total and sum(opt for _, _, opt, *_ in ops) == optional


def test_plan_skips_the_combine_over_a_rate0_right_child():
    # The GA codes have no rate-0 right child.  Here the right half is all
    # frozen: its g update and its leaf only run under a hook, and the
    # combine would XOR zeros, so it is left out.
    ops = _plan(PolarCode.from_frozen_mask(np.array([False, False, True, True]))).ops
    got = [(op if isinstance(op, str) else op.value, opt) for op, _, opt, *_ in ops]
    assert got == [("f", False), ("rate1", False), ("g", True), ("rate0", True)]


def test_latency_never_exceeds_n_minus_1(rng):
    for _ in range(100):
        N = 2 ** int(rng.integers(2, 9))
        code = random_code(N, rng)
        assert latency_model(classified(code)).total_cycles <= N - 1


def test_schedule_report_json(rng):
    code = construct_code(16, 8, 2.0)
    report = latency_model(classified(code))
    rows = json.loads(report.to_json())
    assert rows
    assert set(rows[0]) == {"node", "kind", "stage", "offset", "cycles"}
    assert sum(r["cycles"] for r in rows) == report.total_cycles


def test_latency_reduction_sweep_shape():
    rows = latency_reduction_sweep(256, [0.25, 0.5, 0.75], 2.0)
    assert [r["rate"] for r in rows] == [0.25, 0.5, 0.75]
    for r in rows:
        assert r["K"] == int(np.floor(r["rate"] * 256 + 0.5))
        assert 0 < r["cycles"] <= 255
        assert r["reduction"] == 1 - r["cycles"] / (0.75 * 256 - 1)


@st.composite
def decoder_specs(draw):
    # None, a headline spec, or any valid C,L,F: F > 0 and L up to 63 (int64 words)
    c = draw(st.integers(2, 12))
    wide = QuantSpec(c, draw(st.integers(c, 63)), draw(st.integers(0, c - 1)))
    return draw(st.sampled_from([None, QuantSpec(4, 5, 0), QuantSpec(6, 8, 2), wide]))


@settings(max_examples=300)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), spec=decoder_specs(),
       raw=st.sampled_from([None, np.int8, np.int16, np.int64]), grid=st.booleans(),
       frames=st.sampled_from([None, 1, 7]))
def test_plan_agrees_with_plain_sc_and_the_datapath(n, seed, spec, raw, grid, frames):
    # frames=None is one frame given as a 1-D vector.  Raw integer input needs
    # a spec; grid-valued floats make ties in float decodes too.
    rng = np.random.default_rng(seed)
    N = 1 << n
    code = random_code(N, rng)
    shape = (frames or 1, N)
    if spec is not None and raw is not None:
        lim = min(spec.internal_limit, np.iinfo(raw).max)
        llr = rng.integers(-3, 4, size=shape)
        llr[rng.random(shape) < 0.1] = lim
        llr = (llr * rng.choice([-1, 1], size=shape)).clip(-lim, lim).astype(raw)
    elif grid:
        llr = rng.integers(-6, 7, size=shape) / 2.0
    else:
        llr = rng.normal(1.0, 2.0, size=shape)
    if frames is None:
        llr = llr[0]

    exact = fast_ssc_decode(code, llr, spec, tie_mode="exact")
    sc = sc_decode(code, llr, spec)
    assert exact.u_hat.shape == exact.x_hat.shape == np.shape(llr)
    assert (exact.u_hat == sc.u_hat).all() and (exact.x_hat == sc.x_hat).all()

    # Where no rate-1 or SPC node of the hardware walk flags a frame, every
    # shortcut provably decides as plain SC, so both modes agree there.
    flagged = np.zeros(shape[0], dtype=bool)

    def tie_predicates(node, op, inp, out):
        if op in ("rate1", "spc"):
            flagged[tie_risk(op, inp)] = True

    hard = fast._walk(code, llr, spec, "hardware", tie_predicates)
    assert (hard.x_hat == fast_ssc_decode(code, llr, spec, tie_mode="hardware").x_hat).all()
    same = np.atleast_2d(exact.x_hat == hard.x_hat).all(axis=1)
    assert same[~flagged].all()

    if spec is not None:
        hw = hw_decode_frame(PuTree(N, spec), code, llr, trace=True)
        assert (hw.u_hat == hard.u_hat).all() and (hw.x_hat == hard.x_hat).all()
        steps = [row for row in hw.trace_rows if row["op"] != "g_select"]
        assert len(steps) == hw.cycle_trace.total_cycles == latency_model(classified(code)).total_cycles


def test_threads_sharing_a_code_get_their_serial_results():
    # run_point decodes chunks of one code from a thread pool, so the plan's
    # buffers must be made per call
    code = construct_code(256, 128, 2.0)
    spec = QuantSpec(4, 5, 0)
    blocks = [noisy_int_llr(code, np.random.default_rng(s), frames=40)[1] for s in range(4)]
    decoders = [lambda b: fast_ssc_decode(code, b, spec, tie_mode="exact"),
                lambda b: fast_ssc_decode(code, b.astype(float) / 2),
                lambda b: hw_decode_frame(PuTree(256, spec), code, b)]
    want = [[decode(b).x_hat for decode in decoders] for b in blocks]
    got = [None] * len(blocks)

    def work(i):
        got[i] = [[decode(blocks[i]).x_hat for decode in decoders] for _ in range(15)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(blocks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, runs in enumerate(got):
        assert runs is not None
        for run in runs:
            assert all((a == b).all() for a, b in zip(run, want[i], strict=True))


@pytest.mark.parametrize("mask", [[False], [False, False], [True, False], [False, True]],
                         ids=["N1", "N2-rate1", "N2-rep", "N2-split"])
def test_smallest_codes_and_empty_batches_decode(mask, rng):
    code = PolarCode.from_frozen_mask(np.array(mask))
    N = code.N
    spec = QuantSpec(4, 5, 0)
    tree = PuTree(2, spec)
    decoders = [lambda x: sc_decode(code, x, spec),
                lambda x: fast_ssc_decode(code, x, spec, tie_mode="exact"),
                lambda x: fast_ssc_decode(code, x, spec, tie_mode="hardware"),
                lambda x: hw_decode_frame(tree, code, x)]
    frames = np.array(list(itertools.product(range(-2, 3), repeat=N)))
    results = [decode(frames) for decode in decoders]
    for res in results:
        assert res.u_hat.shape == res.x_hat.shape == frames.shape
    assert (results[1].x_hat == results[0].x_hat).all()
    assert (results[3].x_hat == results[2].x_hat).all()
    for i, res in enumerate(results):
        one = decoders[i](frames[-1])
        assert one.u_hat.shape == one.x_hat.shape == (N,)
        assert (one.x_hat == res.x_hat[-1]).all()
        empty = decoders[i](np.zeros((0, N), dtype=np.int64))
        assert empty.u_hat.shape == empty.x_hat.shape == (0, N)
    assert fast_ssc_decode(code, np.zeros((0, N))).x_hat.shape == (0, N)
