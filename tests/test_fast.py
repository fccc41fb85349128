import itertools
import json

import numpy as np
import pytest

from fastssc import (
    NodeKind,
    PolarCode,
    QuantSpec,
    classified,
    classify_tree,
    construct_code,
    encode,
    fast_ssc_decode,
    latency_model,
    latency_reduction_sweep,
    node_cycles,
    sc_decode,
)
from fastssc import fast
from fastssc.fast import _spc_tie_risk, decode_rate1, decode_rep, decode_spc, fold_argmin
from fastssc.reference import prepare_llr
from fastssc.sim import ChannelConfig, awgn_llr, draw_messages_and_noise
from conftest import noisy_float_llr, noisy_int_llr, random_code
from oracles import comparator_fold_argmin, rep_ml_word, spc_ml_optima


def kinds_by_preorder(code):
    return [(node.stage, node.offset, node.kind) for node in classify_tree(code)]


def test_classification_pure_nodes():
    rate1 = PolarCode.from_frozen_mask(np.zeros(8, dtype=bool))
    assert classify_tree(rate1)[0].kind is NodeKind.RATE1
    spc = PolarCode.from_frozen_mask(np.array([True] + [False] * 7))
    assert classify_tree(spc)[0].kind is NodeKind.SPC
    rep = PolarCode.from_frozen_mask(np.array([True] * 7 + [False]))
    assert classify_tree(rep)[0].kind is NodeKind.REP
    # an all-frozen subtree shows up one level down, as the root's left child
    half = PolarCode.from_frozen_mask(np.array([1, 1, 1, 1, 0, 1, 0, 0], dtype=bool))
    assert classify_tree(half)[1].kind is NodeKind.RATE0


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
    assert classify_tree(rep2)[0].kind is NodeKind.REP
    odd = PolarCode.from_frozen_mask(np.array([False, True]))
    nodes = classify_tree(odd)
    assert nodes[0].kind is NodeKind.BRANCH
    assert [c.stage for c in nodes[1:]] == [0, 0]


def test_node_ids_are_unique_preorder(rng):
    code = random_code(64, rng)
    nodes = classify_tree(code)
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


def test_decode_rate1_is_elementwise():
    assert decode_rate1(np.array([1.0, -0.5, 0.0, -2.0])).tolist() == [0, 1, 0, 1]


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
def test_spc_tie_predicate_exhaustive(spec, size, top):
    # Every SPC input on the grid {-top..top}^size.  The grid goes in as
    # floats, so at 3,3,0 the channel clips +-4 to +-3 and g saturates at 3.
    alphas = np.array(list(itertools.product(range(-top, top + 1), repeat=size)), dtype=float)
    code = PolarCode.from_frozen_mask(np.array([True] + [False] * (size - 1)))
    exact = fast_ssc_decode(code, alphas, spec, tie_mode="exact")
    assert (exact.x_hat == sc_decode(code, alphas, spec).x_hat).all()
    words, _ = prepare_llr(alphas, size, spec)
    even = np.count_nonzero(words < 0, axis=1) % 2 == 0
    nonzero = (words != 0).all(axis=1)
    assert not _spc_tie_risk(words)[even & nonzero].any()


def test_exact_mode_rarely_re_decodes(monkeypatch):
    # Tier-1 guard for the SPC tie predicate: at 4 dB the GA (1024,870) code
    # at 4,5,0 needs far less than one plain-SC node re-decode per frame.
    code = construct_code(1024, 870, 2.0)
    cfg = ChannelConfig(4.0, code.rate, seed=0)
    msgs, noise = draw_messages_and_noise(cfg, code.K, code.N, 0, 256)
    llr = awgn_llr(encode(code, msgs), cfg, noise=noise)
    rows = []

    def counting(sub, a, spec=None):
        rows.append(len(a))
        return sc_decode(sub, a, spec)

    monkeypatch.setattr(fast, "sc_decode", counting)
    spec = QuantSpec(4, 5, 0)
    out = fast_ssc_decode(code, llr, spec, tie_mode="exact")
    assert sum(rows) < 256
    assert (out.u_hat == sc_decode(code, llr, spec).u_hat).all()


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


def test_fast_batch_matches_single_frames(rng):
    code = random_code(32, rng)
    _, llr = noisy_float_llr(code, rng, frames=64)
    batch = fast_ssc_decode(code, llr)
    for i in range(0, 64, 7):
        one = fast_ssc_decode(code, llr[i])
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
