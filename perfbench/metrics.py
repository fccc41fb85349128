"""Metric arithmetic: the tail percentile and the per-layer figures.

Every per-layer ``_s`` figure is busy wall seconds per 1,000 frames of the
traced phase, summed over threads (two workers busy for one second count two
seconds).  A function's figure includes the time of the calls it makes;
``<layer>.self_s`` is the time of the layer's spans minus the time of the
spans they call, so the seven self times never count a second twice.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import LAYERS

BEYOND = 10   # samples a tail percentile must leave above it
WINDOW = 200  # batches per window of a windowed tail


def tail(values, beyond=BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample count)``: the sample ranked
    ``n - beyond`` of ``n`` ascending, whose percentile is
    ``100 * (n - beyond) / n``.
    """
    x = sorted(values)
    n = len(x)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    k = n - beyond
    return x[k - 1], 100.0 * k / n, n


def windowed_tail(values, window=WINDOW):
    """Median over consecutive windows of each window's :func:`tail`.

    A run of ``n`` batches in time order is cut into ``max(1, n // window)``
    windows of near-equal size.  A single tail over a long run sits in its
    few slowest batches, which on a shared host are interference spikes.
    The median over windows keeps the same rule, at least ten samples
    beyond, while a spike moves only the window it falls in.  Runs shorter
    than two windows get the plain tail.

    Returns ``(value, percentile, samples per window, windows)``.
    """
    k = max(1, len(values) // window)
    tails = [tail(part) for part in np.array_split(np.asarray(values, dtype=float), k)]
    return (float(statistics.median(t[0] for t in tails)),
            statistics.median(t[1] for t in tails), len(values) // k, k)


def layer_metrics(t, setup, run):
    """Per-layer metrics of one traced phase.

    ``t`` and ``setup`` are :class:`tracing.SpanTable` of the traced phase
    and of the traced in-process set-up.  ``run`` holds the phase's
    ``frames``, ``batches``, ``workers``, ``traced_fps`` and
    ``untraced_fps``, the datapath ``cycles`` per decode (0 where the
    workload does not run the datapath model) and the ``saturated_frac``
    of a separate counting pass.
    """
    per_k = 1000.0 / run["frames"]
    batches = run["batches"]
    fsd = "fast.fast_ssc_decode"

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": t.layer_self_s(layer) * per_k for layer in LAYERS}

    draw = "sim.draw_messages_and_noise"
    m["sim.draw_s"] = t.wall_s(draw) * per_k
    m["sim.draw_wait_s"] = t.wait_s(draw) * per_k
    m["sim.awgn_llr_s"] = t.wall_s("sim.awgn_llr") * per_k
    m["sim.count_s"] = t.self_s("sim._run_chunk") * per_k
    m["sim.run_point_self_s"] = t.self_s("sim.run_point") * per_k
    m["sim.worker_busy_frac"] = ratio(t.wall_s("sim._run_chunk"),
                                      t.wall_s("sim.run_point") * run["workers"])

    m["core.construct_s"] = setup.wall_s("core.construct_code")
    m["core.encode_s"] = t.wall_s("core.encode") * per_k
    m["core.polar_transform_s"] = t.wall_s("core.polar_transform") * per_k
    m["core.polar_transform_calls"] = t.n_calls("core.polar_transform") / batches

    m["quant.quantize_channel_s"] = t.wall_s("quant.quantize_channel") * per_k
    m["quant.sat_add_s"] = t.wall_s("quant.sat_add") * per_k
    m["quant.sat_add_calls"] = t.n_calls("quant.sat_add") / batches
    m["quant.saturated_frac"] = run["saturated_frac"]

    for fn in ("f_min_sum", "g_function", "combine_beta", "sc_decode"):
        m[f"reference.{fn}_s"] = t.wall_s(f"reference.{fn}") * per_k
    repaired = t.rows_under(fsd, "reference.sc_decode")
    m["reference.sc_decode_frames"] = repaired / run["frames"]

    m["fast.decode_s"] = t.wall_s(fsd) * per_k
    m["fast.spc_s"] = t.wall_s("fast.decode_spc") * per_k
    m["fast.rep_s"] = t.wall_s("fast.decode_rep") * per_k
    m["fast.rate1_s"] = t.wall_s("fast.decode_rate1") * per_k
    m["fast.tie_check_s"] = (t.wall_s("fast._rate1_tie_risk")
                             + t.wall_s("fast._spc_tie_risk")) * per_k
    decodes = t.n_calls(fsd)
    visits = {
        # Each branch visit makes one f update.
        "branch": t.calls_under(fsd, "reference.f_min_sum"),
        "rate1": t.calls_under(fsd, "fast.decode_rate1"),
        "rep": t.calls_under(fsd, "fast.decode_rep"),
        "spc": t.calls_under(fsd, "fast.decode_spc"),
    }
    # Rate-0 nodes make no call; the tree is full, so leaves = branches + 1.
    visits["rate0"] = (visits["branch"] + decodes
                       - visits["rate1"] - visits["rep"] - visits["spc"]) if decodes else 0.0
    for kind in ("branch", "rate0", "rate1", "rep", "spc"):
        m[f"fast.visits.{kind}"] = ratio(visits[kind], decodes)
    m["fast.tie_repair_ratio"] = ratio(
        repaired, t.rows_under(fsd, "fast.decode_rate1") + t.rows_under(fsd, "fast.decode_spc"))

    hwd = "hw.hw_decode_frame"
    m["hw.decode_s"] = t.wall_s(hwd) * per_k
    m["hw.spc_s"] = t.wall_s("hw.spc_hw_decode") * per_k
    m["hw.rep_s"] = t.wall_s("hw.rep_hw_decode") * per_k
    m["hw.scalarize_s"] = t.wall_s("hw._scalarize") * per_k
    m["hw.cycles_per_decode"] = float(run["cycles"])
    m["hw.host_us_per_cycle"] = ratio(1e6 * ratio(t.wall_s(hwd), t.n_calls(hwd)), run["cycles"])

    m["trace.fps_ratio"] = ratio(run["traced_fps"], run["untraced_fps"])
    m["trace.spans_per_batch"] = t.total / batches
    return m
