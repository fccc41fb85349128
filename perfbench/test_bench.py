"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""

import json
import sys
import textwrap
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fastssc  # noqa: E402
from metrics import layer_metrics, tail, windowed_tail  # noqa: E402
from tracing import LAYERS, SpanTable, Tracer, self_times  # noqa: E402


def fake_layer(source):
    """A module whose functions resolve each other through its namespace,
    as the library's modules do."""
    mod = types.ModuleType("fake_layer")
    exec(textwrap.dedent(source), mod.__dict__)
    return mod


def test_tail_leaves_ten_samples_above():
    values = list(range(100, 0, -1))
    value, pct, n = tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10
    value, pct, n = tail(range(11))
    assert (value, n) == (0, 11) and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail(range(10))


def test_windowed_tail_is_the_median_of_window_tails():
    # Five windows of 200; one holds twenty spikes that would own a plain tail.
    values = np.tile(np.arange(200.0), 5)
    values[250:270] = 1e6
    value, pct, size, windows = windowed_tail(values)
    assert (value, pct, size, windows) == (189.0, 95.0, 200, 5)
    assert tail(values)[0] == 1e6
    # Shorter than two windows: the plain tail.
    assert windowed_tail(np.arange(399.0))[:2] == tail(np.arange(399.0))[:2]


def test_self_time_of_nested_spans():
    # 0: [0, 10] with children 1: [1, 3] and 2: [4, 6]; 3: [1.5, 2] inside 1.
    start = [0.0, 1.0, 4.0, 1.5]
    end = [10.0, 3.0, 6.0, 2.0]
    parent = [-1, 0, 0, 1]
    thread = [0, 0, 0, 0]
    assert self_times(start, end, parent, thread) == pytest.approx([6.0, 1.5, 2.0, 0.5])


def test_self_time_with_overlapping_workers():
    # A main-thread span waits on two workers whose spans overlap; only the
    # union of their intervals, [0, 8], is covered.  One also runs a child.
    start = [0.0, 0.0, 1.0, 2.0]
    end = [10.0, 6.0, 8.0, 3.0]
    parent = [-1, 0, 0, 2]
    thread = [0, 1, 2, 2]
    assert self_times(start, end, parent, thread) == pytest.approx([2.0, 6.0, 6.0, 1.0])


def test_pool_spans_are_children_of_the_waiting_span():
    mod = fake_layer("""
        import time

        def _run_chunk(seconds):
            time.sleep(seconds)

        def run_point(pool, seconds):
            for fut in [pool.submit(_run_chunk, seconds) for _ in range(2)]:
                fut.result()
    """)
    tracer = Tracer({"sim": mod})
    with ThreadPoolExecutor(max_workers=2) as pool, tracer.active():
        mod.run_point(pool, 0.1)
    t = SpanTable(tracer.spans(), tracer.names)
    assert t.calls_under("sim.run_point", "sim._run_chunk") == 2
    assert t.wall_s("sim._run_chunk") > t.wall_s("sim.run_point")
    assert 0 <= t.self_s("sim.run_point") < 0.05


def test_wait_is_wall_minus_thread_cpu():
    mod = fake_layer("""
        import time

        def draw_messages_and_noise(seconds):
            time.sleep(seconds)

        def awgn_llr(seconds):
            end = time.thread_time() + seconds
            while time.thread_time() < end:
                pass
    """)
    tracer = Tracer({"sim": mod})
    with tracer.active():
        mod.draw_messages_and_noise(0.1)
        mod.awgn_llr(0.1)
    t = SpanTable(tracer.spans(), tracer.names)
    assert t.wait_s("sim.draw_messages_and_noise") == pytest.approx(0.1, abs=0.05)
    assert t.wait_s("sim.awgn_llr") == pytest.approx(
        t.wall_s("sim.awgn_llr") - t.cpu_s("sim.awgn_llr"))
    assert t.cpu_s("sim.awgn_llr") >= 0.1


def _snapshot(modules):
    return {(mod.__name__, attr): value for mod in modules for attr, value in vars(mod).items()}


def _layer_modules():
    import importlib
    return {layer: importlib.import_module(f"fastssc.{layer}") for layer in LAYERS}


CODE = fastssc.construct_code(64, 32, 2.0)


def _small_decode():
    llr = np.random.default_rng(0).normal(1.0, 1.0, (8, 64))
    return fastssc.fast.fast_ssc_decode(CODE, llr, fastssc.QuantSpec(4, 5, 0))


def test_traced_run_restores_every_module_attribute():
    modules = _layer_modules()
    everything = [*modules.values(), fastssc]
    before = _snapshot(everything)
    tracer = Tracer(modules)
    with tracer.active():
        assert fastssc.fast.f_min_sum is not before[("fastssc.fast", "f_min_sum")]
        assert fastssc.sim.run_point is not before[("fastssc.sim", "run_point")]
        _small_decode()
    assert tracer.spans()["name"].size > 0
    after = _snapshot(everything)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    with pytest.raises(RuntimeError, match="boom"):
        with Tracer(modules).active():
            _small_decode()
            raise RuntimeError("boom")
    after = _snapshot(everything)
    assert all(after[k] is before[k] for k in before)


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS
    assert [w["name"] for w in declared["workloads"]] == [w.name for w in WORKLOADS]

    modules = _layer_modules()
    tracer = Tracer(modules)
    with tracer.active():
        _small_decode()
    t = SpanTable(tracer.spans(), tracer.names)
    run = {"frames": 8, "batches": 1, "workers": 1, "traced_fps": 1.0, "untraced_fps": 1.0,
           "cycles": 0, "saturated_frac": 0.0}
    m = layer_metrics(t, t, run)
    assert sorted(m) == sorted(x["name"] for x in declared["per_layer"])
    assert m["fast.visits.branch"] > 0
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(m["fast.decode_s"])
