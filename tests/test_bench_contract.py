"""The benchmark's workloads, driven the way ``perfbench/run.py`` drives them.

Each workload is set up with ``setup_probe.bind``, runs one request through
its own entry point (``fastssc ber``, ``run_point`` or ``hw_decode_frame``)
and must then pass its own oracle and cycle checks.  The files under
``perfbench/`` are only read.
"""

import importlib
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import setup_probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("wl", workloads.WORKLOADS, ids=lambda wl: wl.name)
def test_workload_request_passes_its_checks(tmp_path, wl):
    runner = workloads.make_runner(wl, setup_probe.bind(asdict(wl), tmp_path / "code.txt"), seed=0)
    # One frame past a batch: the Monte-Carlo loop ends on a partial chunk.
    # A datapath request is one block, whatever it is asked for.
    frames = runner.step(wl.batch + 1)[0]
    assert frames == (wl.batch if wl.entry == "hw" else wl.batch + 1)
    checked, mismatched, cycles, cycle_errors = runner.check()
    assert (checked, mismatched, cycle_errors) == (workloads.GATE_FRAMES, 0, 0)
    assert cycles == runner.expected_cycles


def test_traced_names_missing_from_the_library_are_known():
    # The tracer skips a name the library lacks, and its metric then reads 0.
    # These fourteen were deleted from fast, hw and reference; a rename
    # elsewhere must fail here.
    missing = {f"{layer}.{name}" for layer, names in tracing.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"fastssc.{layer}"), name, None))}
    assert missing == {"fast.classify_tree", "fast.decode_rate1", "fast.decode_rep",
                       "fast.decode_spc", "fast.fold_argmin", "fast._rate1_tie_risk",
                       "fast._spc_tie_risk", "hw._scalarize", "hw.rep_hw_decode",
                       "hw.spc_hw_decode", "reference.combine_beta", "reference.f_min_sum",
                       "reference.g_function", "reference.hard_decision"}
