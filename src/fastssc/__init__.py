"""Polar encode/decode with pruned-tree shortcuts and a cycle-level datapath model."""

from .core import (
    CodeConstruction,
    PolarCode,
    construct_code,
    encode,
    frozen_file_text,
    polar_transform,
    read_frozen_file,
    write_frozen_file,
)
from .fast import (
    DecodeNode,
    NodeKind,
    ScheduleReport,
    classified,
    fast_ssc_decode,
    latency_model,
    latency_reduction_sweep,
    node_cycles,
    sc_latency_cycles,
    two_bit_precomputed_cycles,
)
from .hw import (
    HwDecodeResult,
    PuTree,
    hw_decode_frame,
    write_trace_jsonl,
)
from .quant import (
    QuantSpec,
    dequantize,
    quantize_channel,
    validate_quantized,
)
from .reference import (
    DecodeResult,
    sc_decode,
)
from .sim import (
    ChannelConfig,
    StopRule,
    TrialStats,
    awgn_llr,
    run_ber_sweep,
    run_point,
    stats_csv_text,
    throughput_gbps,
)

__version__ = "0.1.0"

__all__ = [
    "CodeConstruction",
    "PolarCode",
    "construct_code",
    "encode",
    "polar_transform",
    "frozen_file_text",
    "read_frozen_file",
    "write_frozen_file",
    "QuantSpec",
    "quantize_channel",
    "dequantize",
    "validate_quantized",
    "DecodeResult",
    "sc_decode",
    "sc_latency_cycles",
    "two_bit_precomputed_cycles",
    "NodeKind",
    "DecodeNode",
    "classified",
    "fast_ssc_decode",
    "ScheduleReport",
    "node_cycles",
    "latency_model",
    "latency_reduction_sweep",
    "PuTree",
    "HwDecodeResult",
    "hw_decode_frame",
    "write_trace_jsonl",
    "ChannelConfig",
    "StopRule",
    "TrialStats",
    "awgn_llr",
    "run_point",
    "run_ber_sweep",
    "throughput_gbps",
    "stats_csv_text",
]
