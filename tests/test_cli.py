import contextlib
import inspect
import io
import json
import os
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastssc import cli, construct_code, read_frozen_file, sim
from fastssc.cli import MAX_CHUNK_VALUES, MAX_RANGE_POINTS, main, parse_ebn0
from fastssc.core import MAX_N
from conftest import DATA_DIR


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_stdout(capsys):
    rc, out, err = run_cli(capsys, "construct", "--n", "16", "--k", "8")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "16 8"
    assert len(lines[1].split()) == 8


def test_construct_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "code.txt"
    rc, out, _ = run_cli(capsys, "construct", "--n", "64", "--k", "32",
                         "--design-snr", "1.5", "--out", str(path))
    assert rc == 0
    code = read_frozen_file(path)
    assert (code.frozen == construct_code(64, 32, 1.5).frozen).all()


def test_schedule_output_and_json(tmp_path, capsys):
    jpath = tmp_path / "sched.json"
    rc, out, _ = run_cli(capsys, "schedule", "--n", "64", "--k", "32", "--json", str(jpath))
    assert rc == 0
    total_line = [l for l in out.splitlines() if l.startswith("total_cycles=")][0]
    total = int(total_line.split("=")[1])
    rows = json.loads(jpath.read_text())
    assert total == sum(r["cycles"] for r in rows)
    assert any(l.startswith("reduction_vs_two_bit") for l in out.splitlines())


def test_schedule_matches_golden(tmp_path, capsys):
    # goldens of the GA-2.0 (64,32) code pin the printed and JSON formats
    jpath = tmp_path / "sched.json"
    rc, out, _ = run_cli(capsys, "schedule", "--n", "64", "--k", "32", "--design-snr", "2.0",
                         "--json", str(jpath))
    assert rc == 0
    assert out == (DATA_DIR / "schedule_ga64_32.txt").read_text() + f"wrote {jpath}\n"
    assert jpath.read_text() == (DATA_DIR / "schedule_ga64_32.json").read_text()


def test_schedule_no_precompute_costs_more(capsys):
    def total(*extra):
        rc, out, _ = run_cli(capsys, "schedule", "--n", "128", "--k", "64", *extra)
        assert rc == 0
        return int([l for l in out.splitlines() if l.startswith("total_cycles=")][0].split("=")[1])

    assert total("--no-precompute") > total()


def test_decode_random_frame_matches(capsys):
    rc, out, _ = run_cli(capsys, "decode", "--n", "32", "--k", "16",
                         "--ebn0", "12", "--seed", "4", "--frames", "3")
    assert rc == 0
    assert out.count("match=True") == 3


def test_decode_frame_file(tmp_path, capsys):
    # noiseless all-zero frame: decoder must return the zero word
    path = tmp_path / "frames.txt"
    # blank lines are skipped
    path.write_text("\n" + " ".join(["5.0"] * 16) + "\n\n")
    rc, out, _ = run_cli(capsys, "decode", "--n", "16", "--k", "8", "--frame-file", str(path))
    assert rc == 0
    assert "u_hat=0000000000000000" in out
    assert out.count("u_hat=") == 1


def test_decode_hw_with_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    rc, out, _ = run_cli(capsys, "decode", "--n", "16", "--k", "8", "--decoder", "hw",
                         "--ebn0", "8", "--trace", str(trace))
    assert rc == 0
    assert "cycles=" in out
    rows = [json.loads(l) for l in trace.read_text().splitlines()]
    assert rows and set(rows[0]) == {"cycle", "stage", "unit", "op", "in", "out"}


def test_decode_matches_golden(tmp_path, capsys):
    # goldens of three GA-2.0 (64,32) frames at 2 dB pin decode's stdout and trace
    trace = tmp_path / "trace.jsonl"
    for name, extra in [
        ("sc", ("--decoder", "sc")),
        ("fast_ssc_q450_hardware",
         ("--decoder", "fast-ssc", "--quant", "4,5,0", "--tie-mode", "hardware")),
        ("hw_trace", ("--decoder", "hw", "--trace", str(trace))),
    ]:
        rc, out, err = run_cli(capsys, "decode", "--n", "64", "--k", "32", "--ebn0", "2",
                               "--frames", "3", *extra)
        assert (rc, err) == (0, "")
        assert out == (DATA_DIR / f"decode_ga64_32_{name}.txt").read_text()
    assert trace.read_bytes() == (DATA_DIR / "decode_ga64_32_hw_trace.jsonl").read_bytes()


def test_ber_csv_output(tmp_path, capsys):
    out_path = tmp_path / "ber.csv"
    rc, out, _ = run_cli(capsys, "ber", "--n", "64", "--k", "32", "--ebn0", "2,4",
                         "--min-frame-errors", "5", "--max-frames", "2000",
                         "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "ebn0_db,frames,bit_errors,frame_errors,ber,fer"
    assert len(lines) == 3


def test_ber_stop_defaults_are_the_stop_rule_defaults():
    assert (sim.StopRule().min_frame_errors, sim.StopRule().max_frames) == (200, 10_000_000)
    args = cli.build_parser().parse_args(["ber", "--n", "16", "--k", "8", "--ebn0", "2"])
    assert (args.min_frame_errors, args.max_frames) == (200, 10_000_000)
    # the rest of ber's defaults are the harness's own
    point = inspect.signature(sim.run_point).parameters
    sweep = inspect.signature(sim.run_ber_sweep).parameters
    harness = (point["batch"].default, point["workers"].default, point["tie_mode"].default,
               sweep["seed"].default, point["decoder"].default)
    assert harness == (2048, 1, "exact", 0, "fast_ssc")
    mapped = cli._decoder_settings(args)
    assert (args.batch, args.workers, mapped["tie_mode"], args.seed, mapped["decoder"]) == harness


def test_ber_out_fails_before_the_sweep(tmp_path, capsys):
    rc, out, err = run_cli(capsys, "ber", "--n", "16", "--k", "8", "--ebn0", "2",
                           "--max-frames", "100", "--out", str(tmp_path / "missing" / "x.csv"))
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")


def test_ber_ebn0_range_syntax(capsys):
    rc, out, _ = run_cli(capsys, "ber", "--n", "16", "--k", "8", "--ebn0", "0:2:1",
                         "--min-frame-errors", "2", "--max-frames", "200")
    assert rc == 0
    assert out.count("ebn0_db=") == 3


BAD_RANGES = [  # (token, a piece of its error message)
    ("1:2:0", "needs finite bounds"), ("1:2:-0.5", "needs finite bounds"),
    ("1:inf:1", "needs finite bounds"), ("1:2:nan", "needs finite bounds"),
    ("0:1:1e-6", "more than 1000 points"), ("0:1e300:1e-300", "needs finite bounds"),
    ("5:5:1e-300", "needs finite bounds"), ("0:0:1e-300", "needs finite bounds"),
    # reversed, and finer than the 1e-6 dB rounding of points
    ("3:1:0.5", "needs finite bounds"), ("1:1.000001:1e-8", "needs finite bounds"),
    # half-way points that round onto each other
    ("1.0000005:1.0000205:1e-6", "appears more than once"),
    ("0.0000005:0.0001:1e-6", "appears more than once"),
    # a point repeated across tokens
    ("2,1:3:1", "appears more than once"), ("2,2", "appears more than once"),
    # too many or too few fields
    ("1:2:0.5:3", "'1:2:0.5:3' must have the form lo:hi:step"),
    ("1:2", "'1:2' must have the form lo:hi:step"),
]


@pytest.mark.parametrize("bad, message", BAD_RANGES, ids=[bad for bad, _ in BAD_RANGES])
def test_parse_ebn0_rejects_bad_ranges(bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_ebn0(bad)


@pytest.mark.parametrize("extra", [("--ebn0", "1:2:0"), ("--ebn0", "2", "--batch", "0"),
                                   ("--ebn0", "2", "--max-frames", "0"),
                                   ("--ebn0", "2", "--min-frame-errors", "0"),
                                   ("--ebn0", "1e6"), ("--ebn0=-1e6",), ("--ebn0", "nan"),
                                   ("--ebn0", "2", "--seed", "-1"),
                                   ("--ebn0", "2", "--seed", str(2**64)),
                                   ("--ebn0", "5:5:1e-300"),
                                   ("--ebn0", "2", "--workers", "0"),
                                   ("--ebn0", "2,3:1:0.5"),
                                   ("--ebn0", "1.0000005:1.0000205:1e-6"),
                                   ("--ebn0", "2,1:3:1"), ("--ebn0", "2,2")])
def test_ber_bad_sweep_exits_one(capsys, extra):
    rc, _, err = run_cli(capsys, "ber", "--n", "8", "--k", "4", "--max-frames", "10", *extra)
    assert rc == 1
    assert err.startswith("error:")


BAD_INPUT = [  # (argv, a piece of its error message)
    (("decode", "--frames", "0"), "--frames must be >= 1"),
    (("decode", "--ebn0", "1e6"), "no finite nonzero linear value"),
    (("construct", "--design-snr", "nan"), "no finite nonzero linear value"),
    (("construct", "--design-snr", "nan", "--method", "bhattacharyya"),
     "no finite nonzero linear value"),
    (("construct", "--design-snr", "inf"), "no finite nonzero linear value"),
    (("construct", "--design-snr", "1e6"), "no finite nonzero linear value"),
    (("schedule", "--n", "1", "--k", "1"), "schedule needs N >= 2"),
    (("decode", "--decoder", "hw", "--quant", "1,1,0"), "need 2 <= C <= L"),
    (("decode", "--seed", "-1"), "seed must be in 0..2**64-1"),
    (("decode", "--seed", str(2**64)), "seed must be in 0..2**64-1"),
    (("ber", "--ebn0", "2", "--seed", "-1"), "seed must be in 0..2**64-1"),
    (("ber", "--ebn0", "2", "--seed", str(2**64)), "seed must be in 0..2**64-1"),
    # size caps, checked before anything of that size is built
    (("construct", "--n", str(2 * MAX_N), "--k", "1"), "above the cap"),
    (("schedule", "--n", str(2 * MAX_N), "--k", "1"), "above the cap"),
    # an unwritable --json path fails before the schedule is printed
    (("schedule", "--json", "/nonexistent/x.json"), "No such file or directory"),
    (("decode", "--frames", str(MAX_CHUNK_VALUES // 16 + 1)), "holds more than"),
    (("ber", "--ebn0", "2", "--batch", str(MAX_CHUNK_VALUES // 16 + 1)), "holds more than"),
    # an empty value is a bad value, not an absent option
    (("decode", "--quant", ""), "quantization spec must be 'C,L,F'"),
    (("ber", "--ebn0", "2", "--quant", ""), "quantization spec must be 'C,L,F'"),
    (("decode", "--frozen-file", ""), "No such file or directory"),
    (("decode", "--frame-file", ""), "No such file or directory"),
    (("decode", "--decoder", "sc", "--trace", ""), "only available with --decoder hw"),
    (("decode", "--decoder", "hw", "--trace", ""), "No such file or directory"),
    (("schedule", "--json", ""), "No such file or directory"),
    (("construct", "--out", ""), "No such file or directory"),
    (("ber", "--ebn0", "2", "--out", ""), "No such file or directory"),
    # a frozen-set file's 'N K' line reads as a frame of two values
    (("decode", "--frame-file", str(DATA_DIR / "frozen_1024_512_ga2.0.txt")),
     "frame length 2 does not match N=16"),
    (("decode", "--frame-file", os.devnull), "no frames in"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUT,
                         ids=[f"argv{i}" for i in range(len(BAD_INPUT))])
def test_bad_input_exits_one_with_no_output(capsys, argv, message):
    # the default code goes first, so a case may override --n and --k
    rc, out, err = run_cli(capsys, argv[0], "--n", "16", "--k", "8", *argv[1:])
    assert rc == 1
    assert err.startswith("error:") and message in err
    assert out == ""


def test_parse_ebn0_range_point_cap():
    assert len(parse_ebn0(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
    with pytest.raises(ValueError, match="more than"):
        parse_ebn0(f"0:{MAX_RANGE_POINTS}:1")


def test_decode_frame_file_counts_against_the_chunk_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "frames.txt"
    path.write_text("1 2 3 4 -1 -2 -3 -4\n" * 3)
    monkeypatch.setattr(cli, "MAX_CHUNK_VALUES", 2 * 8)
    rc, out, err = run_cli(capsys, "decode", "--n", "8", "--k", "4", "--frame-file", str(path))
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: a chunk of 3 frames of N=8")


def test_frame_file_loads_within_twice_its_block(tmp_path):
    # the frames fill one float64 block line by line; lists of Python floats
    # copied into an array once peaked near five times the block
    path = tmp_path / "frames.txt"
    want = np.random.default_rng(5).integers(-64, 64, size=(256, 1024)) / 8
    np.savetxt(path, want, fmt="%g")
    tracemalloc.start()
    try:
        got = cli._load_frames(path, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.float64 and (got == want).all()
    assert peak < 2 * got.nbytes


def test_frame_file_reads_from_a_pipe(tmp_path, capsys):
    # the file is read once, so a pipe decodes as the same lines in a file do
    text = "1.5 -2 0.5 3 -1 2 -0.5 1\n\n-1,2,-3,0.25,1,-2,3,-0.75\n4 -4 4 -4 1 -1 0 2\n"
    path = tmp_path / "frames.txt"
    path.write_text(text)
    argv = ["decode", "--n", "8", "--k", "4", "--decoder", "sc", "--frame-file"]
    rc, want, err = run_cli(capsys, *argv, str(path))
    assert (rc, err, want.count("u_hat=")) == (0, "", 3)
    fifo = tmp_path / "frames.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    assert run_cli(capsys, *argv, str(fifo)) == (0, want, "")
    writer.join(timeout=10)


def test_decode_frame_file_rejects_nan(tmp_path, capsys):
    path = tmp_path / "frames.txt"
    path.write_text("1 2 nan 4 -1 -2 -3 -4\n")
    rc, out, err = run_cli(capsys, "decode", "--n", "8", "--k", "4", "--frame-file", str(path))
    assert rc == 1
    assert err.startswith("error:")
    assert "u_hat" not in out


def test_decode_frame_file_rejects_empty_fields(tmp_path, capsys):
    path = tmp_path / "frames.txt"
    path.write_text("1.5,,-2\n")
    rc, out, err = run_cli(capsys, "decode", "--n", "2", "--k", "1", "--frame-file", str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    # whitespace or commas alone still separate values
    for text in ("1.5 -2\n", "1.5,-2\n", "1.5, -2\n"):
        path.write_text(text)
        assert run_cli(capsys, "decode", "--n", "2", "--k", "1", "--frame-file", str(path))[0] == 0


def test_decode_frame_file_rejects_llrs_beyond_max_over_n(tmp_path, capsys):
    path = tmp_path / "frames.txt"
    path.write_text(" ".join(["-1e308"] + ["1e308"] * 15) + "\n")
    rc, out, err = run_cli(capsys, "decode", "--n", "16", "--k", "8", "--frame-file", str(path))
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: LLRs must be finite with |llr| <= float64 max / N")


def test_quantized_ber_smoke(capsys):
    rc, out, _ = run_cli(capsys, "ber", "--n", "32", "--k", "16", "--ebn0", "3",
                         "--quant", "4,5,0", "--decoder", "hw",
                         "--min-frame-errors", "2", "--max-frames", "300")
    assert rc == 0


def test_ber_hw_defaults_to_the_tree_spec(capsys):
    def csv(*extra):
        rc, out, _ = run_cli(capsys, "ber", "--n", "16", "--k", "8", "--decoder", "hw",
                             "--ebn0", "3", "--max-frames", "200", *extra)
        assert rc == 0
        return out

    assert csv() == csv("--quant", "4,5,0")


def test_errors_exit_one(capsys):
    rc, out, err = run_cli(capsys, "construct", "--n", "12", "--k", "6")
    assert rc == 1
    assert err.startswith("error:")
    rc, _, err = run_cli(capsys, "construct", "--k", "6")
    assert rc == 1
    assert "error:" in err
    rc, _, err = run_cli(capsys, "decode", "--n", "8", "--k", "4",
                         "--decoder", "sc", "--trace", "x.jsonl")
    assert rc == 1
    rc, _, err = run_cli(capsys, "ber", "--n", "8", "--k", "4", "--ebn0", "")
    assert rc == 1


def test_frozen_file_feeds_other_commands(tmp_path, capsys):
    path = tmp_path / "c.txt"
    run_cli(capsys, "construct", "--n", "32", "--k", "20", "--out", str(path))
    rc, out, _ = run_cli(capsys, "schedule", "--frozen-file", str(path))
    assert rc == 0
    assert "total_cycles=" in out


# Inputs for the CLI fuzzer: small codes and budgets, plus values past each cap.
# Each argument list breaks at most one rule, so most of them reach the decoders.
FAULTS = ["size", "source", "file", "snr", "seed", "quant", "path", "frames", "ebn0", "stop",
          "batch", "workers"]
# faults whose bad values are all invalid, so a run that applied one must fail
# (decode --frame-file never reads --seed, and the other bad sets hold valid values)
FATAL_FAULTS = {"size", "source", "quant", "path", "stop", "batch", "workers"}
NUMBERS = ["0", "1", "2.5", "-3", "12", "1e6", "-1e6", "nan", "inf", "1e-300"]
LLRS = ["0", "1.5", "-2", "7"]
BAD_LLRS = ["1e308", "-1e308", "nan", "inf", "x"]
OVERSIZE = [2 * MAX_N, 1 << 40]


def _opt(flag, value):
    # the joined form, so argparse takes a leading '-' as part of the value
    return f"{flag}={value}"


@st.composite
def cli_argv(draw):
    """An argument list argparse accepts, the files it reads, and the fault
    it applied (None when no option it drew took a bad value)."""
    fault = draw(st.sampled_from([None] * len(FAULTS) + FAULTS))
    applied = []

    def pick(name, good, bad):
        if fault != name:
            return draw(good)
        applied.append(name)
        return draw(bad)

    files = {}
    command = draw(st.sampled_from(["construct", "schedule", "decode", "ber"]))
    argv = [command]
    N = pick("size", st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
             st.sampled_from([-4, 0, 3, 12] + OVERSIZE))
    K = draw(st.integers(1, N)) if 1 <= N <= 64 else 1
    if fault == "size" and draw(st.booleans()):
        N = draw(st.sampled_from([1, 2, 8, 64]))
        K = draw(st.sampled_from([-1, 0, N + 1]))
    source = pick("source", st.sampled_from(["nk", "file"]), st.just("none"))
    if source == "nk":
        argv += [_opt("--n", N), _opt("--k", K)]
    elif source == "file":
        body = []
        if 1 <= K <= N <= 64:
            body = [str(i) for i in draw(st.permutations(range(N)))[: N - K]]
        body = pick("file", st.just(body),
                    st.lists(st.integers(-2, 66).map(str) | st.just("x"), max_size=66))
        if not (fault == "file" and draw(st.booleans())):
            files["code.txt"] = f"{N} {K}\n{' '.join(body)}\n"
        argv.append(_opt("--frozen-file", "{tmp}/code.txt"))
    if draw(st.booleans()) or fault == "snr":
        argv.append(_opt("--design-snr", pick("snr", st.sampled_from(["-1", "0", "2.5", "5"]),
                                              st.sampled_from(NUMBERS))))
    if draw(st.booleans()):
        argv.append(_opt("--method", draw(st.sampled_from(["ga", "bhattacharyya"]))))

    def path(name):
        return pick("path", st.just(f"{{tmp}}/{name}"),
                    st.sampled_from([f"{{tmp}}/missing/{name}", ""]))

    if command in ("decode", "ber"):
        argv += [_opt("--decoder", draw(st.sampled_from(["sc", "fast-ssc", "hw"]))),
                 _opt("--tie-mode", draw(st.sampled_from(["exact", "hardware"]))),
                 _opt("--seed", pick("seed", st.sampled_from([0, 7, 2**64 - 1]),
                                     st.sampled_from([-1, 2**64])))]
        if draw(st.booleans()) or fault == "quant":
            argv.append(_opt("--quant", pick(
                "quant", st.sampled_from(["4,5,0", "3,4,1", "6,8,2", "2,63,1", "54,63,0"]),
                st.sampled_from(["1,1,0", "4,3,0", "4,5,4", "64,64,0", "4,5", "a,b,c", ""]))))
    if command == "construct" and draw(st.booleans()):
        argv.append(_opt("--out", path("code_out.txt")))
    elif command == "schedule":
        if draw(st.booleans()):
            argv.append("--no-precompute")
        if draw(st.booleans()):
            argv.append(_opt("--json", path("schedule.json")))
    elif command == "decode":
        if draw(st.booleans()):
            width = pick("frames", st.just(N if 1 <= N <= 64 else 16),
                         st.sampled_from([1, 2, 8, 15, 16, 64]))
            llr = st.sampled_from(LLRS + BAD_LLRS if fault == "frames" else LLRS)
            rows = draw(st.lists(st.lists(llr, min_size=width, max_size=width),
                                 min_size=0 if fault == "frames" else 1, max_size=3))
            files["frames.txt"] = "".join(" ".join(row) + "\n" for row in rows)
            argv.append(_opt("--frame-file", "{tmp}/frames.txt"))
        else:
            ebn0 = pick("ebn0", st.sampled_from(["-1", "2.5", "12"]), st.sampled_from(NUMBERS))
            frames = pick("frames", st.integers(1, 32),
                          st.sampled_from([-1, 0, MAX_CHUNK_VALUES + 1]))
            argv += [_opt("--ebn0", ebn0), _opt("--frames", frames)]
        if draw(st.booleans()):
            argv.append(_opt("--trace", path("trace.jsonl")))
    elif command == "ber":
        point = st.sampled_from(NUMBERS)
        span = st.tuples(st.sampled_from(["-1", "0", "1.5", "3", "1e6", "nan"]),
                         st.sampled_from(["-1", "0", "2", "3", "1e6", "inf"]),
                         st.sampled_from(["0.5", "1", "2", "0", "-1", "1e-7", "1e-300", "nan"]))
        ebn0 = pick("ebn0", st.sampled_from(["0", "2.5", "-1,4", "0:2:1"]),
                    st.lists(point | span.map(":".join), min_size=1, max_size=3).map(",".join))
        stop_fault = pick("stop", st.just(None), st.sampled_from(["--min-frame-errors",
                                                                  "--max-frames"]))
        stop = {"--min-frame-errors": draw(st.integers(1, 20)),
                "--max-frames": draw(st.integers(1, 300))}
        if stop_fault:
            stop[stop_fault] = draw(st.integers(-1, 0))
        argv += [_opt("--ebn0", ebn0), *(_opt(k, v) for k, v in stop.items()),
                 _opt("--batch", pick("batch", st.sampled_from([1, 16, 100, 2048]),
                                      st.sampled_from([-1, 0, MAX_CHUNK_VALUES + 1]))),
                 _opt("--workers", pick("workers", st.sampled_from([1, 2, 64]),
                                        st.sampled_from([-1, 0])))]
        if draw(st.booleans()):
            argv.append(_opt("--out", path("ber.csv")))
    return argv, files, applied[0] if applied else None


@settings(max_examples=400)
@given(cli_argv())
def test_cli_fuzz_exits_zero_or_one_error_line(case):
    argv, files, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [a.replace("{tmp}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    err = err.getvalue()
    if fault in FATAL_FAULTS:
        assert rc == 1
    if rc == 0:
        assert err == ""
    else:
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
