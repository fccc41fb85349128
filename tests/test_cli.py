import json

import numpy as np
import pytest

from fastssc import construct_code, read_frozen_file
from fastssc.cli import MAX_CHUNK_VALUES, MAX_N, MAX_RANGE_POINTS, main, parse_ebn0
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
    path.write_text(" ".join(["5.0"] * 16) + "\n")
    rc, out, _ = run_cli(capsys, "decode", "--n", "16", "--k", "8", "--frame-file", str(path))
    assert rc == 0
    assert "u_hat=0000000000000000" in out


def test_decode_hw_with_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    rc, out, _ = run_cli(capsys, "decode", "--n", "16", "--k", "8", "--decoder", "hw",
                         "--ebn0", "8", "--trace", str(trace))
    assert rc == 0
    assert "cycles=" in out
    rows = [json.loads(l) for l in trace.read_text().splitlines()]
    assert rows and set(rows[0]) == {"cycle", "stage", "unit", "op", "in", "out"}


def test_ber_csv_output(tmp_path, capsys):
    out_path = tmp_path / "ber.csv"
    rc, out, _ = run_cli(capsys, "ber", "--n", "64", "--k", "32", "--ebn0", "2,4",
                         "--min-frame-errors", "5", "--max-frames", "2000",
                         "--out", str(out_path))
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "ebn0_db,frames,bit_errors,frame_errors,ber,fer"
    assert len(lines) == 3


def test_ber_ebn0_range_syntax(capsys):
    rc, out, _ = run_cli(capsys, "ber", "--n", "16", "--k", "8", "--ebn0", "0:2:1",
                         "--min-frame-errors", "2", "--max-frames", "200")
    assert rc == 0
    assert out.count("ebn0_db=") == 3


@pytest.mark.parametrize("bad", ["1:2:0", "1:2:-0.5", "1:inf:1", "1:2:nan", "0:1:1e-6",
                                 "0:1e300:1e-300", "5:5:1e-300", "0:0:1e-300"])
def test_parse_ebn0_rejects_bad_ranges(bad):
    with pytest.raises(ValueError):
        parse_ebn0(bad)


@pytest.mark.parametrize("extra", [("--ebn0", "1:2:0"), ("--ebn0", "2", "--batch", "0"),
                                   ("--ebn0", "2", "--max-frames", "0"),
                                   ("--ebn0", "2", "--min-frame-errors", "0"),
                                   ("--ebn0", "1e6"), ("--ebn0=-1e6",), ("--ebn0", "nan"),
                                   ("--ebn0", "2", "--seed", "-1"),
                                   ("--ebn0", "2", "--seed", str(2**64)),
                                   ("--ebn0", "5:5:1e-300"),
                                   ("--ebn0", "2", "--workers", "0")])
def test_ber_bad_sweep_exits_one(capsys, extra):
    rc, _, err = run_cli(capsys, "ber", "--n", "8", "--k", "4", "--max-frames", "10", *extra)
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("decode", "--frames", "0"),
    ("decode", "--ebn0", "1e6"),
    ("construct", "--design-snr", "nan"),
    ("construct", "--design-snr", "nan", "--method", "bhattacharyya"),
    ("construct", "--design-snr", "inf"),
    ("construct", "--design-snr", "1e6"),
    ("schedule", "--n", "1", "--k", "1"),
    ("decode", "--decoder", "hw", "--quant", "1,1,0"),
    ("decode", "--seed", "-1"),
    ("decode", "--seed", str(2**64)),
    ("ber", "--ebn0", "2", "--seed", "-1"),
    ("ber", "--ebn0", "2", "--seed", str(2**64)),
    # size caps, checked before anything of that size is built
    ("construct", "--n", str(2 * MAX_N), "--k", "1"),
    ("schedule", "--n", str(2 * MAX_N), "--k", "1"),
    ("decode", "--frames", str(MAX_CHUNK_VALUES // 16 + 1)),
    ("ber", "--ebn0", "2", "--batch", str(MAX_CHUNK_VALUES // 16 + 1)),
])
def test_bad_input_exits_one_with_no_output(capsys, argv):
    # the default code goes first, so a case may override --n and --k
    rc, out, err = run_cli(capsys, argv[0], "--n", "16", "--k", "8", *argv[1:])
    assert rc == 1
    assert err.startswith("error:")
    assert out == ""


def test_parse_ebn0_range_point_cap():
    assert len(parse_ebn0(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
    with pytest.raises(ValueError, match="more than"):
        parse_ebn0(f"0:{MAX_RANGE_POINTS}:1")


def test_decode_frame_file_rejects_nan(tmp_path, capsys):
    path = tmp_path / "frames.txt"
    path.write_text("1 2 nan 4 -1 -2 -3 -4\n")
    rc, out, err = run_cli(capsys, "decode", "--n", "8", "--k", "4", "--frame-file", str(path))
    assert rc == 1
    assert err.startswith("error:")
    assert "u_hat" not in out


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
