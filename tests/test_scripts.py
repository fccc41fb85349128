import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_latency_sweep_smoke(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = load_script("latency_sweep").main(
        ["--n", "64", "--rate-step", "0.25", "--k-list", "32", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["K"] for r in rows] == ["16", "32", "48"]
    assert "(64,32) @ 2.0 dB:" in capsys.readouterr().out


def test_quant_study_smoke(tmp_path):
    out = tmp_path / "quant.csv"
    rc = load_script("quant_study").main(
        ["--n", "32", "--k", "16", "--ebn0", "2:3:1", "--schemes", "4,5,0",
         "--min-frame-errors", "2", "--max-frames", "200", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert [(r["scheme"], r["ebn0_db"]) for r in rows] == [
        ("float", "2.0"), ("float", "3.0"), ("4,5,0", "2.0"), ("4,5,0", "3.0")]


def test_cli_outputs_smoke(tmp_path, capsys):
    module = load_script("cli_outputs")
    assert module.main([str(tmp_path)]) == 0
    names = [name for name, _ in module.calls()]
    assert len(set(names)) == len(names)
    assert {f"{name}.txt" for name in names} <= {p.name for p in tmp_path.iterdir()}
    # the (64,32) decodes are the CLI goldens
    data = Path(__file__).parent / "data"
    goldens = sorted(data.glob("decode_ga64_32_*"))
    assert len(goldens) == 4
    for golden in goldens:
        assert (tmp_path / golden.name).read_bytes() == golden.read_bytes()
    rows = list(csv.DictReader((tmp_path / "ber_ga1024_512_hw_w2.csv").open()))
    assert [(r["ebn0_db"], r["frames"]) for r in rows] == [("2.0", "600"), ("2.5", "600")]
    assert f"ran {len(names)} calls" in capsys.readouterr().out
