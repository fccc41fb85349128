import csv
import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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
    # the fixed frames file holds two frames around a blank line
    for label in ("sc", "fast_ssc_q450_hardware", "hw_trace"):
        out = (tmp_path / f"decode_ga64_32_frame_file_{label}.txt").read_text()
        assert out.count("u_hat=") == 2
    rows = list(csv.DictReader((tmp_path / "ber_ga1024_512_hw_w2.csv").open()))
    assert [(r["ebn0_db"], r["frames"]) for r in rows] == [("2.0", "600"), ("2.5", "600")]
    assert f"ran {len(names)} calls" in capsys.readouterr().out
    # Every output is pinned by its digest.  The ber digests also pin
    # numpy's Philox and normal streams, as test_draw_golden_values does.
    pinned = (data / "cli_outputs.sha256").read_text()
    want = dict(reversed(line.split("  ", 1)) for line in pinned.splitlines())
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir() if p.name != module.MANIFEST}
    assert sorted(set(got) ^ set(want)) == []
    assert [name for name in sorted(want) if got[name] != want[name]] == []
    assert (tmp_path / module.MANIFEST).read_text() == pinned


def test_line_coverage_smoke():
    # a subprocess, so the package is first imported under the tracer
    run = subprocess.run([sys.executable, str(SCRIPTS / "line_coverage.py"), "-q",
                          "-p", "no:cacheprovider", "tests/test_docs.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    package = ROOT / "src" / "fastssc"
    unreached = {name: rest.split("statements unreached")[1].split()
                 for name, _, rest in (line.partition(": ") for line in run.stdout.splitlines())
                 if name.endswith(".py")}
    assert set(unreached) == {path.name for path in package.glob("*.py")}

    def line_of(module, start):
        lines = (package / module).read_text().splitlines()
        return str(next(i for i, line in enumerate(lines, 1) if line.startswith(start)))

    # module-level lines run on import; the entry point never runs in-process
    assert line_of("core.py", "MAX_N = ") not in unreached["core.py"]
    assert line_of("cli.py", "    sys.exit(main())") in unreached["cli.py"]
