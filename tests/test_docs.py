import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "289\n289\n"
