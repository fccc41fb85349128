import importlib
import pkgutil
import re
from pathlib import Path

import fastssc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "289\n289\n"


def test_readme_names_of_library_objects_resolve():
    # `fastssc.<mod>.<name>` and `<mod>.<name>` point readers at code, so a
    # rename or deletion must take the README with it.
    mods = "|".join(m.name for m in pkgutil.iter_modules(fastssc.__path__))
    refs = re.findall(rf"`(?:fastssc\.)?({mods})\.(\w+)`", README.read_text())
    assert refs
    missing = [f"{mod}.{name}" for mod, name in refs
               if not hasattr(importlib.import_module(f"fastssc.{mod}"), name)]
    assert missing == []
