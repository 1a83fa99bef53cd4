import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    # the README's library sketch uses only names the package exports
    (sketch,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    ns = {}
    exec(compile(sketch, str(README), "exec"), ns)
    assert ns["rel"] <= 1e-25
    assert ns["report"].passes(ns["state"].curve.c)
