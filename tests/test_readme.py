"""The README's Python API block runs as documented."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from bbp_secrecy import bounds

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs(monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.setenv("BBP_THREADS", "1")
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["pt"].outer == pytest.approx(0.95, abs=1e-12)
    assert namespace["stats"].blocks == 10**4
    assert out.getvalue().startswith("verification: K=8 B=2 L=3 ")


def test_named_closed_forms_exist():
    # The sentence lists the closed forms by name; a deleted or renamed
    # function must not stay listed there.
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"The closed forms in `bbp_secrecy\.bounds` \((.*?)\)", text).group(1)
    names = re.findall(r"`(\w+)", listed)
    assert names
    for name in names:
        assert hasattr(bounds, name), name
