import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tier1", ROOT / "tools" / "tier1.py")
tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tier1)


def test_red_ids_read_only_the_short_summary():
    lines = [
        "FAILED printed by a test, not a summary line",
        "=========================== short test summary info ============================",
        "FAILED tests/test_a.py::test_x[2] - AssertionE...",
        "FAILED tests/test_a.py::test_y",
        "ERROR tests/test_b.py - ImportError: no module",
        "ERROR tests/test_c.py::test_z - RuntimeError",
        "17 failed, 917 passed in 67.48s (0:01:07)",
    ]
    assert tier1.red_ids(lines) == {
        "tests/test_a.py::test_x[2]",
        "tests/test_a.py::test_y",
        "tests/test_b.py",
        "tests/test_c.py::test_z",
    }
    assert tier1.red_ids(lines[:1] + lines[-1:]) == set()


def test_differences_name_new_failures_and_listed_tests_that_did_not_fail():
    assert tier1.differences({"a", "b"}, {"a", "b"}) == []
    assert tier1.differences({"a", "c"}, {"a", "b"}) == [
        "new failure: c",
        "listed but not red: b",
    ]


def test_known_red_lists_the_acceptance_discrepancies():
    known = tier1.known_red()
    assert len(known) == 17
    source = (ROOT / "tests" / "test_acceptance.py").read_text()
    for node in known:
        name = re.fullmatch(r"tests/test_acceptance\.py::(\w+)(\[.*\])?", node)[1]
        assert f"def {name}(" in source
