"""CI runs the suite under Python 3.10 and 3.11.  This test parses every
source file with the 3.10 grammar, so that syntax newer than 3.10 (say,
``except*``) fails here too under a newer interpreter.  It catches syntax
only: a call to a library function that 3.10 lacks (say, ``tomllib`` or
``datetime.UTC``) still parses, and shows only on a 3.10 run."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path.relative_to(ROOT)
    for top in ("src", "tests", "perfbench")
    for path in (ROOT / top).rglob("*.py")
)


def test_sources_are_found():
    assert Path("src/xcache/daemon.py") in SOURCES and Path("perfbench/run.py") in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_parses_as_python_3_10(path):
    ast.parse((ROOT / path).read_text(), filename=str(path), feature_version=(3, 10))
