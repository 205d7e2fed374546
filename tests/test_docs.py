"""The documents cite only checks that exist.

EXPERIMENTS.md names, under each paper artifact, the test that checks
its claims; DESIGN.md, the README and ``docs/`` cite tests and
benchmark scripts the same way.  Every cited ``tests/…py::name`` and
``benchmarks/…py`` (and every bare ``test_*.py`` / ``bench_*``) must
name a file that exists, and each ``::`` part a class, function or
method defined in it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

#: ``tests/test_x.py::Class::test_y`` or ``benchmarks/bench_x.py``
CITED_PATH = re.compile(r"((?:tests|benchmarks)/[\w/]+\.py)((?:::\w+)*)")
#: a bare file name, resolved in the directory its prefix names; a
#: benchmark script may be cited without its ``.py``
CITED_NAME = re.compile(r"(?<![/\w])(test_\w+\.py|bench_\w+(?:\.py)?)\b")
HOME = {"test": "tests", "bench": "benchmarks"}


def citations(text: str) -> list[tuple[str, list[str]]]:
    """(path, [name, ...]) for each citation in ``text``."""
    found = [
        (m.group(1), [n for n in m.group(2).split("::") if n])
        for m in CITED_PATH.finditer(text)
    ]
    for m in CITED_NAME.finditer(text):
        name = m.group(1).removesuffix(".py") + ".py"
        found.append((f"{HOME[name.split('_', 1)[0]]}/{name}", []))
    return found


def defines(path: Path, names: list[str]) -> bool:
    """Whether ``path`` defines ``names[0]`` at module level and each
    further name inside the class before it."""
    body = ast.parse(path.read_text()).body
    for name in names:
        node = next(
            (
                n for n in body
                if isinstance(
                    n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                ) and n.name == name
            ),
            None,
        )
        if node is None:
            return False
        body = node.body if isinstance(node, ast.ClassDef) else []
    return True


def test_citations_are_found():
    text = "`tests/test_a.py::TestB::test_c`, bench_d.py, `bench_e`, test_f.py"
    assert citations(text) == [
        ("tests/test_a.py", ["TestB", "test_c"]),
        ("benchmarks/bench_d.py", []),
        ("benchmarks/bench_e.py", []),
        ("tests/test_f.py", []),
    ]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_cited_checks_exist(doc):
    missing = []
    for path, names in citations(doc.read_text()):
        target = ROOT / path
        if not target.is_file() or not defines(target, names):
            missing.append("::".join([path, *names]))
    assert not missing, f"{doc.name} cites checks that do not exist: {missing}"
