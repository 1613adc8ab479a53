"""Every file path and pytest node id the prose documents name in
backticks must exist."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")
# a word is a path when it has a directory part or a file extension
PATH = re.compile(
    r"^/?[\w.\-]+(/[\w.\-]*)+$|^[\w\-]+\.(py|md|csv|json|sh|toml|log)$"
)


def backticked_words(doc: str) -> list[str]:
    """Whitespace-separated words inside backtick spans of ``doc``."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    return [
        w for span in re.findall(r"`([^`\n]+)`", text) for w in span.split()
    ]


def doc_paths(doc: str) -> list[str]:
    """Path-like words of ``doc``; a pytest node id counts as its file,
    and patterns (``*``, ``…``) are skipped."""
    words = (w.split("::")[0] for w in backticked_words(doc))
    return [w for w in words if PATH.match(w) and not set("*…") & set(w)]


def node_ids(doc: str) -> list[str]:
    """Pytest node ids (``file.py::Class::test``) of ``doc``."""
    return [w for w in backticked_words(doc) if ".py::" in w]


def resolves(node_id: str) -> bool:
    """Does ``node_id``'s file define its class and test, nested as the
    id says?  A parametrization suffix (``[...]``) is ignored."""
    path, *names = node_id.split("::")
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        name = name.split("[")[0]
        node = next(
            (
                n
                for n in body
                if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                and n.name == name
            ),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_exist(doc):
    paths = doc_paths(doc)
    assert paths, f"{doc} names no file path"
    missing = [
        p for p in paths if not any((b / p.lstrip("/")).exists() for b in BASES)
    ]
    assert not missing, f"{doc} names missing paths: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_node_ids_resolve(doc):
    missing = [i for i in node_ids(doc) if not resolves(i)]
    assert not missing, f"{doc} names missing tests: {missing}"


def test_node_id_resolution():
    assert resolves("tests/test_docs.py::test_backticked_node_ids_resolve")
    assert resolves("tests/test_docs.py::test_backticked_paths_exist[x]")
    assert not resolves("tests/test_docs.py::resolves::node")
    assert not resolves("tests/test_docs.py::test_missing")
