"""Every file path the prose documents name in backticks must exist."""
from __future__ import annotations

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


def doc_paths(doc: str) -> list[str]:
    """Path-like words inside backtick spans of ``doc``; a pytest node
    id counts as its file, and patterns (``*``, ``…``) are skipped."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    words = (
        w.split("::")[0]
        for span in re.findall(r"`([^`\n]+)`", text)
        for w in span.split()
    )
    return [w for w in words if PATH.match(w) and not set("*…") & set(w)]


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_exist(doc):
    paths = doc_paths(doc)
    assert paths, f"{doc} names no file path"
    missing = [
        p for p in paths if not any((b / p.lstrip("/")).exists() for b in BASES)
    ]
    assert not missing, f"{doc} names missing paths: {missing}"
