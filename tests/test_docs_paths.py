"""Docs may only name code that exists.

Every backticked repository path in DESIGN.md, README.md and
``docs/*.md`` must resolve against the tree, and every backticked
``repro.<module>`` dotted name must import. (``perf/README.md`` belongs
to the benchmark and is left out.)

A backticked token counts as a path when it ends in a source/document
suffix or a slash, or starts at one of the repo's top-level directories.
Paths may be written relative to the repo root, to ``src/`` or to
``src/repro/`` (``hadoop/local.py``); ``{a,b}`` alternation and ``*``
globs are expanded; a ``:symbol`` / ``::test`` tail is ignored.
Placeholders (``<app>``), generated outputs and bare file names with no
directory are not checked.
"""

from __future__ import annotations

import importlib
import itertools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "DESIGN.md", ROOT / "README.md",
        *sorted((ROOT / "docs").glob("*.md"))]
BASES = [ROOT, ROOT / "src", ROOT / "src" / "repro"]

_TOP_DIRS = ("src/", "repro/", "tests/", "benchmarks/", "examples/",
             "docs/", "perf/", ".github/")
_SUFFIXES = (".py", ".md", ".json", ".yml", ".toml", "/")
_PATH_CHARS = re.compile(r"[\w.\-/{},*]+")
#: Written by a run, not checked in.
_GENERATED = ("perf/out/", "sweep-artifacts/")


def _backticked(doc: Path) -> list[str]:
    text = re.sub(r"```.*?```", "", doc.read_text(encoding="utf-8"),
                  flags=re.S)
    return re.findall(r"`([^`\n]+)`", text)


def _expand(token: str) -> list[str]:
    """``a/{b,c}.py`` → ``a/b.py``, ``a/c.py``."""
    parts = re.split(r"\{([^{}]*)\}", token)
    choices = [part.split(",") if i % 2 else [part]
               for i, part in enumerate(parts)]
    return ["".join(combo) for combo in itertools.product(*choices)]


def _paths(doc: Path) -> list[str]:
    found = []
    for token in _backticked(doc):
        token = token.split(":", 1)[0]
        if not _PATH_CHARS.fullmatch(token) or "/" not in token:
            continue
        if token.startswith(_GENERATED):
            continue
        if token.endswith(_SUFFIXES) or token.startswith(_TOP_DIRS):
            found.extend(_expand(token))
    return found


def _exists(path: str) -> bool:
    return any(next(base.glob(path.rstrip("/")), None) is not None
               for base in BASES)


def _dotted(doc: Path) -> list[str]:
    return [token for token in _backticked(doc)
            if re.fullmatch(r"repro(\.[A-Za-z_]\w*)+", token)]


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix, then getattr the rest."""
    names = dotted.split(".")
    for cut in range(len(names), 0, -1):
        try:
            obj = importlib.import_module(".".join(names[:cut]))
        except ImportError:
            continue
        try:
            for attr in names[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_every_backticked_path_exists(doc):
    missing = sorted({p for p in _paths(doc) if not _exists(p)})
    assert not missing, f"{doc.name} names paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_every_backticked_module_imports(doc):
    missing = sorted({d for d in _dotted(doc) if not _resolves(d)})
    assert not missing, f"{doc.name} names modules that do not exist: {missing}"


def test_module_maps_cover_every_package():
    """README's Architecture tree and DESIGN.md §3 are written from the
    tree: each lists every package under ``src/repro/``, and the tree
    lists no package that is gone."""
    packages = {p.parent.name
                for p in (ROOT / "src" / "repro").glob("*/__init__.py")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tree = readme[readme.index("```\nsrc/repro/\n"):]
    tree = tree[:tree.index("```", 3)]
    assert set(re.findall(r"^  (\w+)/", tree, re.M)) == packages
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert {p for p in packages if f"`repro/{p}/" not in design} == set()


def test_the_checker_sees_paths_and_catches_a_missing_one(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`repro/hadoop/{local,shuffle}.py` `hadoop/local.py:map_task` "
        "`tests/golden/*.trace.json` `repro/cluster/` `repro/gpu/memory.py` "
        "`<app>/x.py` `a/b` `wc.json`\n```\n`repro/nope.py`\n```\n"
        "`repro.hadoop.local.LocalJobRunner` `repro.cluster`\n")
    assert [p for p in _paths(doc) if not _exists(p)] == [
        "repro/cluster/", "repro/gpu/memory.py"]
    assert len(_paths(doc)) == 6
    assert [d for d in _dotted(doc) if not _resolves(d)] == ["repro.cluster"]
