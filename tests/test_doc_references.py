"""The docs name files and objects that exist.

Every backticked token in DESIGN.md, README.md and EXPERIMENTS.md of
two kinds must resolve:

* a repository path — a word with a ``/`` and a file extension — must
  exist under the repository root, ``src/`` or ``src/repro/``; a path
  whose first directory also exists at the root (``experiments/``,
  ``tests/``) must exist at the root;
* a ``repro.`` dotted name must import, with ``getattr`` for the
  trailing parts.

Bare file names and fenced code blocks are out of scope.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"^[\w.\-/]*/[\w.\-]*\.[A-Za-z0-9]+$")
_NAME = re.compile(r"^repro(?:\.\w+)+")


def _references():
    paths, names = [], []
    for doc in DOCS:
        text = _FENCE.sub("", (ROOT / doc).read_text())
        for span in _SPAN.findall(text):
            name = _NAME.match(span)
            if name:
                names.append((doc, name.group(0)))
                continue
            for word in span.split():
                word = word.split("::")[0]
                if _PATH.match(word):
                    paths.append((doc, word))
    return sorted(set(paths)), sorted(set(names))


PATHS, NAMES = _references()


def _path_exists(path: str) -> bool:
    first = path.split("/")[0]
    if (ROOT / first).is_dir():
        return (ROOT / path).exists()
    return any((base / path).exists()
               for base in (ROOT, ROOT / "src", ROOT / "src" / "repro"))


def _name_resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            found = importlib.util.find_spec(module) is not None
        except ModuleNotFoundError:
            found = False
        if not found:
            continue
        if cut == len(parts):
            return True
        obj = importlib.import_module(module)
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_docs_have_references():
    assert len(PATHS) > 20 and len(NAMES) > 20


@pytest.mark.parametrize("doc,path", PATHS,
                         ids=[f"{doc}:{path}" for doc, path in PATHS])
def test_path_exists(doc, path):
    assert _path_exists(path), f"{doc} names missing path {path}"


@pytest.mark.parametrize("doc,name", NAMES,
                         ids=[f"{doc}:{name}" for doc, name in NAMES])
def test_name_resolves(doc, name):
    assert _name_resolves(name), f"{doc} names unresolvable {name}"
