"""The docs name files and objects that exist.

Every backticked token in DESIGN.md, README.md and EXPERIMENTS.md of
two kinds must resolve:

* a repository path — a word with a ``/`` and a file extension — must
  exist under the repository root, ``src/`` or ``src/repro/``; a path
  whose first directory also exists at the root (``experiments/``,
  ``tests/``) must exist at the root;
* a ``path::Name[::name]`` test reference must also name a class or
  function that the file defines, found by parsing it with ``ast``
  (nothing is imported);
* a ``repro.`` dotted name must import, with ``getattr`` for the
  trailing parts.

Bare file names and fenced code blocks are out of scope, except that
every ``python -m repro.experiments`` command line, fenced or not, must
select at least one experiment with each name it passes.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.experiments.__main__ import select

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"^[\w.\-/]*/[\w.\-]*\.[A-Za-z0-9]+$")
_NAME = re.compile(r"^repro(?:\.\w+)+")
_CLI = re.compile(r"python -m repro\.experiments(?![.\w])((?: [\w\-]+)*)")


def _references():
    paths, nodes, names, cli = [], [], [], []
    for doc in DOCS:
        raw = (ROOT / doc).read_text()
        for args in _CLI.findall(raw):
            cli.extend((doc, arg) for arg in args.split()
                       if not arg.startswith("-"))
        for span in _SPAN.findall(_FENCE.sub("", raw)):
            name = _NAME.match(span)
            if name:
                names.append((doc, name.group(0)))
                continue
            for word in span.split():
                path = word.split("::")[0]
                if _PATH.match(path):
                    paths.append((doc, path))
                    if path != word:
                        nodes.append((doc, word))
    return (sorted(set(paths)), sorted(set(nodes)), sorted(set(names)),
            sorted(set(cli)))


PATHS, NODES, NAMES, CLI_NAMES = _references()


def _resolve(path: str):
    """The file ``path`` names, or ``None``."""
    first = path.split("/")[0]
    bases = ((ROOT,) if (ROOT / first).is_dir()
             else (ROOT, ROOT / "src", ROOT / "src" / "repro"))
    return next((base / path for base in bases if (base / path).exists()),
                None)


def _node_exists(reference: str) -> bool:
    path, *names = reference.split("::")
    found = _resolve(path)
    if found is None:
        return False
    body = ast.parse(found.read_text()).body
    for name in names:
        name = name.split("[")[0]
        node = next((node for node in body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                     and node.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


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
    assert len(NODES) > 10 and CLI_NAMES


@pytest.mark.parametrize("doc,path", PATHS,
                         ids=[f"{doc}:{path}" for doc, path in PATHS])
def test_path_exists(doc, path):
    assert _resolve(path) is not None, f"{doc} names missing path {path}"


@pytest.mark.parametrize("doc,reference", NODES,
                         ids=[f"{doc}:{ref}" for doc, ref in NODES])
def test_node_exists(doc, reference):
    assert _node_exists(reference), f"{doc} names missing {reference}"


@pytest.mark.parametrize("doc,name", CLI_NAMES,
                         ids=[f"{doc}:{name}" for doc, name in CLI_NAMES])
def test_cli_name_selects(doc, name):
    assert select([name]), f"{doc}: {name!r} selects no experiment"


@pytest.mark.parametrize("doc,name", NAMES,
                         ids=[f"{doc}:{name}" for doc, name in NAMES])
def test_name_resolves(doc, name):
    assert _name_resolves(name), f"{doc} names unresolvable {name}"
