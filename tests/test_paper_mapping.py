"""Every code reference in the docs resolves to live code.

docs/paper_mapping.md is how a reader finds the paper in this repository, and
the other docs cite symbols and tests the same way.  A deletion that leaves a
row pointing at gone code fails here:

* each `` `repro.x.y.Z` `` span (``{a,b}`` alternatives expanded, a trailing
  ``.*`` dropped) must import and resolve attribute by attribute;
* each ``path.py::Name[::member]`` reference (a bare ``test_*.py`` is under
  ``tests/``) and each ``tests/testlib.<name>`` must name a class or
  function defined in that file.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / name for name in
                                               ("DESIGN.md", "README.md", "EXPERIMENTS.md")]

_SYMBOL = re.compile(r"`(repro\.[\w.{},*]+)`")
_TEST_REF = re.compile(r"((?:[\w.-]+/)*[\w-]+\.py)::(\w+(?:::\w+)*)")
_TESTLIB_REF = re.compile(r"tests/testlib\.(\w+)")


def _expand(span: str) -> list[str]:
    """``repro.m.{a,b}`` -> ``repro.m.a``, ``repro.m.b``; ``repro.m.*`` -> ``repro.m``."""
    alt = re.search(r"\{([^}]*)\}", span)
    if alt is None:
        return [span.removesuffix(".*")]
    return [name for choice in alt.group(1).split(",")
            for name in _expand(span[:alt.start()] + choice + span[alt.end():])]


def _resolve(dotted: str) -> object:
    """Import the longest module prefix of ``dotted``, then getattr the rest.

    Only a missing module *named by the prefix* moves on to a shorter one; an
    import error raised inside an existing module propagates."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name is None or not (name + ".").startswith(exc.name + "."):
                raise
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _defines(path: pathlib.Path, chain: list[str]) -> bool:
    """Whether ``path`` defines the class / function ``chain`` (outermost first)."""
    node: ast.AST | None = ast.parse(path.read_text())
    for name in chain:
        node = next((child for child in node.body
                     if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name),
                    None)
        if node is None:
            return False
    return True


def _doc_text():
    for doc in DOCS:
        yield doc.relative_to(ROOT), doc.read_text()


def test_every_cited_repro_symbol_resolves():
    cited, missing = set(), []
    for doc, text in _doc_text():
        for span in _SYMBOL.findall(text):
            for dotted in _expand(span):
                cited.add(dotted)
                try:
                    _resolve(dotted)
                except (ImportError, AttributeError) as exc:
                    missing.append(f"{doc}: `{dotted}` ({exc})")
    assert len(cited) > 50, sorted(cited)  # the scan itself still finds the rows
    assert not missing, "\n".join(missing)


def test_every_cited_test_resolves():
    cited, missing = set(), []
    for doc, text in _doc_text():
        refs = [(path, chain.split("::")) for path, chain in _TEST_REF.findall(text)]
        refs += [("tests/testlib.py", [name]) for name in _TESTLIB_REF.findall(text)]
        for path, chain in refs:
            file = ROOT / path
            if not file.exists() and "/" not in path:
                file = ROOT / "tests" / path
            cited.add((str(file), tuple(chain)))
            if not (file.exists() and _defines(file, chain)):
                missing.append(f"{doc}: {path}::{'::'.join(chain)}")
    assert len(cited) > 10, sorted(cited)
    assert not missing, "\n".join(missing)
