"""Dead-code guard: every public top-level function or class of the package,
and every public method or property of a public class, is named by some
other code of the package or by the acceptance gate."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "whitney"
GATE = ROOT / "tests" / "test_acceptance.py"

# Public names kept although no module or gate calls them, one reason each.
ALLOWED = {
    "truncate_poly": "oracle of the jet-algebra tests (ring structure)",
    "poly_multiply": "oracle of the jet-algebra tests (untruncated product)",
    "jet_to_json": "serializer of the jet format, round-tripped by tests",
    "jet_from_json": "parser of the jet format, round-tripped by tests",
    "cutoff_spec_to_json": "serializer of the cutoff-spec format",
    "cutoff_spec_from_json": "parser of the cutoff-spec format",
    "finite_difference": "1-row stencil call of the derivative tests and "
                         "the perfbench tracer",
}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _references(path: Path):
    """``(name, line)`` of every name, attribute and imported name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _public_defs(tree):
    """Public top-level functions and classes, and the public methods and
    properties of those classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def unreferenced_public_names() -> set:
    defs = {}                   # name -> [(file, first line, last line)]
    for path in _modules():
        for node in _public_defs(ast.parse(path.read_text())):
            defs.setdefault(node.name, []).append(
                (path, node.lineno, node.end_lineno))
    used = set()
    for path in _modules() + [GATE]:
        for name, line in _references(path):
            if name in defs and not any(
                    where == path and first <= line <= last
                    for where, first, last in defs[name]):
                used.add(name)
    return set(defs) - used


def test_every_public_name_is_used_or_allowed():
    assert unreferenced_public_names() == set(ALLOWED)
