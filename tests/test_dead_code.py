"""Dead-code guards: every public top-level function or class of the
package, and every public method or property of a public class, is named by
some other code of the package or by the acceptance gate; every defaulted
parameter of a package function is passed by some call of the package or
the gate; and every top-level import of a package module is read by that
module or imported from it by another."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "whitney"
GATE = ROOT / "tests" / "test_acceptance.py"

# Public names kept although no module or gate calls them, one reason each.
ALLOWED = {
    "finite_difference": "1-row stencil call of the derivative tests and "
                         "the perfbench tracer",
}
# Defaulted parameters kept although no package or gate call passes them.
ALLOWED_DEFAULTS = {
    "verify.finite_difference.h": ALLOWED["finite_difference"],
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


def _defaulted(fn: ast.FunctionDef):
    """``(name, position)`` of every parameter of ``fn`` with a default;
    the position counts the arguments a call passes, so ``self`` is left
    out of a method's, and a keyword-only parameter has none."""
    args = fn.args.posonlyargs + fn.args.args
    skip = 1 if args and args[0].arg in ("self", "cls") else 0
    first = len(args) - len(fn.args.defaults)
    for i, a in enumerate(args[first:], first):
        yield a.arg, i - skip
    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _calls(path: Path):
    """``(callee name, call node)`` of every call in ``path``; a name
    bound by ``from x import name as alias`` calls ``name``."""
    tree = ast.parse(path.read_text())
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names
               if a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = (aliases.get(f.id, f.id) if isinstance(f, ast.Name)
                    else getattr(f, "attr", None))
            yield name, node


def unpassed_defaults() -> set:
    """``module.function.parameter`` of every defaulted parameter that no
    call in the package or the acceptance gate passes, by keyword or by
    position; a call from another test does not keep a default alive.
    Calls match definitions by name (a class name calls its ``__init__``),
    and a definition's calls of itself do not count."""
    defs = []                   # (path, callee name, def node)
    for path in _modules():
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defs.extend((path, node.name, item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and item.name == "__init__")
            elif isinstance(node, ast.FunctionDef) and node.name != "__init__":
                defs.append((path, node.name, node))
    calls = [(path, callee, node)
             for path in _modules() + [GATE]
             for callee, node in _calls(path)]
    out = set()
    for path, name, fn in defs:
        mine = [c for where, callee, c in calls if callee == name and not (
            where == path and fn.lineno <= c.lineno <= fn.end_lineno)]
        for param, position in _defaulted(fn):
            if not any(any(k.arg == param for k in c.keywords)
                       or (position is not None and len(c.args) > position)
                       for c in mine):
                out.add(f"{path.stem}.{fn.name}.{param}")
    return out


def test_every_default_is_passed_somewhere():
    """A default that no product or gate call overrides is a constant in
    disguise."""
    assert unpassed_defaults() == set(ALLOWED_DEFAULTS)


def _top_level_imports(tree):
    """``(bound name, line)`` of every import outside a function or class
    body (``try``/``if`` blocks at module level included), except
    ``from __future__``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Try, ast.If)):
            stack.extend(node.body + node.orelse
                         + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
        elif isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for a in node.names:
                yield a.asname or a.name, node.lineno


def unread_imports() -> set:
    """``module.name`` of every top-level import that no line of its module
    reads and that no other package module imports from it."""
    trees = {path.stem: ast.parse(path.read_text()) for path in _modules()}
    reexported = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                reexported.update((node.module, a.name) for a in node.names)
    out = set()
    for stem, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for name, _ in _top_level_imports(tree):
            if name not in read and (stem, name) not in reexported:
                out.add(f"{stem}.{name}")
    return out


def test_every_import_is_read():
    """An import that nothing reads is left over from a deletion."""
    assert unread_imports() == set()
