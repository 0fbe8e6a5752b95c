"""Every public function, class, method and property of the library has a
caller in what the command line, the benchmark and the acceptance criteria
run: its name is referenced somewhere in ``src/``, ``perfbench/`` or
``tests/test_acceptance.py`` outside its own definition, so a unit test
alone keeps no symbol alive.  Every parameter of a public function, method
or property is read in its body.  Every public field of a library dataclass
is read as an attribute somewhere in ``src/``, ``tests/`` or ``perfbench/``.
Every name a library module imports at module level is read in that
module, but for the package's re-exports, marked ``# noqa: F401``.
Names are found through the AST, so this file keeps no name alive by
listing it."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "stringfock").glob("*.py"))
SEARCHED = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
CALLERS = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")) \
    + [ROOT / "tests" / "test_acceptance.py"]


def referenced_names(tree):
    """Identifiers a tree mentions: names, attributes, imports and string
    constants (``perfbench/spans.py`` names the attributes it wraps)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def public_definitions(tree):
    """Module-level functions and classes, and the methods and properties of
    classes, whose names do not start with an underscore."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_symbol_has_a_caller():
    everywhere = Counter()
    for path in CALLERS:
        everywhere += referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, node in public_definitions(tree):
            name = node.name
            if everywhere[name] - referenced_names(node)[name] <= 0:
                uncalled.append(f"{path.stem}.{qualname}")
    assert not uncalled, f"public symbols with no caller: {uncalled}"


def test_every_public_parameter_is_read():
    unread = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, node in public_definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs \
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread.extend(f"{path.stem}.{qualname}.{a.arg}" for a in params
                          if a.arg not in read)
    assert not unread, f"public parameters never read: {unread}"


def dataclass_fields(tree):
    """Annotated fields of the module-level classes decorated with
    ``dataclass``, whose names do not start with an underscore."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        for member in node.body:
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name) \
                    and not member.target.id.startswith("_"):
                yield f"{node.name}.{member.target.id}", member.target.id


def test_every_public_dataclass_field_is_read():
    read = Counter()
    for path in SEARCHED:
        read.update(n.attr for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    unread = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unread.extend(f"{path.stem}.{qualname}" for qualname, name in dataclass_fields(tree)
                      if not read[name])
    assert not unread, f"public dataclass fields never read: {unread}"


def test_every_module_level_import_is_read():
    unread = []
    for path in LIBRARY:
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__" \
                    and "# noqa: F401" not in lines[node.end_lineno - 1]:
                bound = (a.asname or a.name.partition(".")[0] for a in node.names)
                unread.extend(f"{path.stem}.{name}" for name in bound if name not in read)
    assert not unread, f"module-level imports never read: {unread}"
