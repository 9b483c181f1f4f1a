"""Every public top-level name of the package, and every public method and
property of its classes, is used outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "echosent"


def defined_names(tree):
    """The public functions, classes and assigned names at a module's top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def class_members(tree):
    """``Class.member`` and the member name of each public method and property
    of the classes at a module's top level. Dunders are exempt; record fields
    are out of scope (``asdict``/``astuple`` read them without their names)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(tree):
    """Names a module loads, the attributes it reads, the names it imports,
    and identifier-like strings (the benchmark tracer names its targets so)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def referenced_from_src_or_bench():
    # references from tests, bench/tests included, do not count
    sources = [
        path for top in ("src", "bench") for path in sorted((ROOT / top).rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts
    ]
    referenced = set()
    for path in sources:
        referenced.update(referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
    return referenced


def package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_name_is_referenced_from_src_or_bench():
    referenced = referenced_from_src_or_bench()
    unused = [
        f"{module}.{name}"
        for module, tree in package_trees()
        for name in defined_names(tree)
        if name not in referenced
    ]
    assert unused == []


def test_every_public_method_is_referenced_from_src_or_bench():
    # a method counts as used when its name is read anywhere outside the
    # tests; a definition alone is not a reference
    referenced = referenced_from_src_or_bench()
    unused = [
        f"{module}.{qualified}"
        for module, tree in package_trees()
        for qualified, name in class_members(tree)
        if name not in referenced
    ]
    assert unused == []
