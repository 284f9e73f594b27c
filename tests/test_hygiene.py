"""Every name a library module imports is used in that module, and every
name it defines is referenced: a private one in `src/`, a public function,
class or method in `src/`, `tests/` or `bench/`.  No library module names
mpmath's `nsum`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "legmellin"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node):
    """Names inside a string annotation such as -> "HPComplex"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def _unused_imports(tree):
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_only_what_it_uses(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _module_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _private_definitions(tree):
    """Module-level names starting with a single underscore."""
    return {n for n in _module_level_names(tree) if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    """Names read, attributes read, and names imported anywhere in tree."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
        elif isinstance(node, ast.arg):
            refs |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            refs |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            refs |= _annotation_names(node.annotation)
    return refs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_private_names_are_referenced(path):
    referenced = set()
    for module in SRC.glob("*.py"):
        referenced |= _references(ast.parse(module.read_text()))
    assert sorted(_private_definitions(ast.parse(path.read_text())) - referenced) == []


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods of
    those classes as Class.method."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return {n for n in names if not n.rpartition(".")[2].startswith("_")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_public_names_are_referenced(path):
    # the re-exports of __init__ are not uses
    users = [*MODULES, *(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    referenced = set()
    for module in users:
        referenced |= _references(ast.parse(module.read_text()))
    unused = {n for n in _public_definitions(ast.parse(path.read_text()))
              if n.rpartition(".")[2] not in referenced}
    assert sorted(unused) == []


def test_package_exports_only_what_other_files_use():
    # a name in __all__ earns its place by a reference outside its own
    # module and __init__; return types are reached through their modules
    init = SRC / "__init__.py"
    trees = {p: ast.parse(p.read_text()) for p in
             [*SRC.glob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]}
    exported = next(ast.literal_eval(node.value) for node in trees[init].body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    unused = []
    for name in exported:
        home = next(p for p in [init, *MODULES] if name in _module_level_names(trees[p]))
        if not any(name in _references(tree) for p, tree in trees.items()
                   if p not in (home, init)):
            unused.append(name)
    assert unused == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_does_not_use_nsum(path):
    # mpmath's nsum differentiates numerically and integrates its tail by
    # quadrature; the series routes sum with stated bounds instead
    assert "nsum" not in path.read_text()
