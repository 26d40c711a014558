"""Every public function, class and method in src/perronpoly is reached,
and every import in src/perronpoly and tests/ is read.

A public top-level function or class must be exported in `__all__` or be
referenced somewhere in src/ outside its own body, and a public method or
property of a class must be read as an attribute somewhere in src/ outside
its own body; anything else is code that only tests run, and belongs under
tests/.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import perronpoly

SRC = Path(perronpoly.__file__).parent
TESTS = Path(__file__).parent

# matrices is read by no other module in src/, but it stays: README presents
# it as the library that acceptance C7 checks, and the benchmark's tracer
# (perfbench/tracing.py) imports every module in its LAYERS, matrices among
# them, so moving it would break every traced benchmark run.
EXEMPT_MODULES = {"matrices"}


def _references(tree: ast.AST) -> Counter[str]:
    """How often each name is read in tree, as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreached(src: Path = SRC) -> list[str]:
    """module.name of each public top-level function or class in the package
    at src that is neither in perronpoly.__all__ nor referenced outside its
    own body."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    missing = []
    for module, tree in trees.items():
        if module in EXEMPT_MODULES:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in perronpoly.__all__:
                continue
            if everywhere[name] == _references(node)[name]:
                missing.append(f"{module}.{name}")
    return missing


def _attribute_reads(tree: ast.AST) -> Counter[str]:
    """How often each name is read as an attribute in tree."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def unread_methods(src: Path = SRC) -> list[str]:
    """module.Class.name of each public method or property of a top-level
    class in the package at src that no code there reads as an attribute
    outside its own body. Dunder methods and dataclass fields are not
    methods of this kind, so they are never reported."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    everywhere = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    missing = []
    for module, tree in trees.items():
        if module in EXEMPT_MODULES:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                if everywhere[node.name] == _attribute_reads(node)[node.name]:
                    missing.append(f"{module}.{cls.name}.{node.name}")
    return missing


def test_every_public_definition_is_reached():
    assert unreached() == []


def test_every_public_method_is_read():
    assert unread_methods() == []


def test_an_unreferenced_definition_is_flagged(tmp_path):
    # The check itself: a public function nothing calls is reported, and one
    # that another public function calls is not.
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text(
        "def orphan():\n    return helper()\n\n\ndef helper():\n    return helper\n"
    )
    assert unreached(tmp_path) == ["extra.orphan"]


def test_an_unread_method_is_flagged(tmp_path):
    # The check itself: a method read only inside its own body is reported;
    # a property another method reads, a dunder method and a field are not.
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text(
        "class Box:\n"
        "    size: int\n\n"
        "    def __len__(self):\n        return self.size\n\n"
        "    @property\n"
        "    def area(self):\n        return self.size * self.size\n\n"
        "    def grow(self):\n        return self.area + self.grow\n"
    )
    assert unread_methods(tmp_path) == ["extra.Box.grow"]


def unused_imports(source: str) -> list[str]:
    """Each name the module source imports and never reads; a name listed in
    its __all__ counts as read."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            read |= {item.value for item in node.value.elts}
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    return [name for name in imported if name not in read]


def test_every_import_is_read():
    # The check itself first: os is bound by "import os.path" and never read.
    assert unused_imports("import os.path\nfrom sys import argv, exit\nexit(argv)\n") == ["os"]
    unused = {
        path.relative_to(path.parents[1]).as_posix(): unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    }
    assert {path: names for path, names in unused.items() if names} == {}
