"""Every module-level import in src/ and tests/ is used by its module, and
every definition in src/ is read by some module of src/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
SOURCES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))

def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_scan_flags_an_unused_import():
    source = "import json\nfrom os import path, sep\n\nprint(sep)\n"
    assert unused_imports(source) == [(1, "json"), (2, "path")]


def test_no_unused_module_level_imports():
    assert SOURCES
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def definitions(tree) -> list:
    """(line, qualified name, is_method) of every function, class and
    method; dunder methods are left out, since the language calls them."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    is_method = isinstance(node, ast.ClassDef)
                    found.append((child.lineno, prefix + name, is_method))
                visit(child, prefix + name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def names_read(tree) -> tuple:
    """(names loaded, attributes loaded) in the tree; the names an import
    binds are not reads."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def unread_definitions(sources: dict) -> list:
    """`path:line: name` for each definition whose last name component no
    module in `sources` (path -> source text) reads: a method counts as read
    only through an attribute load, any other definition through either."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    reads = [names_read(tree) for tree in trees.values()]
    attributes = set().union(*(a for _, a in reads))
    anywhere = attributes.union(*(n for n, _ in reads))
    return [
        f"{path}:{line}: {name}"
        for path, tree in trees.items()
        for line, name, is_method in definitions(tree)
        if name.rsplit(".", 1)[-1] not in (attributes if is_method else anywhere)
    ]


def test_the_scan_flags_an_unread_definition():
    library = {
        "m.py": (
            "class A:\n"
            "    def used(self): return helper()\n"
            "    def unused(self): pass\n"
            "    def __len__(self): return 0\n"
            "    def local(self): pass\n"
            "def helper(): pass\n"
            "def orphan(): pass\n"
        ),
        # an import of orphan, and a store to a name like it, are not reads;
        # a local variable named like a method does not read the method
        "n.py": (
            "from m import A, orphan\n"
            "unused = A().used()\n"
            "local = 1\n"
            "print(local)\n"
        ),
    }
    assert unread_definitions(library) == [
        "m.py:3: A.unused",
        "m.py:5: A.local",
        "m.py:7: orphan",
    ]


def test_every_library_definition_is_read_in_the_library():
    assert LIBRARY
    found = unread_definitions(
        {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in LIBRARY}
    )
    assert found == []
