"""Every module-level import in src/ and tests/ is used by its module, and
every definition in src/ is read by some module of src/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
SOURCES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))

# definitions no library module reads, each with the reason it stays
UNREAD_ALLOWED = {
    # the reference oracle of test_to_mpc_is_the_embedding_midpoint_bit_for_bit,
    # and the ball path that the certified enclosures of ROADMAP item 6 build on
    "FieldElement.embed_complex",
}


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
    """(line, qualified name) of every function, class and method; dunder
    methods are left out, since the language calls them."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((child.lineno, prefix + name))
                visit(child, prefix + name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def names_read(tree) -> set:
    """Every name loaded, and every attribute read, in the tree; the names an
    import binds are not reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_definitions(sources: dict) -> list:
    """`path:line: name` for each definition whose last name component no
    module in `sources` (path -> source text) reads."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return [
        f"{path}:{line}: {name}"
        for path, tree in trees.items()
        for line, name in definitions(tree)
        if name.rsplit(".", 1)[-1] not in read and name not in UNREAD_ALLOWED
    ]


def test_the_scan_flags_an_unread_definition():
    library = {
        "m.py": (
            "class A:\n"
            "    def used(self): return helper()\n"
            "    def unused(self): pass\n"
            "    def __len__(self): return 0\n"
            "def helper(): pass\n"
            "def orphan(): pass\n"
        ),
        # an import of orphan, and a store to a name like it, are not reads
        "n.py": "from m import A, orphan\nunused = A().used()\n",
    }
    assert unread_definitions(library) == ["m.py:3: A.unused", "m.py:6: orphan"]


def test_every_library_definition_is_read_in_the_library():
    assert LIBRARY
    found = unread_definitions(
        {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in LIBRARY}
    )
    assert found == []
