"""Every module-level import in src/ and tests/ is used by its module,
every definition in src/ is read by some module of src/, every field a
class in src/ declares is read in src/ or by the benchmark in perfbench/,
mpmath is imported by `ellaw` alone, so the exact modules load without
it, and no library module imports `dataclasses`, so start-up loads
neither it nor `inspect`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
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


def _texts(paths) -> dict:
    return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in paths}


def test_every_library_definition_is_read_in_the_library():
    assert LIBRARY
    found = unread_definitions(_texts(LIBRARY))
    assert found == []


def _name(node) -> str:
    """The name a decorator, base or call target ends in."""
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass, or a class whose base is NamedTuple."""
    return any(_name(n) == "dataclass" for n in cls.decorator_list) or any(
        _name(n) == "NamedTuple" for n in cls.bases
    )


def declared_fields(tree) -> list:
    """(line, Class.field) of each field a class declares: an annotated
    name in the body of a dataclass or a NamedTuple, or an entry of
    `__slots__`."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _is_record(cls):
                    found.append((node.lineno, f"{cls.name}.{node.target.id}"))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                for entry in ast.literal_eval(node.value):
                    found.append((node.lineno, f"{cls.name}.{entry}"))
    return found


def unread_fields(library: dict, readers: dict) -> list:
    """`path:line: Class.field` for each field a class in `library` (path ->
    source text) declares that no attribute load in `library` or `readers`
    reads."""
    trees = {path: ast.parse(text) for path, text in library.items()}
    loaded = set().union(
        *(names_read(tree)[1] for tree in trees.values()),
        *(names_read(ast.parse(text))[1] for text in readers.values()),
    )
    return [
        f"{path}:{line}: {name}"
        for path, tree in trees.items()
        for line, name in declared_fields(tree)
        if name.rsplit(".", 1)[-1] not in loaded
    ]


def test_the_scan_flags_an_unread_field():
    library = {
        "m.py": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Report:\n"
            "    holds: bool\n"
            "    margin: float\n"
            "    count: int = 0\n"
            "class Plain:\n"
            "    note: str\n"
            "class Point:\n"
            "    __slots__ = ('coords', '_hash')\n"
            "    def key(self): return self._hash\n"
            "def run(r): return r.holds\n"
            "import typing\n"
            "class Table(typing.NamedTuple):\n"
            "    rows: tuple\n"
            "    size: int\n"
            "def rows(t): return t.rows\n"
        ),
    }
    # a store and a keyword are not reads; the reader's load of count is
    readers = {"bench.py": "r.margin = 1\nReport(margin=2)\nprint(r.count)\n"}
    assert unread_fields(library, readers) == [
        "m.py:5: Report.margin",
        "m.py:10: Point.coords",
        "m.py:16: Table.size",
    ]


def test_every_library_field_is_read():
    assert LIBRARY and BENCHMARK
    found = unread_fields(_texts(LIBRARY), _texts(BENCHMARK))
    assert found == []


def modules_importing(sources: dict, module: str) -> list:
    """The paths in `sources` (path -> source text) whose code imports
    `module` or a submodule of it, at any depth."""
    found = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n == module or n.startswith(module + ".") for n in names):
                found.append(path)
                break
    return found


def test_the_scan_flags_a_numeric_import():
    sources = {
        "a.py": "import mpmath as mp\n",
        "b.py": "def f():\n    from mpmath.libmp import to_str\n",
        "c.py": "from . import mpmath_free\nimport mpmathx\n",
    }
    assert modules_importing(sources, "mpmath") == ["a.py", "b.py"]


def test_only_ellaw_imports_mpmath():
    found = modules_importing(_texts(LIBRARY), "mpmath")
    assert found == [str(Path("src", "hesse_lab", "ellaw.py"))]


def _loaded_in_fresh_interpreter(modules, probes) -> list:
    """The probes that sys.modules holds after a fresh interpreter imports
    `modules`; this one has loaded mpmath, dataclasses and inspect already."""
    code = (
        "import sys\n"
        + "".join(f"import {m}\n" for m in modules)
        + f"print(' '.join(p for p in {tuple(probes)!r} if p in sys.modules))\n"
    )
    path = filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_exact_modules_load_without_mpmath():
    modules = ("field", "multipoly", "plane", "hesse", "groups", "lattice")
    assert _loaded_in_fresh_interpreter([f"hesse_lab.{m}" for m in modules], ["mpmath"]) == []


def test_no_library_module_imports_dataclasses():
    assert modules_importing(_texts(LIBRARY), "dataclasses") == []


def test_the_cli_loads_without_dataclasses_or_inspect():
    # both cost start-up time: dataclasses pulls in inspect, ast, dis and
    # tokenize, then generates and compiles the methods of each record
    probes = ["dataclasses", "inspect"]
    assert _loaded_in_fresh_interpreter(["hesse_lab.cli"], probes) == []
