"""The benchmark's hooks into the library still resolve.

perfbench/tracer.py wraps named methods of library classes,
perfbench/child.py calls library functions by name, and perfbench/run.py
pins the check ids; a rename in src/ would break the benchmark run.  The
tracer and the runner are loaded from their files without being run, and
nothing under perfbench/ is written.
"""

import importlib
import inspect
import types
from pathlib import Path

from hesse_lab import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# module.function names that perfbench/child.py and the tracer's result
# sizes call
CALLED = (
    "harness.run",
    "harness.default_config",
    "harness.registry",
    "hesse.hesse_data",
    "ellaw.three_torsion_table",
    "ellaw.translation_compatibility_check",
    "ellaw.nine_torsion_check",
    "ellaw.two_torsion_polar_check",
    "groups.generate_closure",
)


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def _library(short: str):
    return importlib.import_module(f"hesse_lab.{short}")


def test_traced_methods_are_defined_on_their_classes():
    tracer = _load("tracer")
    assert tracer.METHODS
    for short, cls_name, attrs, _boundary in tracer.METHODS:
        cls = getattr(_library(short), cls_name)
        missing = [attr for attr in attrs if attr not in vars(cls)]
        assert missing == [], f"{short}.{cls_name} lacks {missing}"


def test_functions_the_benchmark_calls_exist():
    tracer = _load("tracer")
    for name in CALLED + tuple(tracer.RESULT_SIZE):
        short, attr = name.split(".")
        assert callable(getattr(_library(short), attr, None)), name


def test_check_ids_match_the_pinned_benchmark_ids():
    assert harness.check_ids() == _load("run").PINNED_CHECKS


def test_registry_builds_without_a_config():
    # perfbench/child.py builds the table during set-up as harness.registry()
    inspect.signature(harness.registry).bind()
    assert harness.registry()
