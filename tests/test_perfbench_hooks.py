"""The benchmark's hooks into the library still resolve.

perfbench/tracer.py wraps named methods of library classes, and
perfbench/child.py calls library functions by name; a rename in src/
would break the traced benchmark run.  The tracer is loaded from its
file without being installed, and nothing under perfbench/ is written.
"""

import importlib
import types
from pathlib import Path

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


def _load_tracer() -> types.ModuleType:
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def _library(short: str):
    return importlib.import_module(f"hesse_lab.{short}")


def test_traced_methods_are_defined_on_their_classes():
    tracer = _load_tracer()
    assert tracer.METHODS
    for short, cls_name, attrs, _boundary in tracer.METHODS:
        cls = getattr(_library(short), cls_name)
        missing = [attr for attr in attrs if attr not in vars(cls)]
        assert missing == [], f"{short}.{cls_name} lacks {missing}"


def test_functions_the_benchmark_calls_exist():
    tracer = _load_tracer()
    for name in CALLED + tuple(tracer.RESULT_SIZE):
        short, attr = name.split(".")
        assert callable(getattr(_library(short), attr, None)), name
