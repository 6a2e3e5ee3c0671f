"""Boundary tracer for the benchmark's traced passes.

The tracer wraps the public functions of each ``hesse_lab`` module, a few
hot methods (field and polynomial arithmetic, point construction, the
action of a transform) and ``mpmath.eig``.  Because ``from .x import y``
copies a function into other modules, every ``hesse_lab`` module that holds
a wrapped function is rebound to the wrapper.

Spans are aggregated in memory per (boundary, key): calls, total time and
self time, where self time is the span minus the spans of its wrapped
children and total time counts only the outermost span of a recursive
boundary.  The key is the field tower for field operations and the working
precision of the enclosing numeric call for everything that takes a
``precision_bits`` argument, ``mpmath.eig`` included.
"""

import importlib
import inspect
import sys
import time
import types

MODULES = ("field", "multipoly", "plane", "hesse", "groups", "ellaw", "lattice", "harness")

# (module, class, method names, boundary): hot methods that are not module
# functions.  Aliases such as __rmul__ = __mul__ share one boundary.
METHODS = (
    ("field", "FieldElement", ("__mul__", "__rmul__"), "field.mul"),
    ("field", "FieldElement", ("inverse",), "field.inv"),
    ("field", "FieldElement", ("__add__", "__radd__", "__sub__"), "field.add"),
    ("multipoly", "MultiPoly", ("__mul__", "__rmul__"), "multipoly.mul"),
    ("multipoly", "MultiPoly", ("substitute",), "multipoly.substitute"),
    ("plane", "ProjPoint", ("__init__",), "plane.point_new"),
    ("groups", "ProjTransform", ("apply",), "groups.apply"),
)

# boundaries whose result carries a size worth counting
RESULT_SIZE = {"groups.generate_closure": lambda group: group.order}


class Tracer:
    def __init__(self):
        self.stats = {}  # (boundary, key) -> [calls, total_s, self_s, depth, extra]
        self._children = []  # time covered by wrapped children, per open span
        self._precision = []  # precision_bits of the enclosing numeric calls
        self._tower_keys = {}

    def _stat(self, name, key):
        stat = self.stats.get((name, key))
        if stat is None:
            stat = self.stats[(name, key)] = [0, 0.0, 0.0, 0, 0]
        return stat

    def _tower_key(self, args):
        tower = args[0].tower
        key = self._tower_keys.get(tower)
        if key is None:
            key = self._tower_keys[tower] = "_".join(tower.symbols) or "Q"
        return key

    def _wrap(self, fn, name, key_of=None, precision_param=False):
        children, precision, perf = self._children, self._precision, time.perf_counter
        size_of = RESULT_SIZE.get(name)
        signature = inspect.signature(fn) if precision_param else None
        fixed = self._stat(name, "") if key_of is None and not precision_param else None

        def traced(*args, **kwargs):
            bits = None
            if precision_param:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bits = bound.arguments["precision_bits"]
                stat = self._stat(name, f"p{bits}")
                precision.append(bits)
            elif fixed is not None:
                stat = fixed
            else:
                stat = self._stat(name, key_of(args))
            stat[3] += 1
            children.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf() - start
                covered = children.pop()
                if bits is not None:
                    precision.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[2] += span - covered
                if not stat[3]:
                    stat[1] += span
                if children:
                    children[-1] += span
            if size_of is not None:
                stat[4] += size_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every boundary and rebind it wherever hesse_lab holds it."""
        import mpmath

        mods = {m: importlib.import_module(f"hesse_lab.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                    continue
                takes_precision = "precision_bits" in inspect.signature(obj).parameters
                wrappers[id(obj)] = (
                    obj,
                    self._wrap(obj, f"{short}.{attr}", precision_param=takes_precision),
                )
        for short, cls_name, attrs, name in METHODS:
            cls = getattr(mods[short], cls_name)
            key_of = self._tower_key if short == "field" else None
            done = {}
            for attr in attrs:
                fn = vars(cls)[attr]
                if fn not in done:
                    done[fn] = self._wrap(fn, name, key_of=key_of)
                setattr(cls, attr, done[fn])
        hesse_modules = [
            mod
            for modname, mod in list(sys.modules.items())
            if modname == "hesse_lab" or modname.startswith("hesse_lab.")
        ]
        for mod in hesse_modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        precision = self._precision
        mpmath.eig = self._wrap(
            mpmath.eig, "mpmath.eig", key_of=lambda _args: f"p{precision[-1]}" if precision else ""
        )
        return self

    def rows(self):
        """Aggregated spans as JSON-ready rows."""
        return [
            [name, key, stat[0], stat[1], stat[2], stat[4]]
            for (name, key), stat in sorted(self.stats.items())
        ]
