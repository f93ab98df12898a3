"""Outside-in tracer for coendcalc: wraps functions from outside ``src/``.

``Tracer.install`` replaces every public module-level function of every
coendcalc module with a timing wrapper, and a few methods on the matrix,
span and field classes with timing or counting wrappers.  coendcalc
copies functions between modules (``from .linalg import kron``) and keeps
command handlers in a dict, so every module-level name and dict value
that refers to a wrapped function is rebound, and ``install`` fails if
any reference to an unwrapped original is left behind.

Each timed call records its duration; its self time is that duration
minus the time of the wrapped calls made inside it.  Counted methods
(field arithmetic, ``Matrix.__init__``) only count, since timing a call
that costs well under a microsecond would mostly measure the timer.
No traced function calls itself, so totals are never counted twice.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

PACKAGE = "coendcalc"

# Methods to wrap: (module, class names, method, key, timed).  Field
# arithmetic is defined on both concrete fields and counted under one key.
METHODS = [
    ("linalg", ("Matrix",), "__init__", "linalg.Matrix.__init__", False),
    ("linalg", ("Matrix",), "__mul__", "linalg.Matrix.__mul__", True),
    ("linalg", ("Matrix",), "apply", "linalg.Matrix.apply", True),
    ("linalg", ("Matrix",), "col_terms", "linalg.Matrix.col_terms", True),
    ("linalg", ("VectorSpan",), "add", "linalg.VectorSpan.add", True),
] + [
    ("fields", ("RationalField", "PrimeField"), op, f"fields.{op}", False)
    for op in ("add", "sub", "mul", "inv", "coerce")
]


class Stat:
    """Counters of one traced function since the tracer was installed."""

    __slots__ = ("calls", "total_s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "work": self.work,
        }


def _rref_cells(stat, args, result):
    stat.work += args[0].rows * args[0].cols


def _mul_madds(stat, args, result):
    stat.work += args[0].rows * args[0].cols * args[1].cols


def _init_entries(stat, args, result):
    stat.work += args[2] * args[3]


def _span_useful(stat, args, result):
    stat.work += result is True


# Work counted from argument shapes or results, per traced key.
WORK = {
    "linalg.rref": _rref_cells,
    "linalg.Matrix.__mul__": _mul_madds,
    "linalg.Matrix.__init__": _init_entries,
    "linalg.VectorSpan.add": _span_useful,
}


def _module_values(mod):
    """Module attributes that may hold coendcalc functions (no dunders)."""
    return [(k, v) for k, v in vars(mod).items() if not k.startswith("__")]


class Tracer:
    """Installs wrappers around coendcalc and collects per-function stats."""

    def __init__(self):
        self.stats = {}
        self.timed = set()
        # key -> keys of the timed calls that were open when it was called.
        self.enclosing = {}
        self._stack = []
        self._undo = []

    def record(self, key: str, elapsed: float):
        """Add a span measured by the caller, such as report rendering."""
        stat = self.stats.setdefault(key, Stat())
        self.timed.add(key)
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed

    def snapshot(self) -> dict:
        return {key: stat.as_dict() for key, stat in self.stats.items()}

    # -- wrappers ----------------------------------------------------------

    def _timed(self, key, fn):
        stats, stack, enclosing = self.stats, self._stack, self.enclosing
        stats[key] = Stat()
        enclosing[key] = set()
        self.timed.add(key)
        work = WORK.get(key)

        def wrapper(*args, **kwargs):
            stat = stats[key]
            if stack:
                enclosing[key].update(frame[0] for frame in stack)
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - frame[1]
            if work is not None:
                work(stat, args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        stats = self.stats
        stats[key] = Stat()
        work = WORK.get(key)

        if work is None:
            def wrapper(*args, **kwargs):
                stats[key].calls += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                stat = stats[key]
                stat.calls += 1
                work(stat, args, None)
                return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        """Wrap every public function and the listed methods of coendcalc,
        starting from empty stats."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for collected in (self.stats, self.timed, self.enclosing):
            collected.clear()
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        if PACKAGE + ".cli" not in modules:
            raise RuntimeError("import coendcalc.cli before installing the tracer")
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, mod in sorted(modules.items()):
            short = name[len(PACKAGE) + 1:]
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == name
                ):
                    wrappers[id(value)] = (value, self._timed(f"{short}.{attr}", value))
        try:
            for mod_name, classes, method, key, timed in METHODS:
                make = self._timed if timed else self._counted
                for cls_name in classes:
                    cls = getattr(modules[f"{PACKAGE}.{mod_name}"], cls_name)
                    self._set(cls, method, make(key, vars(cls)[method]))
            for mod in modules.values():
                self._rebind(mod, wrappers)
            self._check_complete(modules, wrappers)
        except Exception:
            self.uninstall()
            raise

    def _rebind(self, mod, wrappers):
        """Point every module-level reference to a wrapped function at its wrapper.

        References held in module-level dicts, directly or in tuples, are
        rebound too: ``cli.COMMANDS`` maps names to (handler, kind).
        """

        def swap(value):
            entry = wrappers.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else value

        def swap_item(value):
            if isinstance(value, tuple):
                new = tuple(map(swap, value))
                return value if all(a is b for a, b in zip(new, value)) else new
            return swap(value)

        for attr, value in _module_values(mod):
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    new = swap_item(v)
                    if new is not v:
                        self._undo.append((value, k, v))
                        value[k] = new
            else:
                new = swap(value)
                if new is not value:
                    self._set(mod, attr, new)

    @staticmethod
    def _check_complete(modules, wrappers):
        originals = {id(orig): orig for orig, _ in wrappers.values()}

        def leftover(value):
            return originals.get(id(value)) is value

        for name, mod in modules.items():
            for attr, value in _module_values(mod):
                items = [value]
                if isinstance(value, dict):
                    items = [x for v in value.values()
                             for x in (v if isinstance(v, tuple) else (v,))]
                if any(leftover(x) for x in items):
                    raise RuntimeError(f"{name}.{attr} still refers to an unwrapped function")

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
