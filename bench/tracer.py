"""Outside-in tracing of the knightpaths layers.

The benchmark installs these wrappers from its own files; nothing under
``src/`` changes.  Every function defined in a measured module, and every
method of a class defined there, is replaced by a wrapper that opens a span
on entry and closes it on exit.  Names bound elsewhere by ``from`` imports
(``asymptotics.grand_row_stats``, the re-exports in ``knightpaths``) and
functions stored in module-level dicts (``verification.CHECKS``) are
re-bound to the same wrappers, so every call path goes through them.
LaurentSeries operators are wrapped on the class, so ``*``, ``+`` and ``/``
dispatch through the wrappers too.

Spans are aggregated as they close (a verify run makes millions of calls),
so memory stays flat.  Two figures come out of each span:

* a module's ``self_s`` adds up the span durations minus the time covered
  by child spans, so the modules' figures add up to the traced wall time;
* a function's ``layer_s`` is its duration minus the spans of *other*
  modules below it, so same-module helpers count toward it; only the
  outermost active call of a function is counted, so recursion does not
  double it.

``paths`` and ``fixtures`` are not wrapped: their time counts toward the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "cli",
    "counting",
    "laurent",
    "series",
    "closedforms",
    "recurrences",
    "asymptotics",
    "bijections",
    "verification",
)


class Tracer:
    """Span stack plus aggregated per-module and per-function figures."""

    def __init__(self) -> None:
        # frame: [module, key, start, child time, time of other-module spans]
        self.stack: list[list] = []
        self.module_calls: Counter = Counter()
        self.module_self: defaultdict = defaultdict(float)
        self.fn_calls: Counter = Counter()
        self.fn_layer: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.check_seconds: dict[str, float] = {}
        self.root_orders: dict[str, int] = {}

    def enter(self, module: str, key: str) -> None:
        stack = self.stack
        if not stack or stack[-1][0] != module:
            self.module_calls[module] += 1
        self.fn_calls[key] += 1
        self.active[key] += 1
        stack.append([module, key, perf_counter(), 0.0, 0.0])

    def exit(self) -> None:
        end = perf_counter()
        module, key, start, child, foreign = self.stack.pop()
        duration = end - start
        self.module_self[module] += duration - child
        self.active[key] -= 1
        if not self.active[key]:
            self.fn_layer[key] += duration - foreign
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            parent[4] += duration if parent[0] != module else foreign

    def caller_module(self) -> str | None:
        return self.stack[-1][0] if self.stack else None


# -- work counters, computed from the arguments of the wrapped calls ----------


def _integral(series) -> bool:
    return all(c.denominator == 1 for c in series.coeffs)


def _count_mul(tr: Tracer, args, kwargs) -> None:
    """Coefficient products of one schoolbook series product.

    Mirrors the truncation in LaurentSeries.__mul__: the product keeps
    n = min(len(a) + len(b) - 1, order - valuation) terms, and row i of the
    convolution makes min(len(b), n - i) products.  Scalar products and
    zero operands make no convolution and add nothing.
    """
    a, b = args[0], args[1]
    if not hasattr(b, "coeffs") or not a.coeffs or not b.coeffs:
        return
    la, lb = len(a.coeffs), len(b.coeffs)
    bounds = [
        o
        for o in (
            None if a.order is None else a.order + b.valuation,
            None if b.order is None else b.order + a.valuation,
        )
        if o is not None
    ]
    n = la + lb - 1
    if bounds:
        n = min(n, min(bounds) - (a.valuation + b.valuation))
    rows = min(la, max(n, 0))
    full = max(0, min(rows, n - lb + 1))  # rows that use every term of b
    products = full * lb + (rows - full) * n - (rows - 1 + full) * (rows - full) // 2
    tr.counts["laurent.mul.coeff_products"] += products
    if _integral(a) and _integral(b):
        tr.counts["laurent.mul.int_products"] += products


def _band_width(size: int, c) -> int:
    lo = -2 * size if c.min_y is None else max(c.min_y, -2 * size)
    hi = 2 * size if c.max_y is None else min(c.max_y, 2 * size)
    return max(0, hi - lo + 1)


def _dp_cells(size_and_constraints):
    def hook(tr: Tracer, args, kwargs) -> None:
        size, width = size_and_constraints(*args, **kwargs)
        tr.counts["counting.dp_cells"] += (size + 1) * width

    return hook


def _requested(tr: Tracer, args, kwargs) -> None:
    """Sum of the counts requested from recurrences by other modules."""
    if tr.caller_module() == "recurrences":
        return
    want = kwargs.get("count", kwargs.get("order", args[-1] if args else 0))
    tr.counts["recurrences.coeffs"] += want


def _root_order(kind: str):
    def hook(tr: Tracer, args, kwargs) -> None:
        from knightpaths.series import DEFAULT_ORDER

        order = kwargs.get("order", args[0] if args else DEFAULT_ORDER)
        if order <= tr.root_orders.get(kind, -1):
            tr.counts["series.kernel_roots.repeats"] += 1
        else:
            tr.root_orders[kind] = order

    return hook


def _record_check(tr: Tracer, result) -> None:
    tr.check_seconds[result.name] = result.seconds


CALL_HOOKS = {
    "laurent.LaurentSeries.__mul__": _count_mul,
    "counting._end_states": _dp_cells(lambda size, c: (size, _band_width(size, c))),
    "counting.step_count_distribution": _dp_cells(
        lambda size, c: (size, _band_width(size, c))
    ),
    "counting.count_primitive": _dp_cells(lambda size: (size, 4 * size + 1)),
    "counting.grand_row_stats": _dp_cells(lambda n_max: (n_max, 4 * n_max + 1)),
    "series.grand_kernel_roots": _root_order("grand"),
    "series.zigzag_kernel_roots": _root_order("zigzag"),
}
ITEM_HOOKS = {"verification.run_checks": _record_check}


# -- installation ------------------------------------------------------------------


def _wrap(tr: Tracer, fn, module: str, key: str):
    hook = CALL_HOOKS.get(key)
    if module == "recurrences" and not key.split(".")[-1].startswith("_"):
        hook = _requested
    enter, exit_ = tr.enter, tr.exit

    if inspect.isgeneratorfunction(fn):
        on_item = ITEM_HOOKS.get(key)

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if hook is not None:
                hook(tr, args, kwargs)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    enter(module, key)
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        exit_()
                    if on_item is not None:
                        on_item(tr, item)
                    yield item
            finally:
                inner.close()

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook is not None:
            hook(tr, args, kwargs)
        enter(module, key)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def install(tr: Tracer) -> None:
    """Wrap every measured module's functions and methods, then re-bind."""
    wrapped: dict[int, object] = {}  # id(original) -> wrapper; wrappers keep originals alive

    def wrap_once(fn, module: str):
        if id(fn) not in wrapped:
            key = f"{module}.{fn.__qualname__}"
            wrapped[id(fn)] = _wrap(tr, fn, module, key)
        return wrapped[id(fn)]

    for module in MODULES:
        mod = importlib.import_module(f"knightpaths.{module}")
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                setattr(mod, name, wrap_once(obj, module))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in list(vars(obj).items()):
                    if isinstance(member, (classmethod, staticmethod)):
                        kind = type(member)
                        setattr(obj, attr, kind(wrap_once(member.__func__, module)))
                    elif inspect.isfunction(member):
                        setattr(obj, attr, wrap_once(member, module))

    for name, mod in list(sys.modules.items()):
        if name != "knightpaths" and not name.startswith("knightpaths."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and callable(obj):
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if id(v) in wrapped and callable(v):
                        obj[k] = wrapped[id(v)]


# -- per-layer metrics ---------------------------------------------------------------

#: Counts must repeat exactly between two runs of one seed; times need not.
COUNT_METRICS = (
    [f"{m}.calls" for m in MODULES]
    + [
        "counting.dp_cells",
        "laurent.series_calls",
        "laurent.mul.calls",
        "laurent.mul.coeff_products",
        "laurent.mul.int_path_ratio",
        "series.grand_kernel_roots.calls",
        "series.zigzag_kernel_roots.calls",
        "series.kernel_roots.repeat_ratio",
        "series.tube_gf.calls",
        "recurrences.coeffs",
    ]
)

TIME_FUNCTIONS = {
    "counting.count_row.self_s": "counting.count_row",
    "counting.grand_row_stats.self_s": "counting.grand_row_stats",
    "laurent.mul.self_s": "laurent.LaurentSeries.__mul__",
    "laurent.inverse.self_s": "laurent.LaurentSeries.inverse",
    "laurent.sqrt.self_s": "laurent.LaurentSeries.sqrt",
    "laurent.add.self_s": "laurent.LaurentSeries.__add__",
    "series.grand_kernel_roots.self_s": "series.grand_kernel_roots",
    "series.zigzag_kernel_roots.self_s": "series.zigzag_kernel_roots",
    "series.tube_gf.self_s": "series.tube_gf",
}


def metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced run, keyed by metric name."""
    out: dict[str, float] = {}
    for m in MODULES:
        out[f"{m}.calls"] = tr.module_calls[m]
        out[f"{m}.self_s"] = tr.module_self[m]
    for name, key in TIME_FUNCTIONS.items():
        out[name] = tr.fn_layer[key]
    out["counting.dp_cells"] = tr.counts["counting.dp_cells"]
    out["laurent.series_calls"] = sum(
        n for k, n in tr.fn_calls.items() if k.startswith("laurent.LaurentSeries.")
    )
    out["laurent.mul.calls"] = tr.fn_calls["laurent.LaurentSeries.__mul__"]
    products = tr.counts["laurent.mul.coeff_products"]
    out["laurent.mul.coeff_products"] = products
    out["laurent.mul.int_path_ratio"] = (
        tr.counts["laurent.mul.int_products"] / products if products else 0.0
    )
    for kind in ("grand", "zigzag"):
        out[f"series.{kind}_kernel_roots.calls"] = tr.fn_calls[f"series.{kind}_kernel_roots"]
    roots = out["series.grand_kernel_roots.calls"] + out["series.zigzag_kernel_roots.calls"]
    out["series.kernel_roots.repeat_ratio"] = (
        tr.counts["series.kernel_roots.repeats"] / roots if roots else 0.0
    )
    out["series.tube_gf.calls"] = tr.fn_calls["series.tube_gf"]
    out["recurrences.coeffs"] = tr.counts["recurrences.coeffs"]
    return out
