"""Per-layer trace of one charvar command, taken from outside the package.

Run as a child process from the checkout root:

    PYTHONPATH=src python3 perfbench/tracer.py '["polys", "--m", "2"]'

The child imports charvar, replaces the public functions of each layer
module with wrappers (in every module that bound the name with
``from ... import``, and on the class for QPoly and TSeries methods), runs
``charvar.cli.main`` on the given arguments with stdout captured, and
prints one JSON object: the exit code, the captured stdout, the per-layer
metrics and the ``cache_info()`` of every ``lru_cache`` in the package.

Timed functions record a span (id, name, start, end, parent id) in memory;
counted functions, the hot ones, only bump a counter, so their time stays
in the self time of the span that called them.  Spans are summarised after
``main`` returns, outside the traced region.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import io
import itertools
import json
import sys
import time

# Functions that record a span, per layer module.  "Class.method" names are
# patched on the class, under every alias the class binds (__rmul__ too).
TIMED = {
    "qpoly": ("QPoly.__mul__", "ratio", "limit_at_1", "expand_in_s"),
    "tseries": ("TSeries.__mul__", "TSeries.inverse", "TSeries.qpower_twist"),
    "plethystic": ("Exp", "Log", "Pow", "series_exp", "series_log", "psi",
                   "psi_inv"),
    "counting": ("build_table", "class_weight_series", "rep_series",
                 "abs_irr_series", "orbit_series", "abs_ind_series",
                 "e_polynomial", "euler_characteristics"),
    "combinatorics": ("perm_rep_census", "limit_transform", "subgroup_counts"),
    "fforacle": ("orbit_census", "gl_enumerate", "is_absolutely_irreducible",
                 "is_absolutely_indecomposable"),
    "verify": ("run_verification",),
    "cli": ("main",),
}

# Hot functions: counted, not timed (a span each would distort the profile).
COUNTED = {
    "qpoly": ("QPoly.__init__", "QPoly.__add__"),
    "tseries": ("TSeries.adams",),
    "counting": ("centralizer_weight",),
    "fforacle": ("mat_mul", "mat_inv"),
}

# Timed functions whose arguments and results are kept for the size stats.
SIZED_SERIES = ("counting.rep_series", "counting.abs_irr_series",
                "counting.abs_ind_series", "counting.orbit_series")
KEPT = SIZED_SERIES + ("counting.class_weight_series", "fforacle.orbit_census")

# Modules whose lru_caches are reported.
CACHED_MODULES = ("counting", "arith", "combinatorics")


class Recorder:
    """Spans and call counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []                      # (id, name, start, end, parent)
        self.counts = collections.Counter()
        self.kept = collections.defaultdict(list)   # name -> [(args, result)]
        self._ids = itertools.count()
        self._stack = []

    def timed(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        kept = self.kept[name] if name in KEPT else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if kept is not None:
                kept.append((args, result))
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _covered(start, end, intervals) -> float:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0.0
    run_start = run_end = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def summarise(spans) -> dict:
    """Per-name ``calls``, inclusive ``s`` and ``self_s`` of a span list.

    ``spans`` holds (id, name, start, end, parent id) tuples; a parent id
    that names no span marks a root.  Self time is a span's duration minus
    the part of its interval that its direct children cover.  Inclusive
    time counts only the outermost span of a name, so recursion through
    the same name is not counted twice.
    """
    by_id = {span[0]: span for span in spans}
    children = collections.defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent in by_id:
            children[parent].append((start, end))
    stats = {}
    for sid, name, start, end, parent in spans:
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _covered(start, end,
                                                    children.get(sid, ()))
        while parent in by_id and by_id[parent][1] != name:
            parent = by_id[parent][4]
        if parent not in by_id:
            entry["s"] += end - start
    return stats


def _modules():
    import charvar  # noqa: F401  (imports every layer module)
    import charvar.cli  # noqa: F401
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "charvar" or name.startswith("charvar.")]


def _patch(layer, qualname, make, modules) -> None:
    module = importlib.import_module(f"charvar.{layer}")
    metric = f"{layer}.{qualname}"
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        original = vars(owner)[attr]
        wrapper = make(metric, original)
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, wrapper)
        return
    original = getattr(module, qualname)
    wrapper = make(metric, original)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install(recorder: Recorder) -> dict:
    """Patch every layer; return the lru_caches found, by metric prefix."""
    modules = _modules()
    caches = {}
    for layer in CACHED_MODULES:
        module = importlib.import_module(f"charvar.{layer}")
        for value in vars(module).values():
            if (hasattr(value, "cache_info")
                    and value.__module__ == module.__name__):
                caches[f"{layer}.{value.__name__}"] = value
    for layer, names in TIMED.items():
        for qualname in names:
            _patch(layer, qualname, recorder.timed, modules)
    for layer, names in COUNTED.items():
        for qualname in names:
            _patch(layer, qualname, recorder.counted, modules)
    return caches


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return abs(c).bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def _partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def size_stats(kept) -> dict:
    """Input-size stats read from the outputs of the traced layers."""
    degree = bits = 0
    for name in SIZED_SERIES:
        for _, series in kept.get(name, ()):
            for poly in series.coeffs:
                degree = max(degree, len(poly.coeffs) - 1)
                bits = max(bits, max(map(_coeff_bits, poly.coeffs), default=0))
    orders = {args for args, _ in kept.get("counting.class_weight_series", ())}
    visited = sum(_partition_count(d)
                  for _, order in orders for d in range(order + 1))
    swept = orbits = 0
    for _, census in kept.get("fforacle.orbit_census", ()):
        swept += census.group_order ** census.m
        orbits += census.orbits
    return {"qpoly.max_degree": degree, "qpoly.max_coeff_bits": bits,
            "counting.partitions_visited": visited,
            "fforacle.tuples_swept": swept,
            "fforacle.orbit_census.orbits": orbits}


def layer_metrics(recorder: Recorder, caches: dict) -> dict:
    """Flat ``<module>.<function>.<stat>`` values of one traced run."""
    out = {}
    for name, entry in summarise(recorder.spans).items():
        for stat, value in entry.items():
            out[f"{name}.{stat}"] = value
    for name, calls in recorder.counts.items():
        out[f"{name}.calls"] = calls
    for name, fn in caches.items():
        info = fn.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    out.update(size_stats(recorder.kept))
    return out


def main(argv) -> int:
    command = json.loads(argv[1])
    recorder = Recorder()
    caches = install(recorder)
    from charvar import cli
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(command)
    done = time.perf_counter()
    metrics = layer_metrics(recorder, caches)
    snapshot = {name: fn.cache_info()._asdict() for name, fn in caches.items()}
    # post_s lets the caller take the summary work out of the traced wall time
    payload = {"exit": code, "stdout": captured.getvalue(),
               "metrics": metrics, "caches": snapshot,
               "post_s": time.perf_counter() - done}
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
