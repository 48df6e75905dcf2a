"""Per-module self times and counts of ``curvestab``, for traced runs.

Self times come from sampling, counts from wrappers, and the two are
taken in different passes, so that neither disturbs the other.

``Sampler`` rides on ``speed.SpeedMeter``'s timer signal (every 5 ms).
Each sample is booked to the module of the innermost ``curvestab``
frame on the stack, so private helpers count for their own module and
time in the standard library (``Fraction`` arithmetic, ``json``) counts
for the module that called it.  A sample with a ``slope`` frame
anywhere on the stack also counts as scan time.  Sampling costs one
stack walk per tick.  Wrapping every public function, method and
property for timing cost 1.8x on the scan workloads, and ``cProfile``
3.5x, because it also times every private helper and ``Fraction``
method; both books that cost unevenly across the modules.

``CallCounter.install`` replaces the public module-level functions of
the layer modules by counting wrappers, in every namespace of the
package that holds them (``from .curve import linking_nodes`` in
``slope`` binds its own name, so that one is replaced too).  Methods
and properties are not wrapped.  A few hooks record result sizes.
``CallCounter.remove`` puts the originals back.  Nothing under ``src/``
is edited.
"""

from __future__ import annotations

import collections
import functools
import inspect
import os
import sys

PACKAGE = "curvestab"
LAYERS = ("curve", "slope", "degree_class", "kstab", "cli", "io", "chow", "newton", "bounds")
SCAN = "scan"    # samples with a slope frame on the stack
OTHER = "other"  # samples with no curvestab frame on the stack


class Sampler:
    """Samples per operation: ``by_op[j][layer]``, ``by_op[j][SCAN]``."""

    def __init__(self):
        root = os.path.dirname(sys.modules[PACKAGE].__file__)
        self.files = {os.path.join(root, f"{layer}.py"): layer for layer in LAYERS}
        self.by_op = collections.defaultdict(collections.Counter)

    def sample(self, frame, op) -> None:
        """Book the stack at ``frame`` to operation ``op`` (None: between
        operations, not booked)."""
        if op is None:
            return
        layer, scan = None, False
        while frame is not None:
            found = self.files.get(frame.f_code.co_filename)
            if found is not None:
                layer = layer or found
                scan = scan or found == "slope"
            frame = frame.f_back
        counts = self.by_op[op]
        counts[layer or OTHER] += 1
        if scan:
            counts[SCAN] += 1


def _count_subcurves(counter, result, args):
    n = len(result) if hasattr(result, "__len__") else None
    if n is None:  # a lazy enumeration: count as consumed
        return counter.counting(result, counter.depth["slope"] > 0)
    counter.add_subcurves(n, counter.depth["slope"] > 0)
    return result


def _count_witnesses(counter, result, args):
    counter.counts["slope.witnesses"] += len(result.witnesses)
    return result


def _count_entries(counter, result, args):
    counter.counts["kstab.entries"] += len(result.entries)
    return result


def _count_snf(counter, result, args):
    counter.counts["degree_class.snf_calls"] += 1
    return result


def _count_cells(counter, result, args):
    counter.counts["io.datum_cells"] += sum(len(p.vanish) for p in result.profiles)
    return result


def _count_profiles(counter, result, args):
    counter.counts["chow.profiles"] += len(args[0].profiles)
    return result


def _count_multiplicity(counter, result, args):
    counter.counts["newton.multiplicity_calls"] += 1
    return result


HOOKS = {
    ("curve", "subcurves"): _count_subcurves,
    ("slope", "slope_check_interval"): _count_witnesses,
    ("slope", "slope_check_h0"): _count_witnesses,
    ("kstab", "k_stable"): _count_entries,
    ("degree_class", "smith_normal_form"): _count_snf,
    ("io", "datum_from_json"): _count_cells,
    ("chow", "chow_report"): _count_profiles,
    ("newton", "point_multiplicity"): _count_multiplicity,
}

COUNTS = ("curve.subcurves_listed", "slope.witnesses", "kstab.entries", "degree_class.snf_calls",
          "io.datum_cells", "chow.profiles", "newton.multiplicity_calls")


class CallCounter:
    def __init__(self):
        self.modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        self.calls = dict.fromkeys(LAYERS, 0)
        self.depth = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.scan_subcurves = 0  # subcurves listed while a slope call was open
        self._undo: list = []

    def add_subcurves(self, n: int, in_scan: bool) -> None:
        self.counts["curve.subcurves_listed"] += n
        if in_scan:
            self.scan_subcurves += n

    def counting(self, iterator, in_scan: bool):
        for item in iterator:
            self.add_subcurves(1, in_scan)
            yield item

    def _wrap(self, fn, layer: str, hook):
        calls, depth, counter = self.calls, self.depth, self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[layer] += 1
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
            return hook(counter, result, args) if hook is not None else result

        return counted

    def install(self) -> None:
        replaced = {}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replaced[id(obj)] = (obj, self._wrap(obj, layer, HOOKS.get((layer, name))))
        # rebind every name in the package that refers to a wrapped function
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(mod, name, replaced[id(obj)][1])
                    self._undo.append((mod, name, obj))

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
