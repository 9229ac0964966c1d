"""Boundary spans: record them in a traced run, derive per-layer metrics.

A span covers one call that crosses into a weylkit layer (module):

* a function of another weylkit module bound in the caller's module
  namespace (``weylkit.hecke.multiply``, ``weylkit.lcf.kl_basis_element``,
  or a weylkit name bound in the benchmark's ``workloads`` module);
* an arithmetic or equality operator of ``Character``,
  ``LaurentPolynomial`` or ``HeckeElement`` called from another module.

Calls inside one module are not spans.  Each span stores its name,
start, end, the span open when it began (its parent), a size (terms,
rows or nonzero entries of the result) and whether it raised.  Spans
are kept in flat arrays while the program runs and written to a file
when the run ends; ``layer_metrics`` derives every per-layer number
from such a file.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass

LAYERS = ("lattice", "coxeter", "hecke", "charring", "lcf", "cli")
CALLER_MODULES = ("lattice", "coxeter", "hecke", "charring", "lcf", "cli",
                  "icstalk")
OPERAND_CLASSES = (("charring", "Character"), ("hecke", "LaurentPolynomial"),
                   ("hecke", "HeckeElement"))
OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__")


def result_size(out) -> int:
    """Terms of a Character, HeckeElement or LaurentPolynomial, rows of
    a list, keys of a dict, nonzero entries of a matrix; else 0."""
    if isinstance(out, (list, dict)):
        return len(out)
    for attr in ("terms", "coeffs"):
        got = getattr(out, attr, None)
        if isinstance(got, tuple):
            return len(got)
    entries = getattr(out, "entries", None)
    if isinstance(entries, tuple):
        return sum(1 for row in entries for e in row if e)
    return 0


class Recorder:
    """Wraps boundary calls with span records; ``uninstall`` undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.error = array("b")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, fn, name: str, owner: str | None = None):
        """``fn`` recording a span per call; with ``owner`` set, calls
        made from the module ``owner`` itself are passed through."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        sizes, errors, stack = self.size, self.error, self._stack
        clock = time.perf_counter
        getframe = sys._getframe

        def traced(*args, **kwargs):
            if owner is not None and getframe(1).f_globals.get("__name__") == owner:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            sizes.append(0)
            errors.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            sizes[idx] = result_size(out)
            return out

        return traced

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self, extra_callers=()) -> None:
        """Span every boundary call made from the weylkit modules and
        from the ``extra_callers`` modules."""
        callers = [importlib.import_module(f"weylkit.{m}")
                   for m in CALLER_MODULES]
        for caller in callers + list(extra_callers):
            for attr, obj in list(vars(caller).items()):
                owner = getattr(obj, "__module__", None)
                if (isinstance(obj, type) or not callable(obj)
                        or not isinstance(owner, str)
                        or not owner.startswith("weylkit.")
                        or owner == caller.__name__):
                    continue
                layer = owner.split(".")[1]
                self._patch(caller, attr,
                            self._spanned(obj, f"{layer}.{obj.__name__}"))
        for layer, cls_name in OPERAND_CLASSES:
            module = importlib.import_module(f"weylkit.{layer}")
            cls = getattr(module, cls_name)
            for op in OPERATORS:
                if op in vars(cls):
                    self._patch(cls, op, self._spanned(
                        vars(cls)[op], f"{layer}.{cls_name}.{op}",
                        owner=module.__name__))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        header = {"names": self.names, "count": len(self.name)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end,
                        self.size, self.error):
                arr.tofile(fh)


@dataclass
class Spans:
    names: list[str]
    name: array
    parent: array
    start: array
    end: array
    size: array
    error: array


def read_spans(path) -> Spans:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d", "q", "b"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return Spans(header["names"], *arrays)


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer calls, self time and errors, plus the work counters.

    A span's self time is its duration minus its children's durations
    (one thread, so children never overlap); a layer's self time is the
    sum over its spans.
    """
    n = len(spans.name)
    dur = [spans.end[i] - spans.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if spans.parent[i] >= 0:
            child[spans.parent[i]] += dur[i]
    full = [spans.names[k] for k in spans.name]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
    for name in ("coxeter.multiply_calls", "coxeter.length_calls",
                 "coxeter.reduced_word_calls", "coxeter.orbit_rows",
                 "hecke.kl_terms", "charring.terms_out"):
        out[name] = 0
    fetched = kept = 0
    for i in range(n):
        layer, func = full[i].split(".", 1)
        if layer not in LAYERS:
            continue
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += dur[i] - child[i]
        out[f"{layer}.errors"] += spans.error[i]
        size = spans.size[i]
        if layer == "coxeter" and func in ("multiply", "length", "reduced_word"):
            out[f"coxeter.{func}_calls"] += 1
        elif full[i] == "coxeter.dominant_orbit":
            out["coxeter.orbit_rows"] += size
        elif full[i] == "hecke.kl_basis_element":
            out["hecke.kl_terms"] += size
            p = spans.parent[i]
            if p >= 0 and full[p] == "lcf.decomposition_matrix":
                fetched += size
        elif full[i] == "lcf.decomposition_matrix":
            kept += size
        if layer == "charring":
            out["charring.terms_out"] += size
    # coefficients kept in the matrix per term of the b_{w0 x} fetched
    out["lcf.kept_ratio"] = kept / fetched if fetched else 0.0
    return out


class GcClock:
    """``gc.callbacks`` hook: total collector pause and full collections."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2_collections = 0
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._began
        if info["generation"] == 2:
            self.gen2_collections += 1
