"""Outside-in tracer for the pushcalc layers.

The tracer wraps every public function of each layer module, plus three
methods named below, and records one span per call: name, start, end,
parent span and the id of the op it belongs to.  Spans stay in memory
(in flat arrays) until the run ends; `aggregate` then turns them into
calls, total time and self time per name.

A wrapper has to replace every module attribute that binds the function,
not only the defining one: `from .monoid import compose` copies the
binding into pushing, embedding, verification and cli, and a wrapper on
`pushcalc.monoid.compose` alone would see none of the composes inside
`push_word`.  The word kernel is counted, not spanned: its functions are
swapped on the `pushcalc.words._kernel` object, which FreeWord reads at
call time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("words", "ring", "monoid", "embedding", "pushing", "orbits",
          "verification", "cli")
KERNEL_FUNCS = ("reduce_letters", "concat", "invert", "substitute")
# (layer, class, method, span name)
METHODS = (
    ("monoid", "SelfMapClass", "__init__", "monoid.validate"),
    ("monoid", "SelfMapClass", "__eq__", "monoid.eq"),
    ("embedding", "TruncatedMatrix", "entry", "embedding.entry"),
)


class Tracer:
    """Span recorder; install() patches a freshly imported pushcalc."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.enabled = True
        self.counters: dict[str, float] = defaultdict(float)
        self.bindings_patched = 0

    # --- recording ---

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, pre=None, post=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        sname, sparent, sop = self.span_name, self.span_parent, self.span_op
        sstart, send = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args)
            idx = len(sname)
            sname.append(nid)
            sparent.append(stack[-1] if stack else -1)
            sop.append(tracer.op_id)
            sstart.append(0.0)
            send.append(0.0)
            stack.append(idx)
            t0 = sstart[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                send[idx] = clock()
                stack.pop()
            if post is not None:
                post(tracer, result, send[idx] - t0, args)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters
        tracer = self

        def counted(*args):
            if tracer.enabled:
                counters[name] += 1
            return fn(*args)

        return counted

    # --- installation ---

    def install(self) -> None:
        """Wrap pushcalc's layer functions at every binding in the package."""
        for layer in LAYERS:   # pushcalc itself does not import cli
            importlib.import_module(f"pushcalc.{layer}")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "pushcalc" or name.startswith("pushcalc.")}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = mods[f"pushcalc.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                pre, post = _HOOKS.get(f"{layer}.{attr}", (None, None))
                wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn, pre, post)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    setattr(mod, attr, w)
                    self.bindings_patched += 1
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(mods[f"pushcalc.{layer}"], cls_name)
            setattr(cls, meth, self.wrap(span, getattr(cls, meth)))
        kernel = mods["pushcalc.words"]._kernel
        for fname in KERNEL_FUNCS:
            setattr(kernel, fname,
                    self.count("words.kernel.calls", getattr(kernel, fname)))

    # --- summary ---

    def aggregate(self) -> dict:
        """Per span name: calls, total_s, self_s; plus nested counts and counters.

        `nested` counts spans by (parent name, child name), which is what
        the per-letter and per-edge ratios need.
        """
        n = len(self.span_name)
        child_time = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += dur[i]
        spans: dict[str, list] = {}
        nested: dict[str, int] = defaultdict(int)
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child_time[i]
            p = self.span_parent[i]
            if p >= 0:
                nested[f"{names[self.span_name[p]]}>{name}"] += 1
        return {"spans": spans, "nested": dict(nested),
                "counters": dict(self.counters), "span_count": n}


def merge(aggs: list[dict]) -> dict:
    """Sum aggregates from several processes (the CLI children)."""
    out = {"spans": {}, "nested": defaultdict(int), "counters": defaultdict(float),
           "span_count": 0}
    for agg in aggs:
        for name, (c, t, s) in agg["spans"].items():
            rec = out["spans"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += c
            rec[1] += t
            rec[2] += s
        for key, c in agg["nested"].items():
            out["nested"][key] += c
        for key, c in agg["counters"].items():
            out["counters"][key] += c
        out["span_count"] += agg["span_count"]
    out["nested"] = dict(out["nested"])
    out["counters"] = dict(out["counters"])
    return out


# --- counters recorded at the boundaries, keyed by span name ---
# Every caller in pushcalc passes these arguments positionally.


def _ring_mul_pre(tr, args):
    a, b = args
    tr.counters["ring.ring_mul.term_pairs"] += len(a.terms) * len(b.terms)


def _ring_endo_pre(tr, args):
    if args[0].is_identity:
        tr.counters["ring.ring_endo_apply.identity_calls"] += 1


def _push_word_pre(tr, args):
    tr.counters["pushing.push_word.letters"] += len(args[1])


def _materialize_post(tr, t, dt, args):
    tr.counters["embedding.window_cells"] += len(t.rows) * len(t.cols)
    tr.counters["embedding.window_nonzero"] += len(t.entries)


def _bruteforce_post(tr, count, dt, args):
    target, _model, k = args
    tr.counters["orbits.states"] += len(target.charge) ** k * len(target.f_classes)
    tr.counters["orbits.components"] += count


def _run_suite_post(tr, report, dt, args):
    tr.counters["verification.cases"] += sum(r.cases for r in report.results)
    tr.counters[f"verification.{report.suite}.total_s"] += dt


_HOOKS = {
    "ring.ring_mul": (_ring_mul_pre, None),
    "ring.ring_endo_apply": (_ring_endo_pre, None),
    "pushing.push_word": (_push_word_pre, None),
    "embedding.materialize": (None, _materialize_post),
    "orbits.components_bruteforce": (None, _bruteforce_post),
    "verification.run_suite": (None, _run_suite_post),
}

SUITE_NAMES = ("ring", "monoid", "embed", "push", "orbits")

# name -> unit, better; the per-layer metrics of BENCHMARK.json, in order.
PER_LAYER = {
    "words.kernel.calls": ("count", "lower"),
    "words.endo_apply.calls": ("count", "lower"),
    "words.endo_apply.self_s": ("s", "lower"),
    "words.parse_word.self_s": ("s", "lower"),
    "ring.ring_mul.calls": ("count", "lower"),
    "ring.ring_mul.self_s": ("s", "lower"),
    "ring.ring_mul.term_pairs": ("count", "lower"),
    "ring.ring_endo_apply.self_s": ("s", "lower"),
    "ring.ring_endo_apply.identity_share": ("ratio", "higher"),
    "monoid.compose.calls": ("count", "lower"),
    "monoid.compose.self_s": ("s", "lower"),
    "monoid.validate.calls": ("count", "lower"),
    "monoid.eq.calls": ("count", "lower"),
    "pushing.push_letter.calls": ("count", "lower"),
    "pushing.push_word.self_s": ("s", "lower"),
    "pushing.push_word.letters": ("count", "higher"),
    "pushing.compose_per_letter": ("ratio", "lower"),
    "pushing.push_word_closed.calls": ("count", "higher"),
    "pushing.push_braid.self_s": ("s", "lower"),
    "pushing.recover_braid.self_s": ("s", "lower"),
    "embedding.matrix_mul.self_s": ("s", "lower"),
    "embedding.materialize.self_s": ("s", "lower"),
    "embedding.window_cells": ("count", "lower"),
    "embedding.window_nonzero_share": ("ratio", "higher"),
    "embedding.truncated_product.self_s": ("s", "lower"),
    "embedding.is_diagonally_constant.self_s": ("s", "lower"),
    "embedding.entry.calls": ("count", "lower"),
    "embedding.to_tsv.self_s": ("s", "lower"),
    "orbits.act.calls": ("count", "lower"),
    "orbits.act.self_s": ("s", "lower"),
    "orbits.components_bruteforce.self_s": ("s", "lower"),
    "orbits.components_formula.self_s": ("s", "lower"),
    "orbits.states": ("count", "higher"),
    "orbits.merge_ratio": ("ratio", "higher"),
    "verification.run_suite.self_s": ("s", "lower"),
    "verification.cases": ("count", "higher"),
    **{f"verification.{s}.total_s": ("s", "lower") for s in SUITE_NAMES},
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_bytes": ("count", "lower"),
    "cli.refusals": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.ops_per_s_traced": ("1/s", "higher"),
    "trace.ops_per_s_untraced": ("1/s", "higher"),
}


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(agg: dict) -> dict[str, float]:
    """Per-layer metric values that come from spans and counters.

    The cli.* timings other than cli.main and the trace.* figures are
    measured by the caller and added to the result.
    """
    spans, nested, ctr = agg["spans"], agg["nested"], agg["counters"]

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    out: dict[str, float] = {}
    for key in PER_LAYER:
        base, _, stat = key.rpartition(".")
        if stat == "calls" and key != "words.kernel.calls":
            out[key] = calls(base)
        elif stat == "self_s":
            out[key] = self_s(base)
    out["words.kernel.calls"] = ctr.get("words.kernel.calls", 0)
    out["ring.ring_mul.term_pairs"] = ctr.get("ring.ring_mul.term_pairs", 0)
    out["ring.ring_endo_apply.identity_share"] = _share(
        ctr.get("ring.ring_endo_apply.identity_calls", 0), calls("ring.ring_endo_apply"))
    out["pushing.push_word.letters"] = ctr.get("pushing.push_word.letters", 0)
    out["pushing.compose_per_letter"] = _share(
        nested.get("pushing.push_word>monoid.compose", 0),
        ctr.get("pushing.push_word.letters", 0))
    out["embedding.window_cells"] = ctr.get("embedding.window_cells", 0)
    out["embedding.window_nonzero_share"] = _share(
        ctr.get("embedding.window_nonzero", 0), ctr.get("embedding.window_cells", 0))
    states = ctr.get("orbits.states", 0)
    out["orbits.states"] = states
    out["orbits.merge_ratio"] = _share(
        states - ctr.get("orbits.components", 0),
        nested.get("orbits.components_bruteforce>orbits.act", 0))
    out["verification.cases"] = ctr.get("verification.cases", 0)
    out["cli.output_bytes"] = ctr.get("cli.output_bytes", 0)
    out["cli.refusals"] = ctr.get("cli.refusals", 0)
    for s in SUITE_NAMES:
        out[f"verification.{s}.total_s"] = ctr.get(f"verification.{s}.total_s", 0.0)
    return out
