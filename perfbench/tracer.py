"""Spans around the calls into each fuscond layer, recorded from outside.

Installing the tracer replaces every public function of each layer module
with a timing wrapper, at every place a fuscond module binds it: the
defining module and each ``from ... import`` site (``condense`` binds
``block_profiles``, ``galois`` binds ``e_sub``, ``cli`` binds ``read_path``
and so on).  A few methods are patched on their class.  Uninstalling puts
the original objects back, so untraced and traced passes can alternate in
one process.

Each wrapped call opens a frame on a stack.  On return its duration is
charged to the parent frame as child time, so a call's self time is its
duration minus the time its wrapped children took.  Calls into
``cyclotomic`` are counted and timed in aggregate only: they run millions
of times, and a span record for each would dominate memory.  All other
calls are kept as spans (name, start, end, parent, op) and written out at
the end of the run.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "serialize", "families", "condense", "wedderburn", "galois",
          "ring", "modular", "cyclotomic")

# Aggregate-only layers: no span record per call.
_LEAF_LAYERS = ("cyclotomic",)

# Metric names for functions whose metric name differs from
# "<layer>.<function>".
_ALIASES = {
    "serialize.read_path": "serialize.read",
    "serialize.write_path": "serialize.write",
    "wedderburn.normalized_block_trace": "wedderburn.block_trace",
}

# (module, class, attribute, metric name)
_METHODS = (
    ("wedderburn", "AssocAlgebra", "mult", "wedderburn.mult"),
    ("condense", "SchurWeylReport", "block_value", "condense.block_value"),
    ("condense", "Ambient", "character_row", "condense.character_row"),
    ("cyclotomic", "Cyc", "__init__", "cyclotomic.cyc_new"),
    ("cyclotomic", "Cyc", "__mul__", "cyclotomic.cyc_mul"),
    ("cyclotomic", "Cyc", "__rmul__", "cyclotomic.cyc_mul"),
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_result(counter):
    def hook(tracer, args, result):
        tracer.counters[counter] += len(result)
    return hook


def _count_file(counter):
    def hook(tracer, args, result):
        if args:
            tracer.counters[counter] += _file_size(args[-1])
    return hook


# Counts taken from a call's arguments or result, keyed by metric name of
# the call.  write_path(value, path) and read_path(path) both take the
# path last.
_HOOKS = {
    "serialize.read": _count_file("serialize.bytes_read"),
    "serialize.write": _count_file("serialize.bytes_written"),
    "wedderburn.block_profiles": _count_result("wedderburn.blocks"),
    "galois.lattice": _count_result("galois.lattice_size"),
    "ring.enumerate_subrings": _count_result("ring.subrings_found"),
}


# Per-op metrics: "<call>.calls", "<call>.s" (inclusive seconds) and
# "<call>.self_s" (seconds minus wrapped children), or a hook counter.
LAYER_METRICS = (
    "cli.main.calls", "cli.main.self_s",
    "serialize.read.s", "serialize.write.s",
    "serialize.bytes_read", "serialize.bytes_written",
    "families.build.s",
    "condense.check_bundle.s", "condense.schur_weyl.self_s",
    "condense.e_sub.calls", "condense.e_sub.self_s",
    "condense.codegree_check.self_s",
    "condense.block_value.calls", "condense.block_value.self_s",
    "condense.character_row.s",
    "wedderburn.mult.calls", "wedderburn.mult.s",
    "wedderburn.center_basis.s", "wedderburn.central_idempotents.self_s",
    "wedderburn.block_trace.calls", "wedderburn.blocks",
    "galois.verify_correspondence.self_s",
    "galois.invariant_subalgebra.calls", "galois.invariant_subalgebra.self_s",
    "galois.group_quotient.self_s", "galois.lattice_size",
    "ring.validate.s", "ring.fp_dims.s", "ring.enumerate_subrings.self_s",
    "ring.closure.calls", "ring.element_product.calls",
    "ring.element_product.s",
    "modular.verlinde.calls", "modular.verlinde.s", "modular.validate.s",
    "modular.deligne.s",
    "cyclotomic.as_mpc.calls", "cyclotomic.cyc_mul.calls",
    "cyclotomic.cyc_new.calls",
)
_HOOK_COUNTERS = ("serialize.bytes_read", "serialize.bytes_written",
                  "wedderburn.blocks", "galois.lattice_size")
_STAT_INDEX = {"calls": 0, "s": 1, "self_s": 2}


class Tracer:
    """Layer spans and counts for the ops of one benchmark run."""

    def __init__(self):
        self.stack = []
        self.spans = []
        # name -> [calls, inclusive seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self.op = None
        # op -> {layer or "op": seconds}, summed over the op's samples
        self.by_op = defaultdict(lambda: defaultdict(float))
        self._next_id = 0
        self._patches = []

    # -- recording ------------------------------------------------------
    def _wrap(self, name, fn, leaf):
        tracer = self
        stats = self.stats[name]
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if leaf:
                ident = parent[1] if parent else -1
            else:
                ident = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, ident]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if not leaf:
                    tracer.spans.append(
                        (ident, name, t0, t1,
                         parent[1] if parent else None, tracer.op))
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def layer_self(self) -> dict:
        """Self seconds recorded so far, summed by layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += st[2]
        return out

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self._op_base = self.layer_self()
        ident = self._next_id
        self._next_id += 1
        self.stack.append([0.0, ident])
        self._op_start = perf_counter()

    def end_op(self) -> None:
        t1 = perf_counter()
        frame = self.stack.pop()
        dur = t1 - self._op_start
        st = self.stats["op"]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        self.spans.append((frame[1], "op", self._op_start, t1, None, self.op))
        per_op = self.by_op[self.op]
        per_op["op"] += dur
        for layer, total in self.layer_self().items():
            per_op[layer] += total - self._op_base[layer]
        self.op = None

    # -- patching -------------------------------------------------------
    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function of each layer at each binding site
        in the loaded fuscond modules, and the listed methods."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        layer_mods = {layer: sys.modules.get(f"fuscond.{layer}")
                      for layer in LAYERS}
        sites = [m for n, m in sorted(sys.modules.items())
                 if m is not None and (n == "fuscond" or n.startswith("fuscond."))]
        wrappers = {}
        for layer, mod in layer_mods.items():
            if mod is None:
                continue
            leaf = layer in _LEAF_LAYERS
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                name = _ALIASES.get(name, name)
                wrappers[id(obj)] = (obj, self._wrap(name, obj, leaf))
        for site in sites:
            for attr, obj in list(vars(site).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(site, attr, hit[1])
        for layer, cls_name, attr, name in _METHODS:
            cls = getattr(layer_mods.get(layer), cls_name, None)
            if cls is None or attr not in cls.__dict__:
                continue
            self._patch(cls, attr,
                        self._wrap(name, cls.__dict__[attr],
                                   layer in _LEAF_LAYERS))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------
    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for ident, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": ident, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op})
                         + "\n")

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op layer metrics over everything recorded so far."""
        out = {}
        for metric in LAYER_METRICS:
            if metric in _HOOK_COUNTERS:
                value = self.counters[metric]
            else:
                name, kind = metric.rsplit(".", 1)
                value = self.stats[name][_STAT_INDEX[kind]]
            out[metric] = value / n_ops
        # Useful closures over attempts inside the subring search: each
        # closure call there either finds a new subring or repeats one.
        names = {span[0]: span[1] for span in self.spans}
        attempts = sum(1 for span in self.spans if span[1] == "ring.closure"
                       and names.get(span[4]) == "ring.enumerate_subrings")
        found = self.counters["ring.subrings_found"]
        out["ring.subrings_per_closure"] = found / attempts if attempts else 0.0
        for layer, total in self.layer_self().items():
            out[f"{layer}.self_s"] = total / n_ops
        out["op.self_s"] = self.stats["op"][2] / n_ops
        out["op.s"] = self.stats["op"][1] / n_ops
        return out
