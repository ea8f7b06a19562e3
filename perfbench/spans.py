"""Spans and counters recorded around calls into logcap's layers.

The benchmark changes no library code.  Instead, while a traced pass runs,
it replaces each measured function with a wrapper at every place the name
is looked up: the defining module, every module that imported the name
directly (``from .lattice import preimage``), the package namespace, the
class dict for methods, and the ``verifier._CHECKS`` table for the per-check
spans.  Patching only the defining module would miss the direct imports.

A span is one wrapped call: name, start, end, and the index of the
enclosing span.  Counters only count calls, for methods too hot to time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

LAYERS = ("lattice", "groupring", "instance", "extension", "resolvent", "verifier", "forge", "cli")

# (module, attribute, span name): module-level functions that get a span
SPAN_FUNCTIONS = (
    ("lattice", "solve", "lattice.solve"),
    ("lattice", "kernel", "lattice.kernel"),
    ("lattice", "preimage", "lattice.preimage"),
    ("lattice", "quotient_order", "lattice.quotient_order"),
    ("groupring", "det_ring", "groupring.det_ring"),
    ("instance", "validate", "instance.validate"),
    ("instance", "load_instance", "instance.load_instance"),
    ("extension", "transfer", "extension.transfer"),
    ("extension", "derived_subgroup", "extension.derived_subgroup"),
    ("resolvent", "relation_matrices", "resolvent.relation_matrices"),
    ("resolvent", "delta", "resolvent.delta"),
    ("resolvent", "trace", "resolvent.trace"),
    ("verifier", "run_all", "verifier.run_all"),
    ("forge", "oracle_group", "forge.oracle_group"),
    ("forge", "estimate_space", "forge.estimate_space"),
    ("forge", "action_configurations", "forge.action_configurations"),
    ("forge", "random_instance", "forge.random_instance"),
    ("cli", "main", "cli.main"),
)
# (module, class, method, span name)
SPAN_METHODS = (("lattice", "Submodule", "from_generators", "lattice.from_generators"),)
# (module, attribute, counter name): functions only counted
COUNT_FUNCTIONS = (
    ("resolvent", "star_act", "resolvent.star_act"),
    ("resolvent", "omega_act", "resolvent.omega_act"),
)
# (module, class, method, counter name)
COUNT_METHODS = (
    ("lattice", "ZModRing", "__init__", "lattice.ZModRing.new"),
    ("groupring", "GroupRingElt", "__mul__", "groupring.GroupRingElt.mul"),
    ("instance", "Instance", "act", "instance.Instance.act"),
    ("extension", "UElement", "__mul__", "extension.UElement.mul"),
    ("resolvent", "ResolventElt", "__post_init__", "resolvent.ResolventElt.new"),
)
SOLVE = "lattice.solve"


def _modules() -> dict:
    return {name: importlib.import_module(f"logcap.{name}") for name in LAYERS}


class Tracer:
    """Records spans and counts while installed; ``summary`` aggregates them."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, outermost in its layer]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._depth: Counter = Counter()
        self._undo: list = []

    def reset(self) -> None:
        # cleared in place: the wrappers hold these objects
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._depth.clear()

    def _span(self, name, fn):
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        layer = name.split(".", 1)[0]
        clock = time.perf_counter
        found_key = f"{SOLVE}.found" if name == SOLVE else None

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[layer] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[layer] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[layer] -= 1
                stack.pop()
            if found_key is not None and result is not None:
                counts[found_key] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        sites = [importlib.import_module("logcap"), *mods.values()]
        for table, make in ((SPAN_FUNCTIONS, self._span), (COUNT_FUNCTIONS, self._count)):
            for mod, attr, name in table:
                orig = getattr(mods[mod], attr)
                self._rebind(sites, orig, make(name, orig))
        for table, make in ((SPAN_METHODS, self._span), (COUNT_METHODS, self._count)):
            for mod, cls_name, attr, name in table:
                cls = getattr(mods[mod], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(make(name, raw.__func__)))
                else:
                    self._set(cls, attr, make(name, raw))
        checks = mods["verifier"]._CHECKS
        for cid, fn in list(checks.items()):
            wrapped = self._span(f"verifier.{cid}", fn)
            self._rebind(sites, fn, wrapped)
            self._undo.append((checks, cid, fn))
            checks[cid] = wrapped

    def _rebind(self, sites, orig, wrapped) -> None:
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is orig:
                    self._set(site, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def summary(self) -> dict:
        """Additive per-name and per-layer totals of the spans and counts so far.

        ``X.calls`` and ``X.s`` are call count and inclusive seconds per span
        name; ``layer.L.self_s`` is time in layer L's spans not covered by a
        child span; ``layer.L.outer_s`` is the time inside outermost spans of
        layer L; ``verifier.session.s`` is run_all time minus its validation
        and per-check children.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for i, (name, t0, t1, parent, outer) in enumerate(spans):
            d = t1 - t0
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += d
            out[f"layer.{layer}.self_s"] += d - child[i]
            if outer:
                out[f"layer.{layer}.outer_s"] += d
            if name == "verifier.run_all":
                out["verifier.session.s"] += d
            elif parent >= 0 and spans[parent][0] == "verifier.run_all" and (
                name == "instance.validate" or name.startswith("verifier.V")
            ):
                out["verifier.session.s"] -= d
        out.update(self.counts)
        out["trace.spans"] = len(spans)
        return dict(out)


def merge(summaries) -> dict:
    """Sum additive summaries, such as those of the tasks of one pool pass."""
    out: Counter = Counter()
    for s in summaries:
        out.update(s)
    return dict(out)
