"""In-memory span tracing around calls into the pokebnn layers.

The benchmark does not change the library. For a traced run it replaces the
public functions of each layer with wrappers that record one span per call
and restores the originals afterwards. A function that other pokebnn modules
imported by name (``cost`` imports ``graphir.infer_shapes``) is replaced
under every name that refers to it, so calls through any module are seen.

A span is ``(name, start, end, parent, op, tag)`` with ``perf_counter``
times in seconds. ``parent`` is the index of the enclosing span or -1,
``op`` is the operation index the workload set when the span began (the
identifier shared by the spans of one operation), and ``tag`` is an optional
label such as a kernel layer shape.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "tag")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.tag = None
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op, tag = self.op, self.tag
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op, tag)

        return traced

    def patch_function(self, fn, name: str) -> None:
        """Wraps ``fn`` under every pokebnn module attribute bound to it."""
        wrapped = self.wrap(name, fn)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("pokebnn"):
                continue
            for attr in [a for a, v in vars(module).items() if v is fn]:
                setattr(module, attr, wrapped)
                self._patches.append((module, attr, fn))

    def patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original))
        self._patches.append((cls, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def public_functions(module) -> list:
    """Functions a module defines whose names do not start with ``_``."""
    return [(n, f) for n, f in vars(module).items()
            if inspect.isfunction(f) and f.__module__ == module.__name__
            and not n.startswith("_")]


def instrument(tracer: Tracer) -> None:
    """Installs spans at the public entry points of every benchmarked layer.

    Span names are ``<layer>.<function>``, with layers named after the
    package modules: graphir, builders, cost, quant, kernels, nn.autodiff,
    nn.model and train.
    """
    from pokebnn import builders, cost, graphir, kernels, quant, train
    from pokebnn.nn import autodiff, model

    for name, fn in public_functions(autodiff):
        tracer.patch_function(fn, f"nn.autodiff.{name}")
    tracer.patch_method(autodiff.Tensor, "backward", "nn.autodiff.backward")
    tracer.patch_method(model.Model, "forward", "nn.model.forward")
    for module, names in (
            (train, ("train_loop", "adam_step")),
            (quant, ("update_ema_bound", "weight_channel_bounds")),
            (kernels, ("pack_signs", "binary_conv2d", "int_conv2d", "int_dense")),
            (builders, ("build_named",)),
            (graphir, ("infer_shapes", "graph_to_json", "graph_from_json")),
            (cost, ("analyze_graph", "count_macs", "count_elementwise",
                    "model_size"))):
        for name in names:
            tracer.patch_function(getattr(module, name),
                                  f"{module.__name__.removeprefix('pokebnn.')}.{name}")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up to the covered part of the parent's interval.
    """
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def within(spans, index: int, ancestor_name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor_name:
            return True
        parent = spans[parent][3]
    return False


def export(spans) -> list:
    """Spans as JSON-ready rows, times in integer ns from the first start."""
    t0 = spans[0][1] if spans else 0.0
    return [[name, round((start - t0) * 1e9), round((end - t0) * 1e9),
             parent, op, tag]
            for name, start, end, parent, op, tag in spans]
