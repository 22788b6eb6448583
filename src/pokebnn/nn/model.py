"""Executes a lowered GraphSpec and differentiates it.

The executor owns every parameter and calibration state keyed by node id:
conv/dense weights, BatchNorm affine + running statistics, DPReLU vectors,
and per-quantizer clipping bounds. ``Model.__init__`` lowers the node list
once into a plan of steps, and fixes the order in which a pullback visits
them. ``forward`` runs the plan on arrays and returns the logits with their
pullback, which calls each step's VJP once; ``logits`` runs the same plan
and keeps nothing for a gradient. From phase 2 on, ``logits`` quantizes
each weight once and reuses it until the arena's bytes change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np

from .. import quant
from ..graphir import (OP_PARAMS, WEIGHT_OPS, DType, GraphError, GraphSpec,
                       NodeSpec, infer_shapes, param_shapes, validate_graph)
from . import autodiff as ad


@dataclass
class QuantContext:
    """Per-call mode: BN train/eval, the quantization phase (phase 1
    binarizes activations only; phase 2 also quantizes weights and the 4/8-bit
    activations), and the quantized weights by node id that ``logits`` reads
    and fills, or None where ``forward`` quantizes each weight afresh for its
    gradient. Every quantizer has one forward, the sign or the rounded grid,
    and the straight-through gradient."""

    training: bool = True
    phase: int = 1
    cache: dict | None = None


# the initial value of each parameter other than a weight, if not 0
_INIT_VALUES = {"scale": 1.0, "gamma": 0.25, "eta": 1.0}
# graph op -> the attrs passed positionally
_ATTR_ARGS = {"conv2d": ("stride", "padding"),
              "depthwise_conv2d": ("stride", "padding"),
              "pad_channels": ("out_channels",),
              "tile_channels": ("out_channels",),
              "avg_channels": ("out_channels",),
              "avg_pool": ("kernel", "stride", "padding"),
              "max_pool": ("kernel", "stride", "padding")}


def _step(forward, vjp, call, ste=None):
    """Runs an op's array ``forward`` on the arguments ``call``; returns its
    output and the step's record, ``(vjp, saved, call, ste)``: the op's VJP,
    what the forward saved, ``call``, and the ``(w, bounds)`` of a quantized
    weight's straight-through gradient or None."""
    out, saved = forward(*call)
    return out, (vjp, saved, call, ste)


class ParamArena:
    """Named arrays stored as views into one flat buffer.

    ``data`` holds every value, in insertion order, and ``views[name]`` is
    the slice ``spans[name]`` of it in the array's own shape, so a write
    through either one is seen by the other. ``grad`` is a second buffer of
    the same size, with the views ``grad_views[name]`` in the same way.
    """

    def __init__(self, arrays: dict, dtype):
        flat = [np.ravel(a) for a in arrays.values()]
        # the leading empty array keeps a model without parameters valid
        self.data = np.concatenate([np.empty(0), *flat], dtype=dtype)
        self.grad = np.zeros(self.data.size, dtype=dtype)
        self.spans: dict[str, slice] = {}
        self.views: dict[str, np.ndarray] = {}
        self.grad_views: dict[str, np.ndarray] = {}
        start = 0
        for name, a in arrays.items():
            span = slice(start, start + np.size(a))
            self.spans[name] = span
            self.views[name] = self.data[span].reshape(np.shape(a))
            self.grad_views[name] = self.grad[span].reshape(np.shape(a))
            start = span.stop


class Model:
    def __init__(self, graph: GraphSpec, seed: int = 0, dtype=np.float64):
        diags = validate_graph(graph)
        if diags:
            raise GraphError(f"graph {graph.name!r}: " + "; ".join(diags))
        self.graph = graph
        self.shapes = infer_shapes(graph)
        self.dtype = np.dtype(dtype)
        self.binary_bound = 3.0
        self.bn_momentum = 0.9
        self.bn_stats: dict[str, dict[str, np.ndarray]] = {}
        self.bounds: dict[str, quant.BoundState] = {}
        init = self._init_params(np.random.default_rng(seed))
        # every parameter's value and gradient are views into the arena's
        # buffers; write a value with params[name][...] = value
        self.arena = ParamArena(init, self.dtype)
        self.params = MappingProxyType(self.arena.views)
        # logits' quantized weights by node id, valid while the arena's bytes
        # equal the snapshot taken when the cache was emptied
        self._quantized: dict[str, np.ndarray] = {}
        self._snapshot: np.ndarray | None = None
        # the plan: one step per node, as (node, input slots, run, parameter
        # names, the VJP's needs); the slot after the last step holds the batch
        index = {node.id: i for i, node in enumerate(graph.nodes)}
        # whether each slot's value depends on a parameter, so takes a gradient
        needs = [False] * (len(graph.nodes) + 1)
        self._plan = []
        for i, node in enumerate(graph.nodes):
            slots = ((len(graph.nodes),) if node.op == "input"
                     else tuple([index[s] for s in node.inputs]))
            names = tuple([f"{node.id}.{k}" for k in OP_PARAMS.get(node.op, ())])
            needs[i] = bool(names) or any(needs[s] for s in slots)
            self._plan.append((node, slots, self._lower(node), names,
                               tuple([needs[s] for s in slots]) + (True,) * len(names)))
        self._output = next(i for i, node in enumerate(graph.nodes)
                            if node.op == "output")
        self._order = self._backward_order()

    # ------------------------------------------------------------------
    # Parameter setup
    # ------------------------------------------------------------------

    def _init_params(self, rng) -> dict[str, np.ndarray]:
        """Initial parameter values by name; sets up BN and bound state."""
        init = {}
        for node in self.graph.nodes:
            nid, op = node.id, node.op
            out_c = self.shapes[nid][2]
            if op == "conv2d" and node.attrs.get("groups", 1) != 1:
                raise ValueError(f"node {nid!r}: conv2d with groups="
                                 f"{node.attrs['groups']} is costed but not executed")
            if op in OP_PARAMS:
                shapes = param_shapes(node, self.shapes[node.inputs[0]],
                                      self.shapes[nid])
                for key, shape in zip(OP_PARAMS[op], shapes):
                    if key == "w":
                        # He init for convolutions, LeCun for dense; the
                        # fan-in is the weights that one output reads
                        gain = 1.0 if op == "dense" else 2.0
                        fan_in = math.prod(shape) // out_c
                        value = rng.normal(0.0, (gain / fan_in) ** 0.5, size=shape)
                    else:
                        value = np.full(shape, _INIT_VALUES.get(key, 0.0))
                    init[f"{nid}.{key}"] = value
            if op == "batchnorm":
                self.bn_stats[nid] = {
                    "mean": np.zeros(out_c, dtype=self.dtype),
                    "var": np.ones(out_c, dtype=self.dtype),
                }
            elif op == "quantize_act" and node.attrs["act_bits"] is not DType.BIN:
                self.bounds[nid] = quant.BoundState(bound=np.float64(1.0))
        return init

    # ------------------------------------------------------------------
    # Quantizer state
    # ------------------------------------------------------------------

    def freeze_activation_bounds(self) -> int:
        """Freezes every EMA bound; returns how many flipped this call."""
        flipped = 0
        for nid, state in self.bounds.items():
            if not state.frozen:
                self.bounds[nid] = state.freeze()
                flipped += 1
        return flipped

    def activation_bounds(self) -> dict:
        return {nid: float(np.asarray(s.bound)) for nid, s in self.bounds.items()}

    # ------------------------------------------------------------------
    # Forward: the plan on arrays, with a pullback (forward) or not (logits)
    # ------------------------------------------------------------------

    def forward(self, x, training: bool = True, phase: int = 1, hooks=()):
        """Runs the plan; returns ``(logits, backward)``: the ``[N, classes]``
        output and its pullback. ``backward(grad)`` takes the gradient with
        respect to ``logits`` and adds each parameter's gradient into
        ``arena.grad``; it frees the record as it goes and runs once.

        ``phase`` selects active quantizers: binary activations always, all
        weights and the 4/8-bit activations from phase 2 on. Each of
        ``hooks`` is called as ``hook(node, out)`` after every step, with
        the node's output array.
        """
        record = [None] * len(self._plan)
        out = self._execute(x, hooks, QuantContext(training, phase), record)

        def backward(grad):
            if not record:
                raise RuntimeError("this pullback has already run")
            steps, record[:] = record[:], []
            self._backward(np.asarray(grad, dtype=out.dtype).reshape(out.shape),
                           steps)
        return out.reshape(len(out), -1), backward

    def logits(self, x, training: bool = False, phase: int = 2,
               hooks=()) -> np.ndarray:
        """Runs the plan and keeps nothing for a gradient; returns [N, classes].

        The inference call. With ``training`` it still updates the BN
        running statistics and the unfrozen EMA bounds, as ``forward`` does.
        """
        if phase >= 2:
            self._check_quantized()
        out = self._execute(x, hooks, QuantContext(training, phase,
                                                   cache=self._quantized))
        return out.reshape(out.shape[0], -1)

    def _execute(self, x, hooks, ctx, record=None):
        """Runs the plan; returns the output node's array. Stores each
        step's record in ``record``, by step, if it is a list."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4:
            raise ValueError(f"expected [N, H, W, C] input, got shape {x.shape}")
        if x.shape[1:] != tuple(self.graph.input_shape):
            raise ValueError(f"graph {self.graph.name!r} expects input "
                             f"{tuple(self.graph.input_shape)}, got {x.shape[1:]}")
        values = [None] * len(self._plan) + [x]
        for i, (node, slots, run, _, _) in enumerate(self._plan):
            out, rec = run(self, [values[s] for s in slots], ctx)
            values[i] = out
            if record is not None:
                record[i] = rec
            del rec     # with no record, the step's saved arrays die here
            for hook in hooks:
                hook(node, out)
        return values[self._output]

    def _backward_order(self) -> list:
        """The steps in the order a pullback runs them: the reverse
        post-order of a depth-first sweep from the output step over each
        step's input slots, last input first. ``Tensor.backward`` sorts the
        same ops in this order, so a slot with several consumers sums their
        gradients in the same order as the op-level API."""
        order, seen, stack = [], set(), [(self._output, False)]
        while stack:
            i, done = stack.pop()
            if done:
                order.append(i)
            elif i not in seen:
                seen.add(i)
                stack.append((i, True))
                stack += [(s, False) for s in self._plan[i][1] if s < len(self._plan)]
        return order[::-1]

    def _backward(self, grad, record):
        """Adds into ``arena.grad`` the parameter gradients of the forward
        call that left ``record``, given the gradient of its output."""
        # a step that passed its input through passes its gradient back to it
        owner = list(range(len(record) + 1))
        for i, rec in enumerate(record):
            if rec is None:
                owner[i] = owner[self._plan[i][1][0]]
        grads = [None] * len(owner)
        grads[owner[self._output]] = grad
        views = self.arena.grad_views
        for i in self._order:
            if grads[i] is None:
                continue
            vjp, saved, call, ste = record[i]
            _, slots, _, names, needs = self._plan[i]
            grads_in = vjp(grads[i], saved, needs, *call)
            record[i] = grads[i] = None
            for s, need, x, g in zip(slots, needs, call, grads_in):
                # as Tensor._accumulate: the first gradient in the slot's
                # dtype, the rest added with numpy's promotion
                if need and grads[owner[s]] is None:
                    grads[owner[s]] = g if g.dtype == x.dtype else g.astype(x.dtype)
                elif need:
                    grads[owner[s]] = grads[owner[s]] + g
            grads_in = grads_in[len(slots):]
            if ste is not None:     # the quantized weight's straight-through gradient
                grads_in = (ad._ste_vjp(grads_in[0], None, None, *ste)[0], *grads_in[1:])
            for name, g in zip(names, grads_in):
                views[name] += g

    def _check_quantized(self):
        """Empties the quantized-weight cache unless the arena's bytes equal
        the snapshot, which is then retaken. One exact compare catches every
        writer: Adam, ``load_state_dict`` and in-place writes through a view
        or to ``arena.data``."""
        data = self.arena.data
        # the bits as unsigned words of the element size: as exact as bytes,
        # and fewer elements to compare
        data = data.view(f"u{data.itemsize}" if data.itemsize <= 8 else np.uint8)
        if self._snapshot is None or not np.array_equal(data, self._snapshot):
            self._quantized.clear()
            self._snapshot = data.copy()

    def _lower(self, node: NodeSpec) -> Callable:
        """The step function ``run(model, ins, ctx)`` of one node, which
        returns the node's output and the step's record (see ``_step``), or
        None for a step that passes its input through.

        Attributes, ops and parameters are resolved here, once. BN statistics
        and bound state are read from ``model`` when the step runs, since
        training updates them; the step holds no reference to the model, so a
        dropped model is freed at once rather than by the cycle collector.
        """
        op, a, nid = node.op, node.attrs, node.id
        if op in ("input", "output"):
            return lambda model, ins, ctx: (ins[0], None)
        if op == "quantize_act":
            return self._lower_act_quant(nid, a["act_bits"])
        # the parameters after the weight
        params = tuple([self.arena.views[f"{nid}.{k}"] for k in OP_PARAMS.get(op, ())
                        if k != "w"])
        if op == "batchnorm":
            return self._lower_batchnorm(nid, params)
        args = tuple([a[k] for k in _ATTR_ARGS.get(op, ())])
        if op == "avg_pool":
            args += (a.get("divisor"),)
        name = "mul" if op == "multiply" else op
        forward, vjp = getattr(ad, f"_{name}"), getattr(ad, f"_{name}_vjp")
        if op not in WEIGHT_OPS:
            return lambda model, ins, ctx: _step(forward, vjp, (*ins, *params, *args))
        weight = self._lower_weight(nid, a["weight_bits"],
                                    depthwise=op == "depthwise_conv2d")

        def run(model, ins, ctx):
            w, ste = weight(ctx)
            return _step(forward, vjp, (ins[0], w, *params, *args), ste)
        return run

    @staticmethod
    def _lower_act_quant(nid: str, bits: DType) -> Callable:
        binarize, fake_quant, vjp = ad._binarize, ad._fake_quant, ad._ste_vjp
        if bits is DType.BIN:
            return lambda model, ins, ctx: _step(
                binarize, vjp, (ins[0], model.binary_bound))

        def run(model, ins, ctx):
            state = model.bounds[nid]
            if ctx.training and not state.frozen:
                model.bounds[nid] = state = quant.update_ema_bound(state, ins[0])
            if ctx.phase < 2:
                return ins[0], None
            return _step(fake_quant, vjp, (ins[0], state.bound, bits.bits))
        return run

    @staticmethod
    def _lower_batchnorm(nid: str, params) -> Callable:
        train, evaluate = ad._batchnorm_train, ad._batchnorm_eval

        def run(model, ins, ctx):
            stats = model.bn_stats[nid]
            if not ctx.training:
                return _step(evaluate, ad._batchnorm_eval_vjp,
                             (ins[0], *params, stats["mean"], stats["var"]))
            (out, bm, bv), saved = train(ins[0], *params)
            m = model.bn_momentum
            stats["mean"] = m * stats["mean"] + (1 - m) * bm
            stats["var"] = m * stats["var"] + (1 - m) * bv
            return out, (ad._batchnorm_train_vjp, saved, (ins[0], *params), None)
        return run

    def _lower_weight(self, nid: str, bits: DType, depthwise: bool) -> Callable:
        """``weight(ctx)``: the node's weight as its op reads it, quantized
        from phase 2 on unless ``bits`` is a float type, and the ``(w,
        bounds)`` of its straight-through gradient or None. With a cache in
        ``ctx``, the quantized weight is computed once and read from the
        cache, read-only, until the arena changes."""
        w = self.arena.views[f"{nid}.w"]
        if bits.is_float:
            return lambda ctx: (w, None)
        binary = bits is DType.BIN
        quantize = ad._binarize if binary else ad._fake_quant
        # one bound per output channel: (C, mult) for depthwise, else the last axis
        channels = w.shape[2:] if depthwise else w.shape[-1:]
        rows = (-1, math.prod(channels))

        def quantized():
            bounds = quant.weight_channel_bounds(w.reshape(rows)).reshape(channels)
            attrs = (bounds,) if binary else (bounds, bits.bits)
            return quantize(w, *attrs)[0], (w, bounds)

        def weight(ctx):
            if ctx.phase < 2:
                return w, None
            if ctx.cache is None:
                return quantized()
            cached = ctx.cache.get(nid)
            if cached is None:
                # sign() reads no bound; only a gradient is gated by one
                cached = quantize(w, None)[0] if binary else quantized()[0]
                cached.flags.writeable = False
                ctx.cache[nid] = cached
            return cached, None
        return weight

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    def zero_grad(self):
        self.arena.grad.fill(0)

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: np.array(v) for name, v in self.params.items()}
        for nid, stats in self.bn_stats.items():
            state[nid + ".running_mean"] = np.array(stats["mean"])
            state[nid + ".running_var"] = np.array(stats["var"])
        for nid, bound in self.bounds.items():
            state[nid + ".bound"] = np.array(bound.bound, dtype=np.float64)
            state[nid + ".bound_frozen"] = np.array(int(bound.frozen))
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Copies ``state`` into the model; parameters are written into their
        arena views in place. Raises one ValueError naming every missing,
        unexpected and wrong-shaped entry before anything is written."""
        want = {k: v.shape for k, v in self.state_dict().items()}
        errors = [f"missing {k} {want[k]}" for k in want if k not in state]
        errors += [f"unexpected {k} {np.shape(state[k])}"
                   for k in state if k not in want]
        errors += [f"{k} has shape {np.shape(state[k])}, expected {want[k]}"
                   for k in want if k in state and np.shape(state[k]) != want[k]]
        if errors:
            raise ValueError("state dict does not match the model: "
                             + "; ".join(errors))
        for name, v in self.params.items():
            v[...] = state[name]
        self.arena.grad.fill(0)
        for nid, stats in self.bn_stats.items():
            stats["mean"] = np.asarray(state[nid + ".running_mean"], dtype=self.dtype)
            stats["var"] = np.asarray(state[nid + ".running_var"], dtype=self.dtype)
        for nid in list(self.bounds):
            self.bounds[nid] = quant.BoundState(
                bound=np.asarray(state[nid + ".bound"], dtype=np.float64),
                frozen=bool(int(state[nid + ".bound_frozen"])),
                ema_alpha=self.bounds[nid].ema_alpha)
