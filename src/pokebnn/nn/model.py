"""Executes a lowered GraphSpec with reverse-mode gradients.

The executor owns every parameter and calibration state keyed by node id:
conv/dense weights, BatchNorm affine + running statistics, DPReLU vectors,
and per-quantizer clipping bounds. ``Model.__init__`` lowers the node list
once into a plan of steps. ``forward`` runs the plan on Tensors, recording
the tape that ``loss.backward()`` differentiates; ``logits`` runs the same
plan on plain arrays and records nothing. From phase 2 on, ``logits``
quantizes each weight once and reuses it until the arena's bytes change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import quant
from ..graphir import (OP_PARAMS, WEIGHT_OPS, DType, GraphSpec, NodeSpec,
                       infer_shapes, param_shapes)
from . import autodiff as ad
from .autodiff import Parameter, Tensor


@dataclass
class QuantContext:
    """Per-call mode: BN train/eval, the quantization phase (phase 1
    binarizes activations only; phase 2 also quantizes weights and the 4/8-bit
    activations), the smooth-surrogate mode of the gradient oracles, and
    whether the plan records a tape on Tensors or runs on plain arrays."""

    training: bool = True
    phase: int = 1
    surrogate: bool = False
    record: bool = True


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
        self.graph = graph
        self.shapes = infer_shapes(graph)
        self.dtype = np.dtype(dtype)
        self.binary_bound = 3.0
        self.bn_momentum = 0.9
        self.bn_stats: dict[str, dict[str, np.ndarray]] = {}
        self.bounds: dict[str, quant.BoundState] = {}
        init = self._init_params(np.random.default_rng(seed))
        # every parameter's data and grad are views into the arena's buffers
        self.arena = ParamArena(init, self.dtype)
        self.params: dict[str, Tensor] = {
            name: Parameter(view, self.arena.grad_views[name], name=name)
            for name, view in self.arena.views.items()}
        # logits' quantized weights by node id, valid while the arena's bytes
        # equal the snapshot taken when the cache was emptied
        self._quantized: dict[str, np.ndarray] = {}
        self._snapshot: np.ndarray | None = None
        # the plan: one step per node; the slot after the last step holds the batch
        index = {node.id: i for i, node in enumerate(graph.nodes)}
        self._plan = [(node, (len(graph.nodes),) if node.op == "input"
                       else tuple([index[i] for i in node.inputs]),
                       self._lower(node)) for node in graph.nodes]
        outputs = [i for i, node in enumerate(graph.nodes) if node.op == "output"]
        if len(outputs) != 1:
            raise ValueError(f"graph {graph.name!r} has {len(outputs)} output nodes")
        self._output = outputs[0]

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
    # Forward: the plan on Tensors (forward) or on plain arrays (logits)
    # ------------------------------------------------------------------

    def forward(self, x, training: bool = True, phase: int = 1,
                surrogate: bool = False, hooks=()) -> Tensor:
        """Runs the plan on Tensors, recording the tape that ``backward``
        differentiates; returns the output-node tensor ([N, 1, 1, classes]).

        ``phase`` selects active quantizers: binary activations always, all
        weights and the 4/8-bit activations from phase 2 on. Each of
        ``hooks`` is called as ``hook(node, out)`` after every step, with
        the node's output array.
        """
        return self._execute(x, hooks, training=training, phase=phase,
                             surrogate=surrogate, record=True)

    def logits(self, x, training: bool = False, phase: int = 2,
               hooks=()) -> np.ndarray:
        """Runs the plan on plain arrays with no tape; returns [N, classes].

        The inference call. With ``training`` it still updates the BN
        running statistics and the unfrozen EMA bounds, as ``forward`` does.
        """
        out = self._execute(x, hooks, training=training, phase=phase,
                            surrogate=False, record=False)
        return out.reshape(out.shape[0], -1)

    def _execute(self, x, hooks, **mode):
        ctx = QuantContext(**mode)
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4:
            raise ValueError(f"expected [N, H, W, C] input, got shape {x.shape}")
        if x.shape[1:] != tuple(self.graph.input_shape):
            raise ValueError(f"graph {self.graph.name!r} expects input "
                             f"{tuple(self.graph.input_shape)}, got {x.shape[1:]}")
        if not ctx.record and ctx.phase >= 2:
            self._check_quantized()
        values = [None] * len(self._plan) + [Tensor(x) if ctx.record else x]
        for i, (node, slots, run) in enumerate(self._plan):
            out = values[i] = run(self, [values[s] for s in slots], ctx)
            for hook in hooks:
                hook(node, out.data if ctx.record else out)
        return values[self._output]

    def _check_quantized(self):
        """Empties the quantized-weight cache unless the arena's bytes equal
        the snapshot, which is then retaken. One exact compare catches every
        writer: Adam, ``load_state_dict``, the ``Parameter.data`` setter and
        in-place writes through a view or to ``arena.data``."""
        data = self.arena.data
        # the bits as unsigned words of the element size: as exact as bytes,
        # and fewer elements to compare
        data = data.view(f"u{data.itemsize}" if data.itemsize <= 8 else np.uint8)
        if self._snapshot is None or not np.array_equal(data, self._snapshot):
            self._quantized = {}
            self._snapshot = data.copy()

    def _lower(self, node: NodeSpec) -> Callable:
        """The step function ``run(model, ins, ctx)`` of one node.

        Attributes, ops and parameters are resolved here, once. Each op is
        looked up by its public ``nn.autodiff`` name and runs on Tensors and
        on plain arrays alike, so only the parameters passed differ by mode.
        BN statistics and bound state are read from ``model`` when the step
        runs, since training updates them; the step holds no reference to the
        model, so a dropped model is freed at once rather than by the cycle
        collector.
        """
        op, a, nid = node.op, node.attrs, node.id
        if op in ("input", "output"):
            return lambda model, ins, ctx: ins[0]
        if op == "quantize_act":
            return self._lower_act_quant(nid, a["act_bits"])
        # the parameters after the weight as (arrays, Tensors), indexed by ctx.record
        tensors = tuple([self.params[f"{nid}.{k}"] for k in OP_PARAMS.get(op, ())
                         if k != "w"])
        params = (tuple([t.data for t in tensors]), tensors)
        if op == "batchnorm":
            return self._lower_batchnorm(nid, params)
        args = tuple([a[k] for k in _ATTR_ARGS.get(op, ())])
        if op == "avg_pool":
            args += (a.get("divisor"),)
        fn = getattr(ad, "mul" if op == "multiply" else op)
        if op in WEIGHT_OPS:
            weight = self._lower_weight(nid, a["weight_bits"],
                                        depthwise=op == "depthwise_conv2d")
            return lambda model, ins, ctx: fn(ins[0], weight(model, ctx),
                                              *params[ctx.record], *args)
        return lambda model, ins, ctx: fn(*ins, *params[ctx.record], *args)

    @staticmethod
    def _lower_act_quant(nid: str, bits: DType) -> Callable:
        if bits is DType.BIN:
            binarize = ad.binarize
            return lambda model, ins, ctx: binarize(ins[0], model.binary_bound,
                                                    ctx.surrogate)
        fake_quant = ad.fake_quant

        def run(model, ins, ctx):
            state = model.bounds[nid]
            if ctx.training and not state.frozen:
                batch = ins[0].data if ctx.record else ins[0]
                model.bounds[nid] = state = quant.update_ema_bound(state, batch)
            if ctx.phase < 2:
                return ins[0]
            return fake_quant(ins[0], state.bound, bits.bits, ctx.surrogate)
        return run

    @staticmethod
    def _lower_batchnorm(nid: str, params) -> Callable:
        train, evaluate = ad.batchnorm_train, ad.batchnorm_eval

        def run(model, ins, ctx):
            stats = model.bn_stats[nid]
            if not ctx.training:
                return evaluate(ins[0], *params[ctx.record], stats["mean"], stats["var"])
            out, bm, bv = train(ins[0], *params[ctx.record])
            m = model.bn_momentum
            stats["mean"] = m * stats["mean"] + (1 - m) * bm
            stats["var"] = m * stats["var"] + (1 - m) * bv
            return out
        return run

    def _lower_weight(self, nid: str, bits: DType, depthwise: bool) -> Callable:
        """``weight(model, ctx)``: the node's weight as its op reads it,
        quantized from phase 2 on unless ``bits`` is a float type. With no
        tape, the quantized weight is computed once and read from the
        model's cache, read-only, until the arena changes."""
        w = self.params[f"{nid}.w"]
        plain = (w.data, w)     # indexed by ctx.record
        if bits.is_float:
            return lambda model, ctx: plain[ctx.record]
        binary = bits is DType.BIN
        quantize = ad.binarize if binary else ad.fake_quant
        # one bound per output channel: (C, mult) for depthwise, else the last axis
        channels = w.data.shape[2:] if depthwise else w.data.shape[-1:]
        rows = (-1, math.prod(channels))

        def quantized(value, surrogate):
            bounds = quant.weight_channel_bounds(w.data.reshape(rows)).reshape(channels)
            if binary:
                return quantize(value, bounds, surrogate)
            return quantize(value, bounds, bits.bits, surrogate)

        def weight(model, ctx):
            if ctx.phase < 2:
                return plain[ctx.record]
            if ctx.record:
                return quantized(w, ctx.surrogate)
            cached = model._quantized.get(nid)
            if cached is None:
                # sign() reads no bound; only a recorded gradient is gated by one
                cached = (quantize(w.data, None, False) if binary
                          else quantized(w.data, False))
                cached.flags.writeable = False
                model._quantized[nid] = cached
            return cached
        return weight

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    def zero_grad(self):
        self.arena.grad.fill(0)

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: np.array(t.data) for name, t in self.params.items()}
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
        for name, t in self.params.items():
            t.data[...] = state[name]
        self.arena.grad.fill(0)
        for nid, stats in self.bn_stats.items():
            stats["mean"] = np.asarray(state[nid + ".running_mean"], dtype=self.dtype)
            stats["var"] = np.asarray(state[nid + ".running_var"], dtype=self.dtype)
        for nid in list(self.bounds):
            self.bounds[nid] = quant.BoundState(
                bound=np.asarray(state[nid + ".bound"], dtype=np.float64),
                frozen=bool(int(state[nid + ".bound_frozen"])),
                ema_alpha=self.bounds[nid].ema_alpha)
