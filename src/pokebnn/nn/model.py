"""Executes a lowered GraphSpec with reverse-mode gradients.

The executor owns every parameter and calibration state keyed by node id:
conv/dense weights, BatchNorm affine + running statistics, DPReLU vectors,
and per-quantizer clipping bounds. Forward walks the node list in order;
``loss.backward()`` then fills parameter gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import quant
from ..graphir import DType, GraphSpec, infer_shapes
from . import autodiff as ad
from .autodiff import Tensor

WEIGHT_SUFFIX = ".w"


@dataclass
class QuantContext:
    """Per-forward mode: BN train/eval, the quantization phase (phase 1
    binarizes activations only; phase 2 also quantizes weights and the 4/8-bit
    activations), and the smooth-surrogate mode of the gradient oracles."""

    training: bool = True
    phase: int = 1
    binary_bound: float = 3.0
    surrogate: bool = False
    # override for the binary-weight gradient bound; None = per-channel max
    binary_weight_bound: float | None = None

    @property
    def weights_quantized(self) -> bool:
        return self.phase >= 2


class ParamArena:
    """Named arrays stored as views into one flat buffer.

    ``data`` holds every value, in insertion order, and ``views[name]`` is
    the slice ``spans[name]`` of it in the array's own shape, so a write
    through either one is seen by the other. ``grad`` is a second buffer of
    the same size that ``gather`` fills from per-name gradients.
    """

    def __init__(self, arrays: dict, dtype):
        flat = [np.ravel(a) for a in arrays.values()]
        # the leading empty array keeps a model without parameters valid
        self.data = np.concatenate([np.empty(0), *flat], dtype=dtype)
        self.grad = np.zeros(self.data.size, dtype=dtype)
        self.spans: dict[str, slice] = {}
        self.views: dict[str, np.ndarray] = {}
        start = 0
        for name, a in arrays.items():
            span = slice(start, start + np.size(a))
            self.spans[name] = span
            self.views[name] = self.data[span].reshape(np.shape(a))
            start = span.stop

    def gather(self, grads: dict) -> list:
        """Copies each name's gradient into ``grad``; returns the names whose
        gradient is missing or None, whose spans are zeroed instead."""
        missing = []
        for name, span in self.spans.items():
            g = grads.get(name)
            if g is None:
                missing.append(name)
                self.grad[span] = 0
            else:
                self.grad[span] = np.ravel(g)
        return missing


class Model:
    def __init__(self, graph: GraphSpec, seed: int = 0, dtype=np.float64,
                 binary_bound: float = 3.0, bn_momentum: float = 0.9,
                 ema_alpha: float = 0.9, binary_weight_bound: float | None = None):
        self.graph = graph
        self.shapes = infer_shapes(graph)
        self.dtype = np.dtype(dtype)
        self.binary_bound = binary_bound
        self.bn_momentum = bn_momentum
        self.binary_weight_bound = binary_weight_bound
        self.bn_stats: dict[str, dict[str, np.ndarray]] = {}
        self.bounds: dict[str, quant.BoundState] = {}
        init = self._init_params(np.random.default_rng(seed), ema_alpha)
        # every parameter's data is a view into the one arena buffer
        self.arena = ParamArena(init, self.dtype)
        self.params: dict[str, Tensor] = {
            name: Tensor(view, requires_grad=True, name=name)
            for name, view in self.arena.views.items()}

    # ------------------------------------------------------------------
    # Parameter setup
    # ------------------------------------------------------------------

    def _init_params(self, rng, ema_alpha) -> dict[str, np.ndarray]:
        """Initial parameter values by name; sets up BN and bound state."""
        init = {}
        for node in self.graph.nodes:
            nid = node.id
            out_c = self.shapes[nid][2]
            if node.op == "conv2d" and node.attrs.get("groups", 1) != 1:
                raise ValueError(f"node {nid!r}: conv2d with groups="
                                 f"{node.attrs['groups']} is costed but not executed")
            if node.op in ("conv2d", "depthwise_conv2d"):
                kh, kw = node.attrs["kernel"]
                c_in = self.shapes[node.inputs[0]][2]
                if node.op == "depthwise_conv2d":
                    mult = out_c // c_in
                    shape = (kh, kw, c_in, mult)
                    fan_in = kh * kw
                else:
                    shape = (kh, kw, c_in, out_c)
                    fan_in = kh * kw * c_in
                init[nid + WEIGHT_SUFFIX] = rng.normal(0.0, (2.0 / fan_in) ** 0.5,
                                                       size=shape)
            elif node.op == "dense":
                c_in = self.shapes[node.inputs[0]][2]
                init[nid + WEIGHT_SUFFIX] = rng.normal(0.0, (1.0 / c_in) ** 0.5,
                                                       size=(c_in, out_c))
                init[nid + ".bias"] = np.zeros(out_c)
            elif node.op == "batchnorm":
                init[nid + ".scale"] = np.ones(out_c)
                init[nid + ".bias"] = np.zeros(out_c)
                self.bn_stats[nid] = {
                    "mean": np.zeros(out_c, dtype=self.dtype),
                    "var": np.ones(out_c, dtype=self.dtype),
                }
            elif node.op == "dprelu":
                init[nid + ".alpha"] = np.zeros(out_c)
                init[nid + ".beta"] = np.zeros(out_c)
                init[nid + ".gamma"] = np.full(out_c, 0.25)
                init[nid + ".eta"] = np.ones(out_c)
            elif node.op == "quantize_act":
                if node.attrs["act_bits"] is not DType.BIN:
                    self.bounds[nid] = quant.BoundState(
                        bound=np.float64(1.0), ema_alpha=ema_alpha)
        return init

    def weight_decay_names(self) -> set:
        """Conv/dense weights; BN, DPReLU, bias, and bounds are excluded."""
        return {n for n in self.params if n.endswith(WEIGHT_SUFFIX)}

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
    # Forward / backward
    # ------------------------------------------------------------------

    def forward(self, x, training: bool = True, phase: int = 1,
                surrogate: bool = False, trace: dict | None = None) -> Tensor:
        """Runs the graph; returns the output-node tensor ([N, 1, 1, classes]).

        ``phase`` selects active quantizers: binary activations always, all
        weights and the 4/8-bit activations from phase 2 on. ``trace``
        collects per-node outputs when a dict is supplied.
        """
        ctx = QuantContext(training=training, phase=phase,
                           binary_bound=self.binary_bound, surrogate=surrogate,
                           binary_weight_bound=self.binary_weight_bound)
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4:
            raise ValueError(f"expected [N, H, W, C] input, got shape {x.shape}")
        if x.shape[1:] != tuple(self.graph.input_shape):
            raise ValueError(f"graph {self.graph.name!r} expects input "
                             f"{tuple(self.graph.input_shape)}, got {x.shape[1:]}")
        values: dict[str, Tensor] = {}
        out = None
        for node in self.graph.nodes:
            ins = [values[i] for i in node.inputs]
            values[node.id] = self._run_node(node, ins, x, ctx)
            if node.op == "output":
                out = values[node.id]
            if trace is not None:
                trace[node.id] = np.array(values[node.id].data)
        return out

    def logits(self, x, training: bool = False, phase: int = 2) -> np.ndarray:
        out = self.forward(x, training=training, phase=phase)
        return out.data.reshape(out.data.shape[0], -1)

    def _run_node(self, node, ins, x_input, ctx: QuantContext) -> Tensor:
        op = node.op
        nid = node.id
        if op == "input":
            return Tensor(x_input)
        if op == "output":
            return ins[0]
        if op == "quantize_act":
            bits = node.attrs["act_bits"]
            if bits is DType.BIN:
                return ad.binarize(ins[0], ctx.binary_bound, surrogate=ctx.surrogate)
            state = self.bounds[nid]
            if ctx.training and not state.frozen:
                self.bounds[nid] = state = quant.update_ema_bound(state, ins[0].data)
            if ctx.phase < 2:
                return ins[0]
            return ad.fake_quant(ins[0], state.bound, bits.bits,
                                 surrogate=ctx.surrogate)
        if op in ("conv2d", "depthwise_conv2d", "dense"):
            w = self.params[nid + WEIGHT_SUFFIX]
            w = self._quantized_weight(w, node.attrs["weight_bits"], ctx,
                                       depthwise=op == "depthwise_conv2d")
            if op == "conv2d":
                return ad.conv2d(ins[0], w, stride=node.attrs["stride"],
                                 padding=node.attrs["padding"])
            if op == "depthwise_conv2d":
                return ad.depthwise_conv2d(ins[0], w, stride=node.attrs["stride"],
                                           padding=node.attrs["padding"])
            return ad.dense(ins[0], w, self.params[nid + ".bias"])
        if op == "batchnorm":
            scale, bias = self.params[nid + ".scale"], self.params[nid + ".bias"]
            stats = self.bn_stats[nid]
            if ctx.training:
                out, bm, bv = ad.batchnorm_train(ins[0], scale, bias)
                m = self.bn_momentum
                stats["mean"] = m * stats["mean"] + (1 - m) * bm
                stats["var"] = m * stats["var"] + (1 - m) * bv
                return out
            return ad.batchnorm_eval(ins[0], scale, bias,
                                     stats["mean"], stats["var"])
        if op == "dprelu":
            return ad.dprelu(ins[0], self.params[nid + ".alpha"],
                             self.params[nid + ".beta"],
                             self.params[nid + ".gamma"],
                             self.params[nid + ".eta"])
        if op == "relu":
            return ad.relu(ins[0])
        if op == "hardsigmoid":
            return ad.hardsigmoid(ins[0])
        if op == "add":
            return ad.add(ins[0], ins[1])
        if op == "multiply":
            return ad.mul(ins[0], ins[1])
        if op == "pad_channels":
            return ad.pad_channels(ins[0], node.attrs["out_channels"])
        if op == "tile_channels":
            return ad.tile_channels(ins[0], node.attrs["out_channels"])
        if op == "avg_channels":
            return ad.avg_channels(ins[0], node.attrs["out_channels"])
        if op == "avg_pool":
            divisor = node.attrs.get("divisor")
            return ad.avg_pool(ins[0], kernel=node.attrs["kernel"],
                               stride=node.attrs["stride"],
                               padding=node.attrs["padding"],
                               divisor=float(divisor) if divisor else None)
        if op == "max_pool":
            return ad.max_pool(ins[0], kernel=node.attrs["kernel"],
                               stride=node.attrs["stride"],
                               padding=node.attrs["padding"])
        if op == "spatial_mean":
            return ad.spatial_mean(ins[0])
        raise ValueError(f"node {nid!r}: executor has no handler for {op!r}")

    def _quantized_weight(self, w, bits: DType, ctx: QuantContext,
                          depthwise: bool = False) -> Tensor:
        if bits.is_float or not ctx.weights_quantized:
            return w
        if depthwise:   # [kh, kw, C, mult]: output channel (c, m) has its own bound
            kh, kw, c, m = w.data.shape
            bounds = quant.weight_channel_bounds(
                w.data.reshape(kh, kw, c * m)).reshape(c, m)
        else:
            bounds = quant.weight_channel_bounds(w.data)
        if bits is DType.BIN:
            grad_bound = (bounds if ctx.binary_weight_bound is None
                          else ctx.binary_weight_bound)
            return ad.binarize(w, grad_bound, surrogate=ctx.surrogate)
        return ad.fake_quant(w, bounds, bits.bits, surrogate=ctx.surrogate)

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

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
            t.grad = None
        for nid, stats in self.bn_stats.items():
            stats["mean"] = np.asarray(state[nid + ".running_mean"], dtype=self.dtype)
            stats["var"] = np.asarray(state[nid + ".running_var"], dtype=self.dtype)
        for nid in list(self.bounds):
            self.bounds[nid] = quant.BoundState(
                bound=np.asarray(state[nid + ".bound"], dtype=np.float64),
                frozen=bool(int(state[nid + ".bound_frozen"])),
                ema_alpha=self.bounds[nid].ema_alpha)
