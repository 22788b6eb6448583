"""Static network IR: typed nodes, shapes and windows, validation, JSON serialization.

Graphs are stored pre-lowered: composite blocks (PokeConv, PokeInit, the SE
gate, shortcut reshaping) appear as expanded primitive subgraphs, so analysis
passes never special-case them. Shapes are per-inference [H, W, C]; the batch
dimension exists only in the executor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import ceil, floor
from numbers import Real

import numpy as np

SCHEMA_VERSION = 1


class DType(Enum):
    """Numeric format of one side of a MAC. The token is the wire name."""

    FP32 = "fp32"
    BF16 = "bf16"
    INT8 = "int8"
    INT4 = "int4"
    INT2 = "int2"
    BIN = "bin"

    @property
    def bits(self) -> int:
        return _DTYPE_BITS[self]

    @property
    def is_float(self) -> bool:
        return self in (DType.FP32, DType.BF16)

    @classmethod
    def from_token(cls, token: str) -> "DType":
        try:
            return cls(token)
        except ValueError:
            raise GraphSchemaError(f"unknown bitwidth token {token!r}") from None


_DTYPE_BITS = {
    DType.FP32: 32,
    DType.BF16: 16,
    DType.INT8: 8,
    DType.INT4: 4,
    DType.INT2: 2,
    DType.BIN: 1,
}

# Every op kind a node may carry. conv-like ops hold the bitwidth pair used
# for MAC bucketing; quantize_act marks executor fake-quant points.
OPS = frozenset({
    "conv2d", "depthwise_conv2d", "dense",
    "batchnorm", "dprelu", "relu", "hardsigmoid",
    "add", "multiply",
    "pad_channels", "tile_channels", "avg_channels",
    "avg_pool", "max_pool", "spatial_mean",
    "quantize_act", "input", "output",
})

# Attribute keys allowed per op; unknown keys are rejected on load.
_OP_ATTRS = {
    "conv2d": {"kernel", "stride", "padding", "out_channels", "groups",
               "act_bits", "weight_bits"},
    "depthwise_conv2d": {"kernel", "stride", "padding", "out_channels",
                         "act_bits", "weight_bits"},
    "dense": {"out_channels", "act_bits", "weight_bits"},
    "batchnorm": set(),
    "dprelu": set(),
    "relu": set(),
    "hardsigmoid": set(),
    "add": set(),
    "multiply": set(),
    "pad_channels": {"out_channels"},
    "tile_channels": {"out_channels"},
    "avg_channels": {"out_channels"},
    "avg_pool": {"kernel", "stride", "padding", "divisor"},
    "max_pool": {"kernel", "stride", "padding"},
    "spatial_mean": set(),
    "quantize_act": {"act_bits"},
    "input": set(),
    "output": set(),
}
# The number of inputs of each op that does not take exactly one.
_ARITY = {"input": 0, "add": 2, "multiply": 2}
# The attributes a node may leave out; every other allowed key is required.
_OPTIONAL_ATTRS = {"groups", "divisor"}

# The parameters of each op that has any, in arena order: the weight "w"
# first, then one value per output channel for each other name.
OP_PARAMS = {
    "conv2d": ("w",),
    "depthwise_conv2d": ("w",),
    "dense": ("w", "bias"),
    "batchnorm": ("scale", "bias"),
    "dprelu": ("alpha", "beta", "gamma", "eta"),
}
# The ops with a weight, the only ones that count MACs.
WEIGHT_OPS = frozenset(op for op, keys in OP_PARAMS.items() if keys[0] == "w")


@dataclass(frozen=True)
class Fusion:
    """A chain of nodes that folds into one inference step.

    ``ops`` is the chain's op pattern, each node reading the one before as
    its first input; an op ending in ``?`` may be left out, and a
    ``quantize_act`` is a 4- or 8-bit one. ``absorbs`` names the elementwise
    kinds of ``cost.count_elementwise`` whose multiplies the fold absorbs
    into a neighbouring BatchNorm or quantizer scale, so that inference pays
    for none of them.
    """

    name: str
    ops: tuple
    absorbs: frozenset


# The one fusion table: ``cost.elementwise_ace`` bills no multiply of an
# absorbed kind, and ``nn.Model``'s eval program runs each match as one step.
FUSIONS = (
    Fusion("pokeconv_tail", ("batchnorm", "add", "add?", "dprelu", "multiply",
                             "batchnorm"), frozenset({"dprelu", "se_final_mul"})),
    Fusion("se_gate", ("spatial_mean", "quantize_act", "dense", "relu",
                       "quantize_act", "dense", "hardsigmoid"),
           frozenset({"se_spatial_mean", "se_activations"})),
    Fusion("stem", ("batchnorm", "dprelu"), frozenset({"dprelu"})),
    Fusion("head", ("spatial_mean", "quantize_act"), frozenset({"global_pool"})),
)


def fused_chains(g: GraphSpec) -> list:
    """Every match of ``FUSIONS`` in ``g``, as ``(fusion, node ids)``: the
    entries in table order, each tried from every node in graph order, with
    no node in two matches. Every node of a match but its last has one
    reader, the next node, which reads it once, as its first input."""
    readers: dict = {}
    for n in g.nodes:
        for ref in n.inputs:
            readers.setdefault(ref, []).append(n)
    taken, chains = set(), []
    for fusion in FUSIONS:
        for start in g.nodes:
            if start.op != fusion.ops[0]:
                continue
            node, ids = start, []
            for op in fusion.ops:
                if (node is None or node.id in taken or node.op != op.rstrip("?")
                        or (op == "quantize_act" and node.attrs["act_bits"] is DType.BIN)):
                    if op.endswith("?"):
                        continue
                    break
                ids.append(node.id)
                nxt = readers.get(node.id, ())
                node = nxt[0] if len(nxt) == 1 and nxt[0].inputs[0] == node.id else None
            else:
                chains.append((fusion, tuple(ids)))
                taken.update(ids)
    return chains


class GraphError(ValueError):
    """Structural problem in a GraphSpec."""


class GraphSchemaError(GraphError):
    """Malformed serialized graph."""


class ShapeError(GraphError):
    """Shape inference failure; message names the offending node."""


@dataclass
class NodeSpec:
    id: str
    op: str
    inputs: list[str] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op not in OPS:
            raise GraphSchemaError(f"unknown op {self.op!r} in node {self.id!r}")


@dataclass
class GraphSpec:
    """Acyclic single-input/single-output network description."""

    name: str
    input_shape: tuple[int, int, int]
    nodes: list[NodeSpec] = field(default_factory=list)

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)


ShapeMap = dict  # node id -> (H, W, C)


def conv_out_size(size: int, kernel: int, stride: int, padding: str) -> int:
    if padding == "same":
        return ceil(size / stride)
    if padding == "valid":
        return floor((size - kernel) / stride) + 1
    raise ShapeError(f"unknown padding mode {padding!r}")


def pad_amounts(size: int, kernel: int, stride: int, padding: str) -> tuple[int, int]:
    """Zero padding (before, after) along one axis; SAME puts the odd pixel after."""
    if padding == "valid":
        return 0, 0
    if padding != "same":
        raise ShapeError(f"unknown padding mode {padding!r}")
    total = max((-(-size // stride) - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def windows(x, kh: int, kw: int, stride: int, padding: str, fill=0):
    """Strided kh x kw windows over the H and W axes of an [..., H, W, C] array.

    Returns the read-only view [..., ho, wo, C, kh, kw] of ``x`` padded with
    ``fill``, and the padding (top, bottom, left, right) from ``pad_amounts``.
    """
    h, w = x.shape[-3:-1]
    pt, pb = pad_amounts(h, kh, stride, padding)
    pl, pr = pad_amounts(w, kw, stride, padding)
    if pt or pb or pl or pr:
        xp = np.full(x.shape[:-3] + (h + pt + pb, w + pl + pr, x.shape[-1]),
                     fill, dtype=x.dtype)
        xp[..., pt:pt + h, pl:pl + w, :] = x
    else:
        xp = x
    hp, wp = xp.shape[-3:-1]
    if kh > hp or kw > wp:
        raise ValueError(f"window {kh}x{kw} is larger than the padded input {hp}x{wp}")
    *lead, sh, sw, sc = xp.strides
    shape = (*xp.shape[:-3], (hp - kh) // stride + 1, (wp - kw) // stride + 1,
             xp.shape[-1], kh, kw)
    strides = (*lead, sh * stride, sw * stride, sc, sh, sw)
    if xp.flags.c_contiguous:
        # the view that as_strided makes, without its Python wrapper's cost
        win = np.ndarray(shape, xp.dtype, xp, 0, strides)
        win.flags.writeable = False
    else:   # the constructor views one contiguous buffer only
        win = np.lib.stride_tricks.as_strided(xp, shape, strides, writeable=False)
    return win, (pt, pb, pl, pr)


def _spatial(node: NodeSpec, h: int, w: int) -> tuple[int, int]:
    """Output height and width of a windowed op; raises ShapeError if empty."""
    kh, kw = node.attrs["kernel"]
    s = node.attrs["stride"]
    pad = node.attrs["padding"]
    oh, ow = conv_out_size(h, kh, s, pad), conv_out_size(w, kw, s, pad)
    if oh < 1 or ow < 1:
        raise ShapeError(f"node {node.id!r}: spatial size underflow")
    return oh, ow


def infer_shapes(g: GraphSpec) -> ShapeMap:
    """Deterministic per-node output shapes; raises ShapeError on failure."""
    shapes: ShapeMap = {}
    for node in g.nodes:
        ins = []
        for ref in node.inputs:
            if ref not in shapes:
                raise ShapeError(f"node {node.id!r}: input {ref!r} not yet defined")
            ins.append(shapes[ref])
        shapes[node.id] = node_shape(node, ins, g.input_shape)
    return shapes


def node_shape(node: NodeSpec, ins: list, input_shape) -> tuple[int, int, int]:
    """Output shape of one node from its input shapes; raises ShapeError."""
    op = node.op
    a = node.attrs
    if op == "input":
        return tuple(input_shape)
    if op in ("output", "batchnorm", "dprelu", "relu", "hardsigmoid",
              "quantize_act"):
        return ins[0]
    if op == "conv2d":
        h, w, c = ins[0]
        groups = a.get("groups", 1)
        if c % groups or a["out_channels"] % groups:
            raise ShapeError(
                f"node {node.id!r}: groups={groups} does not divide "
                f"channels {c}->{a['out_channels']}")
        oh, ow = _spatial(node, h, w)
        return (oh, ow, a["out_channels"])
    if op == "depthwise_conv2d":
        h, w, c = ins[0]
        if a["out_channels"] % c:
            raise ShapeError(
                f"node {node.id!r}: depthwise out_channels {a['out_channels']} "
                f"not a multiple of input channels {c}")
        oh, ow = _spatial(node, h, w)
        return (oh, ow, a["out_channels"])
    if op == "dense":
        h, w, c = ins[0]
        if (h, w) != (1, 1):
            raise ShapeError(f"node {node.id!r}: dense expects 1x1 spatial, got {h}x{w}")
        return (1, 1, a["out_channels"])
    if op == "add":
        if ins[0] != ins[1]:
            raise ShapeError(
                f"node {node.id!r}: add shape mismatch {ins[0]} vs {ins[1]}")
        return ins[0]
    if op == "multiply":
        s0, s1 = ins
        if s0[2] != s1[2]:
            raise ShapeError(
                f"node {node.id!r}: multiply channel mismatch {s0} vs {s1}")
        # per-channel gate [1,1,C] broadcasts against [H,W,C]
        if s0[:2] == (1, 1):
            return s1
        if s1[:2] == (1, 1) or s0 == s1:
            return s0
        raise ShapeError(f"node {node.id!r}: multiply shape mismatch {s0} vs {s1}")
    if op == "pad_channels":
        h, w, c = ins[0]
        if a["out_channels"] < c:
            raise ShapeError(f"node {node.id!r}: pad cannot shrink {c}->{a['out_channels']}")
        return (h, w, a["out_channels"])
    if op == "tile_channels":
        h, w, c = ins[0]
        if a["out_channels"] < c:
            raise ShapeError(
                f"node {node.id!r}: tile cannot shrink {c}->{a['out_channels']}")
        return (h, w, a["out_channels"])
    if op == "avg_channels":
        h, w, c = ins[0]
        if c % a["out_channels"]:
            raise ShapeError(
                f"node {node.id!r}: avg_channels {c}->{a['out_channels']} not integral")
        return (h, w, a["out_channels"])
    if op in ("avg_pool", "max_pool"):
        h, w, c = ins[0]
        oh, ow = _spatial(node, h, w)
        return (oh, ow, c)
    if op == "spatial_mean":
        return (1, 1, ins[0][2])
    raise ShapeError(f"node {node.id!r}: unhandled op {op!r}")


def weight_shape(node: NodeSpec, in_shape) -> tuple | None:
    """Shape of a node's weight from its input shape [H, W, C], or None for
    an op without one: [kh, kw, C / groups, out] for conv2d, [kh, kw, C,
    out / C] (the channel multiplier) for depthwise_conv2d, [C, out] for dense.
    """
    op, a, c = node.op, node.attrs, in_shape[2]
    if op == "conv2d":
        kh, kw = a["kernel"]
        return (kh, kw, c // a.get("groups", 1), a["out_channels"])
    if op == "depthwise_conv2d":
        kh, kw = a["kernel"]
        return (kh, kw, c, a["out_channels"] // c)
    if op == "dense":
        return (c, a["out_channels"])
    return None


def param_shapes(node: NodeSpec, in_shape, out_shape) -> list:
    """Shapes of a node's parameters in ``OP_PARAMS`` order: the weight's
    from ``weight_shape``, and (out channels,) for every other parameter."""
    shapes = [(out_shape[2],)] * len(OP_PARAMS.get(node.op, ()))
    if node.op in WEIGHT_OPS:
        shapes[0] = weight_shape(node, in_shape)
    return shapes


def _positive_int(v) -> bool:
    return type(v) is int and v > 0


# attribute key -> (test of its value, what the test accepts)
_ATTR_VALUES = {
    "kernel": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
               and all(map(_positive_int, v)), "two positive integers"),
    "stride": (_positive_int, "a positive integer"),
    "out_channels": (_positive_int, "a positive integer"),
    "groups": (_positive_int, "a positive integer"),
    "padding": (lambda v: v in ("same", "valid"), "'same' or 'valid'"),
    "divisor": (lambda v: isinstance(v, Real) and v > 0, "positive"),
    "act_bits": (lambda v: isinstance(v, DType), "a bitwidth"),
    "weight_bits": (lambda v: isinstance(v, DType), "a bitwidth"),
}


def validate_graph(g: GraphSpec) -> list[str]:
    """All structural invariants; returns one diagnostic string per violation."""
    return check_graph(g)[0]


def check_graph(g: GraphSpec) -> tuple[list[str], ShapeMap | None]:
    """``validate_graph``'s diagnostics, and the shapes that ``infer_shapes``
    gives, or None if there is a diagnostic."""
    diags: list[str] = []
    seen: set[str] = set()
    inputs = [n for n in g.nodes if n.op == "input"]
    outputs = [n for n in g.nodes if n.op == "output"]
    if len(inputs) != 1:
        diags.append(f"graph must have exactly one input node, found {len(inputs)}")
    if len(outputs) != 1:
        diags.append(f"graph must have exactly one output node, found {len(outputs)}")
    shape = list(g.input_shape)
    if len(shape) != 3 or not all(type(d) is int and d > 0 for d in shape):
        diags.append(f"input_shape must be three positive integers, got {shape}")
    for node in g.nodes:
        if node.id in seen:
            diags.append(f"node {node.id!r}: duplicate id")
        arity = _ARITY.get(node.op, 1)
        if len(node.inputs) != arity:
            diags.append(f"node {node.id!r}: {node.op} takes {arity} inputs, "
                         f"got {len(node.inputs)}")
        for ref in node.inputs:
            if type(ref) is not str or ref not in seen:
                diags.append(f"node {node.id!r}: unresolved input {ref!r}")
        seen.add(node.id)
        extra = set(node.attrs) - _OP_ATTRS[node.op]
        if extra:
            diags.append(f"node {node.id!r}: unexpected attrs {sorted(extra)}")
        missing = _OP_ATTRS[node.op] - _OPTIONAL_ATTRS - set(node.attrs)
        if missing:
            diags.append(f"node {node.id!r}: missing attrs {sorted(missing)}")
        for key, value in node.attrs.items():
            valid, what = _ATTR_VALUES.get(key, (None, ""))
            if valid is not None and not valid(value):
                diags.append(f"node {node.id!r}: {key} must be {what}, got {value!r}")
    if diags:
        return diags, None
    try:
        return diags, infer_shapes(g)
    except ShapeError as e:
        return [str(e)], None


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

_TOP_KEYS = {"name", "version", "input_shape", "nodes"}
_NODE_KEYS = {"id", "op", "inputs", "attrs"}


def _attr_to_json(key, value):
    if isinstance(value, DType):
        return value.value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return list(value)
    return value


def _attr_from_json(op, key, value):
    if key in ("act_bits", "weight_bits"):
        return DType.from_token(value)
    if key == "divisor":
        try:
            return Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            return value        # validate_graph reports it
    return value


def graph_to_json(g: GraphSpec) -> dict:
    return {
        "name": g.name,
        "version": SCHEMA_VERSION,
        "input_shape": list(g.input_shape),
        "nodes": [
            {
                "id": n.id,
                "op": n.op,
                "inputs": list(n.inputs),
                "attrs": {k: _attr_to_json(k, v) for k, v in n.attrs.items()},
            }
            for n in g.nodes
        ],
    }


def graph_from_json(doc: dict) -> GraphSpec:
    if not isinstance(doc, dict):
        raise GraphSchemaError("top level must be an object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise GraphSchemaError(f"unknown top-level keys {sorted(extra)}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise GraphSchemaError(f"missing top-level keys {sorted(missing)}")
    if doc["version"] != SCHEMA_VERSION:
        raise GraphSchemaError(
            f"schema version mismatch: expected {SCHEMA_VERSION}, got {doc['version']}")
    if not isinstance(doc["nodes"], list):
        raise GraphSchemaError(f"nodes must be a list, got {doc['nodes']!r}")
    nodes = []
    for i, nd in enumerate(doc["nodes"]):
        if not isinstance(nd, dict):
            raise GraphSchemaError(f"node #{i}: must be an object, got {nd!r}")
        if not _NODE_KEYS.issuperset(nd):
            raise GraphSchemaError(f"node #{i}: unknown keys {sorted(set(nd) - _NODE_KEYS)}")
        if "id" not in nd or "op" not in nd:
            raise GraphSchemaError(f"node #{i}: missing id or op")
        nid, op = nd["id"], nd["op"]
        if type(nid) is not str:
            raise GraphSchemaError(f"node #{i}: id must be a string, got {nid!r}")
        if type(op) is not str or op not in OPS:
            raise GraphSchemaError(f"node #{i}: unknown op {op!r}")
        # the ids themselves are checked by validate_graph
        inputs = nd.get("inputs", [])
        if not isinstance(inputs, list):
            raise GraphSchemaError(
                f"node {nid!r}: inputs must be a list of node ids, got {inputs!r}")
        raw_attrs = nd.get("attrs", {})
        if not isinstance(raw_attrs, dict):
            raise GraphSchemaError(
                f"node {nid!r}: attrs must be an object, got {raw_attrs!r}")
        if not _OP_ATTRS[op].issuperset(raw_attrs):
            raise GraphSchemaError(f"node {nid!r}: unknown attrs "
                                   f"{sorted(set(raw_attrs) - _OP_ATTRS[op])}")
        attrs = {k: _attr_from_json(op, k, v) for k, v in raw_attrs.items()}
        nodes.append(NodeSpec(id=nid, op=op, inputs=list(inputs), attrs=attrs))
    shape = doc["input_shape"]
    if not isinstance(shape, list) or len(shape) != 3:
        raise GraphSchemaError(f"input_shape must be a list [H, W, C], got {shape!r}")
    return GraphSpec(name=doc["name"], input_shape=tuple(shape), nodes=nodes)


def save_graph(g: GraphSpec, path) -> None:
    with open(path, "w") as f:
        json.dump(graph_to_json(g), f, indent=1)
        f.write("\n")


def load_graph(path) -> GraphSpec:
    """Reads a graph file; raises GraphSchemaError if it does not parse or
    ``validate_graph`` finds any problem, with every diagnostic."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise GraphSchemaError(
                f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
        except UnicodeDecodeError as e:
            raise GraphSchemaError(
                f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None
    g = graph_from_json(doc)
    diags = validate_graph(g)
    if diags:
        raise GraphSchemaError("; ".join(diags))
    return g
