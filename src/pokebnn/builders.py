"""Builtin graph builders: ResNet-50, the PokeBNN family, and a toy variant.

Builders emit fully lowered primitive graphs. Conventions that pin down the
published MAC totals:

- all convolutions and pools use SAME padding (VALID is never emitted);
- bottleneck stride sits on the 3x3 convolution;
- the 4x4 stride-4 stem conv keeps SAME padding on 224 (no pixel dropped);
- the stem depthwise conv is a multiplier-2 depthwise (32 -> 64 channels);
- per-stage channel counts are floor(64 * M * 2^stage), which keeps
  fractional multipliers such as 1.4 consistent with their reported costs.
"""

from __future__ import annotations

from fractions import Fraction

from .graphir import DType, GraphSpec, NodeSpec, node_shape

BLOCKS_PER_STAGE = (3, 4, 6, 3)
STEM_CHANNELS = (32, 64)


def as_multiplier(m) -> Fraction:
    """``m`` as an exact Fraction; raises ValueError unless it is positive."""
    m = Fraction(str(m)) if isinstance(m, float) else Fraction(m)
    if m <= 0:
        raise ValueError("channel multiplier must be positive")
    return m


class _GraphBuilder:
    """Tracks ids and shapes while emitting nodes."""

    def __init__(self, name: str, input_shape):
        self.g = GraphSpec(name=name, input_shape=tuple(input_shape), nodes=[])
        self.shape = {}
        self.emit("in", "input", [])

    def emit(self, node_id, op, inputs, **attrs):
        node = NodeSpec(node_id, op, list(inputs), attrs)
        self.g.nodes.append(node)
        self.shape[node_id] = node_shape(node, [self.shape[i] for i in inputs],
                                         self.g.input_shape)
        return node_id

    def channels(self, node_id) -> int:
        return self.shape[node_id][2]

    def finish(self, last_id) -> GraphSpec:
        self.emit("out", "output", [last_id])
        return self.g


# ---------------------------------------------------------------------------
# ResNet-50
# ---------------------------------------------------------------------------

def build_resnet50(act_bits: DType = DType.BF16,
                   weight_bits: DType | None = None) -> GraphSpec:
    """Standard ResNet-50 v1 on 224x224x3 with 1x1 projection shortcuts."""
    wb = weight_bits or act_bits
    b = _GraphBuilder(f"resnet50-{act_bits.value}", (224, 224, 3))
    bits = dict(act_bits=act_bits, weight_bits=wb)

    x = b.emit("stem_conv", "conv2d", ["in"], kernel=[7, 7], stride=2,
               padding="same", out_channels=64, groups=1, **bits)
    x = b.emit("stem_bn", "batchnorm", [x])
    x = b.emit("stem_relu", "relu", [x])
    x = b.emit("stem_pool", "max_pool", [x], kernel=[3, 3], stride=2, padding="same")

    block = 0
    for stage, (ch, n_blocks) in enumerate(zip((64, 128, 256, 512), BLOCKS_PER_STAGE)):
        for i in range(n_blocks):
            stride = 2 if (stage > 0 and i == 0) else 1
            p = f"b{block:02d}_"
            shortcut = x
            y = b.emit(p + "conv1", "conv2d", [x], kernel=[1, 1], stride=1,
                       padding="same", out_channels=ch, groups=1, **bits)
            y = b.emit(p + "bn1", "batchnorm", [y])
            y = b.emit(p + "relu1", "relu", [y])
            y = b.emit(p + "conv2", "conv2d", [y], kernel=[3, 3], stride=stride,
                       padding="same", out_channels=ch, groups=1, **bits)
            y = b.emit(p + "bn2", "batchnorm", [y])
            y = b.emit(p + "relu2", "relu", [y])
            y = b.emit(p + "conv3", "conv2d", [y], kernel=[1, 1], stride=1,
                       padding="same", out_channels=4 * ch, groups=1, **bits)
            y = b.emit(p + "bn3", "batchnorm", [y])
            if i == 0:
                shortcut = b.emit(p + "proj", "conv2d", [x], kernel=[1, 1],
                                  stride=stride, padding="same",
                                  out_channels=4 * ch, groups=1, **bits)
                shortcut = b.emit(p + "proj_bn", "batchnorm", [shortcut])
            y = b.emit(p + "add", "add", [y, shortcut])
            x = b.emit(p + "relu3", "relu", [y])
            block += 1

    x = b.emit("global_pool", "spatial_mean", [x])
    x = b.emit("fc", "dense", [x], out_channels=1000, **bits)
    return b.finish(x)


# ---------------------------------------------------------------------------
# PokeBNN
# ---------------------------------------------------------------------------

def _emit_reshape(b, prefix, r, target_ch, target_hw, expand_op):
    """Shortcut adapter: channel expand/contract, then spatial average pool.

    Fractional multipliers can make the contraction ratio non-integral; the
    residual is then zero-padded up to the next multiple of the target before
    averaging, keeping every avg_channels node at an integer group size.
    """
    rc = b.channels(r)
    if rc < target_ch:
        r = b.emit(prefix + expand_op.split("_")[0], expand_op, [r],
                   out_channels=target_ch)
    elif rc > target_ch:
        if rc % target_ch:
            k = -(-rc // target_ch)
            r = b.emit(prefix + "padmul", "pad_channels", [r],
                       out_channels=k * target_ch)
        r = b.emit(prefix + "avgch", "avg_channels", [r], out_channels=target_ch)
    if b.shape[r][:2] != target_hw:
        r = b.emit(prefix + "pool", "avg_pool", [r], kernel=[3, 3], stride=2,
                   padding="same", divisor=Fraction(1, 9))
    return r


def _emit_se(b, prefix, r, out_ch):
    rc = b.channels(r)
    hidden = max(1, rc // 8)
    s = b.emit(prefix + "se_mean", "spatial_mean", [r])
    s = b.emit(prefix + "se_q1", "quantize_act", [s], act_bits=DType.INT4)
    s = b.emit(prefix + "se_fc1", "dense", [s], out_channels=hidden,
               act_bits=DType.INT4, weight_bits=DType.INT4)
    s = b.emit(prefix + "se_relu", "relu", [s])
    s = b.emit(prefix + "se_q2", "quantize_act", [s], act_bits=DType.INT4)
    s = b.emit(prefix + "se_fc2", "dense", [s], out_channels=out_ch,
               act_bits=DType.INT4, weight_bits=DType.INT4)
    return b.emit(prefix + "se_gate", "hardsigmoid", [s])


def _emit_pokeconv(b, prefix, x, r1, kernel, ch, stride):
    """One PokeConv: binary conv, BN, pad + tile shortcuts, DPReLU, SE, BN."""
    r = x
    q = b.emit(prefix + "qbin", "quantize_act", [x], act_bits=DType.BIN)
    y = b.emit(prefix + "conv", "conv2d", [q], kernel=list(kernel), stride=stride,
               padding="same", out_channels=ch, groups=1,
               act_bits=DType.BIN, weight_bits=DType.BIN)
    y = b.emit(prefix + "bn1", "batchnorm", [y])
    out_hw = b.shape[y][:2]
    rr = _emit_reshape(b, prefix + "local_", r, ch, out_hw, "pad_channels")
    y = b.emit(prefix + "local_add", "add", [y, rr])
    if r1 is not None:
        r1r = _emit_reshape(b, prefix + "block_", r1, ch, out_hw, "tile_channels")
        y = b.emit(prefix + "block_add", "add", [y, r1r])
    y = b.emit(prefix + "act", "dprelu", [y])
    gate = _emit_se(b, prefix, r, ch)
    y = b.emit(prefix + "se_mul", "multiply", [y, gate])
    return b.emit(prefix + "bn2", "batchnorm", [y])


def _emit_pokeinit(b):
    bits = dict(act_bits=DType.INT8, weight_bits=DType.INT8)
    x = b.emit("init_q1", "quantize_act", ["in"], act_bits=DType.INT8)
    x = b.emit("init_conv", "conv2d", [x], kernel=[4, 4], stride=4,
               padding="same", out_channels=STEM_CHANNELS[0], groups=1, **bits)
    x = b.emit("init_bn1", "batchnorm", [x])
    x = b.emit("init_act1", "dprelu", [x])
    x = b.emit("init_q2", "quantize_act", [x], act_bits=DType.INT8)
    x = b.emit("init_dw", "depthwise_conv2d", [x], kernel=[3, 3], stride=1,
               padding="same", out_channels=STEM_CHANNELS[1], **bits)
    x = b.emit("init_bn2", "batchnorm", [x])
    return b.emit("init_act2", "dprelu", [x])


def _emit_classifier(b, x, num_classes):
    x = b.emit("global_pool", "spatial_mean", [x])
    x = b.emit("head_q", "quantize_act", [x], act_bits=DType.INT8)
    return b.emit("head_fc", "dense", [x], out_channels=num_classes,
                  act_bits=DType.INT8, weight_bits=DType.INT8)


def _stage_channels(m: Fraction, stage: int) -> int:
    ch = int(64 * m * 2 ** stage)
    if ch < 8:
        raise ValueError(f"channel multiplier {m} gives {ch} channels at "
                         f"stage {stage}; minimum is 8")
    return ch


def _build_poke(name: str, m: Fraction, blocks_per_stage, input_shape,
                num_classes: int) -> GraphSpec:
    """8-bit stem, stages of binary bottleneck blocks, 8-bit classifier.

    Stage s has channel width floor(64*M*2^s), and its first block has
    stride 2 in every stage after the first. Each block runs three
    PokeConvs (1x1 -> 3x3 -> 1x1 with 4x expansion); the block-level
    shortcut feeds the third PokeConv. There are no 1x1 projection layers.
    """
    b = _GraphBuilder(name, tuple(input_shape))
    x = _emit_pokeinit(b)

    block = 0
    for stage, n_blocks in enumerate(blocks_per_stage):
        ch = _stage_channels(m, stage)
        for i in range(n_blocks):
            stride = 2 if (stage > 0 and i == 0) else 1
            p = f"b{block:02d}_"
            r1 = x
            x = _emit_pokeconv(b, p + "pc1_", x, None, (1, 1), ch, 1)
            x = _emit_pokeconv(b, p + "pc2_", x, None, (3, 3), ch, stride)
            x = _emit_pokeconv(b, p + "pc3_", x, r1, (1, 1), 4 * ch, 1)
            block += 1

    x = _emit_classifier(b, x, num_classes)
    return b.finish(x)


def build_pokebnn(m=1) -> GraphSpec:
    """PokeBNN-Mx on 224x224x3: 16 blocks in four stages of 3/4/6/3."""
    m = as_multiplier(m)
    return _build_poke(f"pokebnn-{float(m)}x", m, BLOCKS_PER_STAGE,
                       (224, 224, 3), 1000)


def build_pokebnn_toy(m=1, groups: int = 4, input_shape=(32, 32, 3),
                      num_classes: int = 10) -> GraphSpec:
    """Desk-scale PokeBNN: same block grammar, one block per group.

    Each group is a one-block stage, so a 4-group build exercises every
    shortcut reshape (pad, tile, channel averaging, and spatial average
    pooling).
    """
    m = as_multiplier(m)
    if groups < 2:
        raise ValueError("need at least 2 groups")
    if min(input_shape[0], input_shape[1]) < 16:
        raise ValueError("input spatial size must be at least 16")
    return _build_poke(f"pokebnn-toy-{float(m)}x{groups}g", m, (1,) * groups,
                       input_shape, num_classes)


# ---------------------------------------------------------------------------
# Builtin registry (CLI and tests resolve models by name)
# ---------------------------------------------------------------------------

POKEBNN_MULTIPLIERS = ("0.5", "0.75", "1.0", "1.25", "1.4", "1.5", "1.75", "2.0")


def builtin_models() -> dict:
    registry = {
        "resnet50-fp32": lambda: build_resnet50(DType.FP32),
        "resnet50-bf16": lambda: build_resnet50(DType.BF16),
        "pokebnn-toy": lambda: build_pokebnn_toy(),
    }
    for m in POKEBNN_MULTIPLIERS:
        registry[f"pokebnn-{m}x"] = (lambda mm=m: build_pokebnn(Fraction(mm)))
    return registry


def build_named(name: str) -> GraphSpec:
    registry = builtin_models()
    if name not in registry:
        raise KeyError(f"unknown builtin model {name!r}; "
                       f"known: {', '.join(sorted(registry))}")
    return registry[name]()
