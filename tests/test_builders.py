from fractions import Fraction

import numpy as np
import pytest

from pokebnn.builders import (
    _emit_pokeconv,
    _emit_reshape,
    _GraphBuilder,
    build_named,
    build_pokebnn,
    build_pokebnn_toy,
    build_resnet50,
    builtin_models,
)
from pokebnn.cost import count_macs, node_macs
from pokebnn.graphir import DType, infer_shapes, validate_graph
from pokebnn.nn.model import Model


def macs_by_dtype(g):
    out = {}
    for b in count_macs(g):
        assert b.act_bits is b.weight_bits
        out[b.act_bits] = out.get(b.act_bits, 0) + b.count
    return out


class TestPokeBNNStructure:
    def test_binary_conv_inventory(self):
        g = build_pokebnn(1)
        bin_convs = [n for n in g.nodes if n.op == "conv2d"
                     and n.attrs["weight_bits"] is DType.BIN]
        assert len(bin_convs) == 48
        int8_convs = [n for n in g.nodes
                      if n.op in ("conv2d", "depthwise_conv2d")
                      and n.attrs["weight_bits"] is DType.INT8]
        assert len(int8_convs) == 2
        int8_dense = [n for n in g.nodes if n.op == "dense"
                      and n.attrs["weight_bits"] is DType.INT8]
        assert len(int8_dense) == 1

    def test_no_projection_convs(self):
        # every 1x1 conv is one of the 48 binary block convs
        g = build_pokebnn(1)
        convs = [n for n in g.nodes if n.op == "conv2d"]
        assert all(n.attrs["weight_bits"] in (DType.BIN, DType.INT8)
                   for n in convs)
        assert len(convs) == 49  # 48 binary + the 4x4 stem conv

    def test_stride_blocks(self):
        g = build_pokebnn(1)
        shapes = infer_shapes(g)
        strided = [n.id for n in g.nodes if n.op == "conv2d"
                   and n.attrs["stride"] == 2]
        assert strided == ["b03_pc2_conv", "b07_pc2_conv", "b13_pc2_conv"]
        assert shapes["b03_pc2_conv"][0] == 28
        assert shapes["b07_pc2_conv"][0] == 14
        assert shapes["b13_pc2_conv"][0] == 7

    def test_classifier_width(self):
        g = build_pokebnn(1)
        shapes = infer_shapes(g)
        assert shapes["head_fc"] == (1, 1, 1000)
        assert shapes["global_pool"] == (1, 1, 2048)

    def test_fractional_multiplier_floors_per_stage(self):
        g = build_pokebnn(Fraction(7, 5))
        shapes = infer_shapes(g)
        assert shapes["b00_pc1_conv"][2] == 89
        assert shapes["b03_pc1_conv"][2] == 179
        assert shapes["b07_pc1_conv"][2] == 358
        assert shapes["b13_pc1_conv"][2] == 716

    def test_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            build_pokebnn(0)
        with pytest.raises(ValueError):
            build_pokebnn(Fraction(1, 100))


class TestBlockGrammar:
    def test_se_hidden_width_is_eighth(self):
        shapes = infer_shapes(build_pokebnn(1))
        assert shapes["b00_pc1_se_mean"] == (1, 1, 64)
        assert shapes["b00_pc1_se_fc1"] == (1, 1, 8)
        assert shapes["b00_pc1_se_fc2"] == (1, 1, 64)

    def test_se_input_width_need_not_divide_by_8(self):
        # PokeBNN-1.4x publishes SE inputs of 89, 179, 356, 358 and 716
        g = build_pokebnn(Fraction(7, 5))
        assert validate_graph(g) == []
        shapes = infer_shapes(g)
        widths = {shapes[n.id][2] for n in g.nodes if n.op == "spatial_mean"
                  and n.id.endswith("se_mean")}
        assert {89, 179, 356, 358, 716} <= widths
        assert shapes["b00_pc2_se_fc1"] == (1, 1, 89 // 8)

    def test_spatial_downsample_path(self):
        b = _GraphBuilder("reshape", (4, 4, 4))
        r = _emit_reshape(b, "", "in", 4, (2, 2), "pad_channels")
        assert [n.op for n in b.g.nodes[1:]] == ["avg_pool"]
        assert b.shape[r] == (2, 2, 4)

    def test_channel_then_spatial_order(self):
        b = _GraphBuilder("reshape", (4, 4, 2))
        r = _emit_reshape(b, "", "in", 4, (2, 2), "tile_channels")
        assert [n.op for n in b.g.nodes[1:]] == ["tile_channels", "avg_pool"]
        out, _ = Model(b.finish(r)).forward(np.ones((1, 4, 4, 2)), training=False)
        # interior output of pooling all-ones is 9/9 = 1
        assert out[0, 0] == pytest.approx(1.0)

    def test_non_integral_contraction_pads_first(self):
        b = _GraphBuilder("reshape", (2, 2, 12))
        r = _emit_reshape(b, "", "in", 8, (2, 2), "pad_channels")
        assert [(n.op, b.shape[n.id][2]) for n in b.g.nodes[1:]] == [
            ("pad_channels", 16), ("avg_channels", 8)]
        assert b.shape[r] == (2, 2, 8)

    def test_block_shortcut_only_when_given(self):
        b = _GraphBuilder("pokeconv", (4, 4, 16))
        _emit_pokeconv(b, "a_", "in", None, (1, 1), 16, 1)
        _emit_pokeconv(b, "b_", "in", "in", (1, 1), 16, 1)
        ids = {n.id for n in b.g.nodes}
        assert "a_block_add" not in ids
        assert b.g.node("b_block_add").inputs == ["b_local_add", "in"]


class TestResNet50Structure:
    def test_block_count(self):
        g = build_resnet50()
        assert len([n for n in g.nodes if n.id.endswith("_add")]) == 16
        assert len([n for n in g.nodes if n.id.endswith("_proj")]) == 4

    def test_init_conv_macs(self):
        g = build_resnet50()
        shapes = infer_shapes(g)
        stem = g.node("stem_conv")
        assert node_macs(stem, shapes["in"], shapes["stem_conv"]) == 118_013_952

    def test_projection_macs(self):
        g = build_resnet50()
        shapes = infer_shapes(g)
        total = sum(node_macs(n, shapes[n.inputs[0]], shapes[n.id])
                    for n in g.nodes if n.id.endswith("_proj"))
        assert total == 359_661_568

    def test_total_macs(self):
        got = macs_by_dtype(build_resnet50(DType.BF16))
        assert got == {DType.BF16: 4_089_184_256}


class TestToyBuilder:
    def test_default_validates(self):
        assert validate_graph(build_pokebnn_toy()) == []

    def test_contains_every_reshape_branch(self):
        g = build_pokebnn_toy(m=1, groups=4)
        ops = [n.op for n in g.nodes]
        assert ops.count("tile_channels") >= 1
        assert ops.count("pad_channels") >= 1
        assert ops.count("avg_channels") >= 1
        assert ops.count("avg_pool") >= 1

    def test_binary_macs_match_hand_count(self):
        # 12 PokeConv convolutions of the default 4-group, 32x32, M=1 build,
        # enumerated independently: spatial 8/8/4/2 per group, channel
        # widths 64/128/256/512, stride 2 on the middle conv of groups 1-3.
        g = build_pokebnn_toy(m=1, groups=4, input_shape=(32, 32, 3))
        hand = 0
        hand += 64 * 64 * 64 + 64 * 9 * 64 * 64 + 64 * 256 * 64      # group 0
        hand += 64 * 128 * 256 + 16 * 128 * 9 * 128 + 16 * 512 * 128  # group 1
        hand += 16 * 256 * 512 + 4 * 256 * 9 * 256 + 4 * 1024 * 256   # group 2
        hand += 4 * 512 * 1024 + 1 * 512 * 9 * 512 + 1 * 2048 * 512   # group 3
        assert macs_by_dtype(g)[DType.BIN] == hand == 20_185_088

    def test_small_input(self):
        g = build_pokebnn_toy(m=0.25, groups=4, input_shape=(16, 16, 3))
        assert validate_graph(g) == []
        shapes = infer_shapes(g)
        assert shapes["init_act2"] == (4, 4, 64)

    def test_rejects_undersized_input(self):
        with pytest.raises(ValueError):
            build_pokebnn_toy(input_shape=(8, 8, 3))

    def test_rejects_single_group(self):
        with pytest.raises(ValueError):
            build_pokebnn_toy(groups=1)

    def test_stem_shape_rule(self):
        g = build_pokebnn_toy(input_shape=(32, 32, 3))
        assert infer_shapes(g)["init_act2"] == (8, 8, 64)


class TestRegistry:
    def test_known_names(self):
        names = set(builtin_models())
        assert {"pokebnn-1.0x", "pokebnn-0.5x", "pokebnn-2.0x",
                "resnet50-bf16", "resnet50-fp32", "pokebnn-toy"} <= names

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="no-such-model"):
            build_named("no-such-model")

    def test_names_match_graph_names(self):
        for name, make in builtin_models().items():
            if name != "pokebnn-toy":
                assert make().name == name
