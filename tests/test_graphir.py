import json

import pytest

from pokebnn.builders import build_named, build_pokebnn, build_resnet50, builtin_models
from pokebnn.graphir import (
    DType,
    GraphSchemaError,
    GraphSpec,
    NodeSpec,
    ShapeError,
    graph_from_json,
    graph_to_json,
    infer_shapes,
    load_graph,
    save_graph,
    validate_graph,
)


def tiny_graph():
    return GraphSpec(name="tiny", input_shape=(8, 8, 3), nodes=[
        NodeSpec("in", "input"),
        NodeSpec("c", "conv2d", ["in"], {
            "kernel": [3, 3], "stride": 1, "padding": "same",
            "out_channels": 4, "groups": 1,
            "act_bits": DType.BF16, "weight_bits": DType.BF16}),
        NodeSpec("out", "output", ["c"]),
    ])


class TestShapeInference:
    def test_stem_conv_quarters_resolution(self):
        g = GraphSpec("t", (224, 224, 3), [
            NodeSpec("in", "input"),
            NodeSpec("c", "conv2d", ["in"], {
                "kernel": [4, 4], "stride": 4, "padding": "same",
                "out_channels": 32, "groups": 1,
                "act_bits": DType.INT8, "weight_bits": DType.INT8}),
            NodeSpec("out", "output", ["c"]),
        ])
        assert infer_shapes(g)["c"] == (56, 56, 32)

    def test_same_conv_keeps_size(self):
        shapes = infer_shapes(tiny_graph())
        assert shapes["c"] == (8, 8, 4)

    def test_pool_halves(self):
        g = GraphSpec("t", (56, 56, 8), [
            NodeSpec("in", "input"),
            NodeSpec("p", "avg_pool", ["in"], {
                "kernel": [3, 3], "stride": 2, "padding": "same"}),
            NodeSpec("out", "output", ["p"]),
        ])
        assert infer_shapes(g)["p"] == (28, 28, 8)

    def test_valid_padding(self):
        g = GraphSpec("t", (10, 10, 1), [
            NodeSpec("in", "input"),
            NodeSpec("c", "conv2d", ["in"], {
                "kernel": [3, 3], "stride": 2, "padding": "valid",
                "out_channels": 1, "groups": 1,
                "act_bits": DType.FP32, "weight_bits": DType.FP32}),
            NodeSpec("out", "output", ["c"]),
        ])
        assert infer_shapes(g)["c"] == (4, 4, 1)

    def test_valid_conv_underflow(self):
        g = GraphSpec("t", (2, 2, 1), [
            NodeSpec("in", "input"),
            NodeSpec("c", "conv2d", ["in"], {
                "kernel": [3, 3], "stride": 1, "padding": "valid",
                "out_channels": 1, "groups": 1,
                "act_bits": DType.FP32, "weight_bits": DType.FP32}),
            NodeSpec("out", "output", ["c"]),
        ])
        with pytest.raises(ShapeError, match="underflow"):
            infer_shapes(g)

    def test_unresolved_input_raises(self):
        g = GraphSpec("t", (8, 8, 3), [
            NodeSpec("in", "input"),
            NodeSpec("a", "relu", ["ghost"]),
            NodeSpec("out", "output", ["a"]),
        ])
        with pytest.raises(ShapeError, match="ghost"):
            infer_shapes(g)

    def test_deterministic_and_total_for_builtins(self):
        for name, make in builtin_models().items():
            g = make()
            assert infer_shapes(g) == infer_shapes(g), name


class TestValidation:
    def test_builtins_are_clean(self):
        for name, make in builtin_models().items():
            assert validate_graph(make()) == [], name

    def test_dangling_input_named(self):
        g = tiny_graph()
        g.nodes[1].inputs = ["nowhere"]
        diags = validate_graph(g)
        assert len(diags) == 1 and "nowhere" in diags[0]

    def test_groups_divisibility(self):
        g = tiny_graph()
        g.input_shape = (8, 8, 64)
        g.nodes[1].attrs["groups"] = 3
        g.nodes[1].attrs["out_channels"] = 64
        diags = validate_graph(g)
        assert any("groups" in d for d in diags)

    def test_missing_bitwidths(self):
        g = tiny_graph()
        del g.nodes[1].attrs["act_bits"]
        assert any("act_bits" in d for d in validate_graph(g))

    @pytest.mark.parametrize("key, value", [
        ("kernel", [3]), ("kernel", [3, 2.0]), ("stride", 0), ("stride", True),
        ("out_channels", -4), ("groups", 0), ("padding", "full"),
        ("weight_bits", "bf16"),
    ])
    def test_attribute_value_checked(self, key, value):
        g = tiny_graph()
        g.nodes[1].attrs[key] = value
        diags = validate_graph(g)
        assert len(diags) == 1 and diags[0].startswith(f"node 'c': {key} must be ")

    @pytest.mark.parametrize("divisor", [0, "-1/9", "abc", None])
    def test_divisor_from_json_must_be_positive(self, divisor):
        doc = graph_to_json(GraphSpec("t", (8, 8, 3), [
            NodeSpec("in", "input"),
            NodeSpec("p", "avg_pool", ["in"], {
                "kernel": [3, 3], "stride": 2, "padding": "same"}),
            NodeSpec("out", "output", ["p"]),
        ]))
        doc["nodes"][1]["attrs"]["divisor"] = divisor
        diags = validate_graph(graph_from_json(doc))
        assert len(diags) == 1 and diags[0].startswith("node 'p': divisor must be positive")

    def test_duplicate_ids(self):
        g = tiny_graph()
        g.nodes.append(NodeSpec("c", "relu", ["c"]))
        g.nodes.append(g.nodes.pop(2))  # keep output last
        assert any("duplicate" in d for d in validate_graph(g))


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_roundtrip_identity(self, name, tmp_path):
        g = build_named(name)
        path = tmp_path / "g.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2 == g
        assert [n.id for n in g2.nodes] == [n.id for n in g.nodes]
        assert [n.attrs for n in g2.nodes] == [n.attrs for n in g.nodes]

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.json"
        full = json.dumps(graph_to_json(build_resnet50()))
        path.write_text(full[:len(full) // 2])
        with pytest.raises(GraphSchemaError, match="line"):
            load_graph(path)

    def test_unknown_op_named(self):
        doc = graph_to_json(tiny_graph())
        doc["nodes"][1]["op"] = "conv5d"
        with pytest.raises(GraphSchemaError, match="conv5d"):
            graph_from_json(doc)

    def test_unknown_top_level_key(self):
        doc = graph_to_json(tiny_graph())
        doc["flavor"] = "spicy"
        with pytest.raises(GraphSchemaError, match="flavor"):
            graph_from_json(doc)

    def test_unknown_attr_key(self):
        doc = graph_to_json(tiny_graph())
        doc["nodes"][1]["attrs"]["dilation"] = 2
        with pytest.raises(GraphSchemaError, match="dilation"):
            graph_from_json(doc)

    def test_version_mismatch(self):
        doc = graph_to_json(tiny_graph())
        doc["version"] = 99
        with pytest.raises(GraphSchemaError, match="version"):
            graph_from_json(doc)

    def test_bitwidth_tokens(self):
        doc = graph_to_json(build_pokebnn(1))
        tokens = {n["attrs"].get("act_bits") for n in doc["nodes"]} - {None}
        assert tokens <= {"fp32", "bf16", "int8", "int4", "int2", "bin"}

    def test_node_missing_id(self):
        doc = graph_to_json(tiny_graph())
        del doc["nodes"][1]["id"]
        with pytest.raises(GraphSchemaError, match="missing id"):
            graph_from_json(doc)

    def test_unknown_bitwidth_token(self):
        doc = graph_to_json(tiny_graph())
        doc["nodes"][1]["attrs"]["act_bits"] = "int7"
        with pytest.raises(GraphSchemaError, match="int7"):
            graph_from_json(doc)


class TestDType:
    def test_bits(self):
        assert [d.bits for d in (DType.FP32, DType.BF16, DType.INT8,
                                 DType.INT4, DType.INT2, DType.BIN)] == \
            [32, 16, 8, 4, 2, 1]

    def test_binary_is_one_bit(self):
        assert DType.BIN.bits == 1 and not DType.BIN.is_float
