import json
import re
from collections import Counter

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from pokebnn.builders import build_named, build_pokebnn, build_resnet50, builtin_models
from pokebnn.graphir import (
    FUSIONS,
    DType,
    GraphSchemaError,
    GraphSpec,
    NodeSpec,
    ShapeError,
    graph_from_json,
    fused_chains,
    graph_to_json,
    infer_shapes,
    load_graph,
    pad_amounts,
    save_graph,
    validate_graph,
    windows,
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


class TestWindows:
    """``windows`` against the sliding-window oracle it replaces."""

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["3d", "4d"])
    @pytest.mark.parametrize("padding, fill", [("valid", 0), ("same", 0), ("same", -7.5)])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [(1, 1), (2, 3), (3, 3), (4, 4)])
    def test_matches_sliding_window_view(self, kernel, stride, padding, fill, lead):
        kh, kw = kernel
        x = np.random.default_rng(7).normal(size=lead + (7, 9, 3))
        win, pads = windows(x, kh, kw, stride, padding, fill=fill)
        pt, pb = pad_amounts(7, kh, stride, padding)
        pl, pr = pad_amounts(9, kw, stride, padding)
        assert pads == (pt, pb, pl, pr)
        xp = np.pad(x, [(0, 0)] * len(lead) + [(pt, pb), (pl, pr), (0, 0)],
                    constant_values=fill)
        want = sliding_window_view(xp, kernel, axis=(-3, -2))[..., ::stride, ::stride, :, :, :]
        assert win.shape == want.shape and win.strides == want.strides
        assert win.dtype == x.dtype and np.array_equal(win, want)
        assert not win.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            win[...] = 0

    def test_strided_input_viewed_in_place(self):
        base = np.random.default_rng(8).normal(size=(2, 14, 9, 6))
        x = base[:, ::2, :, ::2]
        win, pads = windows(x, 3, 2, 2, "valid")
        want = sliding_window_view(x, (3, 2), axis=(-3, -2))[..., ::2, ::2, :, :, :]
        assert pads == (0, 0, 0, 0) and np.shares_memory(win, base)
        assert win.shape == want.shape and win.strides == want.strides
        assert np.array_equal(win, want)

    @pytest.mark.parametrize("case", ["padded", "valid", "strided", "non_contiguous",
                                      "read_only", "uint64", "finfo_min"])
    def test_same_view_as_as_strided(self, case):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 7, 6, 5)).astype(np.float32)
        kh, kw, stride, padding, fill = 3, 3, 1, "same", 0
        if case == "valid":
            padding = "valid"
        elif case == "strided":
            stride, padding = 2, "valid"
        elif case == "non_contiguous":
            x, padding = x[:, ::-1, :, ::2], "valid"
        elif case == "read_only":
            x.flags.writeable, padding = False, "valid"
        elif case == "uint64":
            x = rng.integers(0, 2**64, size=(5, 6, 2), dtype=np.uint64)
            padding = "valid"
        elif case == "finfo_min":
            fill = np.finfo(x.dtype).min
        win, pads = windows(x, kh, kw, stride, padding, fill=fill)
        pt, pb, pl, pr = pads
        xp = x
        if any(pads):
            xp = np.pad(x, [(0, 0)] * (x.ndim - 3) + [(pt, pb), (pl, pr), (0, 0)],
                        constant_values=fill)
        *lead, sh, sw, sc = xp.strides
        shape = (*xp.shape[:-3], (xp.shape[-3] - kh) // stride + 1,
                 (xp.shape[-2] - kw) // stride + 1, xp.shape[-1], kh, kw)
        want = np.lib.stride_tricks.as_strided(
            xp, shape, (*lead, sh * stride, sw * stride, sc, sh, sw), writeable=False)
        assert win.shape == want.shape and win.strides == want.strides
        assert win.dtype == x.dtype and win.tobytes() == want.tobytes()
        assert np.shares_memory(win, x) == (not any(pads))
        with pytest.raises(ValueError, match="read-only"):
            win[...] = 0

    def test_window_larger_than_input_rejected(self):
        with pytest.raises(ValueError, match="larger than the padded input"):
            windows(np.zeros((3, 5, 2)), 4, 2, 1, "valid")


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

    @pytest.mark.parametrize("node, inputs", [
        (1, []), (1, ["in", "in"]), (0, ["c"]), (2, [])])
    def test_input_count_checked(self, node, inputs):
        g = tiny_graph()
        g.nodes[node].inputs = inputs
        op = g.nodes[node].op
        arity = 0 if op == "input" else 1
        assert (f"node {g.nodes[node].id!r}: {op} takes {arity} inputs, "
                f"got {len(inputs)}") in validate_graph(g)

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

    @pytest.mark.parametrize("edit, message", [
        ("input_shape", "input_shape must be a list"),
        ("nodes", "nodes must be a list"),
        ("node", "node #1: must be an object"),
        ("id", "node #1: id must be a string, got ['c']"),
        ("op", "node #1: unknown op ['c']"),
        ("inputs_string", "node 'c': inputs must be a list of node ids, got 'in'"),
        ("inputs_number", "node 'c': unresolved input 0"),
        ("inputs_list", "node 'c': unresolved input ['in']"),
        ("attrs", "node 'c': attrs must be an object"),
    ])
    def test_wrong_container_type_named(self, tmp_path, edit, message):
        doc = graph_to_json(tiny_graph())
        node = doc["nodes"][1]
        assert node["id"] == "c"
        if edit == "input_shape":
            doc["input_shape"] = 32
        elif edit == "nodes":
            doc["nodes"] = {"c": node}
        elif edit == "node":
            doc["nodes"][1] = ["c", "conv2d"]
        elif edit in ("id", "op"):
            node[edit] = ["c"]
        elif edit == "inputs_string":
            node["inputs"] = node["inputs"][0]
        elif edit == "inputs_number":
            node["inputs"] = [0]
        elif edit == "inputs_list":
            node["inputs"] = [node["inputs"]]
        else:
            node["attrs"] = [["kernel", [3, 3]]]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphSchemaError, match=re.escape(message)):
            load_graph(path)

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


class TestFusions:
    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_chain_counts_per_builtin(self, name):
        counts = Counter(fusion.name for fusion, _ in fused_chains(build_named(name)))
        per_block = 12 if name == "pokebnn-toy" else 48
        want = ({} if name.startswith("resnet") else
                {"pokeconv_tail": per_block, "se_gate": per_block, "stem": 2, "head": 1})
        assert counts == want

    @pytest.mark.parametrize("name", ["pokebnn-toy", "pokebnn-0.5x"])
    def test_each_chain_follows_its_pattern_with_one_reader_inside(self, name):
        g = build_named(name)
        nodes = {n.id: n for n in g.nodes}
        readers = Counter(ref for n in g.nodes for ref in n.inputs)
        seen = []
        for fusion, ids in fused_chains(g):
            # the pattern with any of its optional ops left out
            options = [[]]
            for op in fusion.ops:
                options = ([o + [op.rstrip("?")] for o in options]
                           + (options if op.endswith("?") else []))
            assert [nodes[nid].op for nid in ids] in options, ids
            for nid, nxt in zip(ids, ids[1:]):
                assert readers[nid] == 1 and nodes[nxt].inputs[0] == nid, nid
            seen += ids
        assert len(seen) == len(set(seen))

    def test_tail_takes_one_or_two_adds(self):
        tails = [ids for fusion, ids in fused_chains(build_named("pokebnn-toy"))
                 if fusion.name == "pokeconv_tail"]
        # the third PokeConv of each block adds the block's shortcut too
        assert Counter(len(ids) for ids in tails) == {5: 8, 6: 4}

    def test_a_second_reader_stops_a_chain(self):
        bn = NodeSpec("bn", "batchnorm", ["in"])
        act = NodeSpec("act", "dprelu", ["bn"])
        both = NodeSpec("both", "add", ["act", "bn"])
        g = GraphSpec("g", (2, 2, 3), [NodeSpec("in", "input"), bn, act, both,
                                      NodeSpec("out", "output", ["both"])])
        assert fused_chains(g) == []
        both.inputs = ["act", "act"]
        assert [(f.name, ids) for f, ids in fused_chains(g)] == [("stem", ("bn", "act"))]

    def test_binary_quantizer_does_not_match(self):
        nodes = [NodeSpec("in", "input"), NodeSpec("m", "spatial_mean", ["in"]),
                 NodeSpec("q", "quantize_act", ["m"], {"act_bits": DType.BIN}),
                 NodeSpec("out", "output", ["q"])]
        g = GraphSpec("g", (2, 2, 3), nodes)
        assert fused_chains(g) == []
        nodes[2].attrs["act_bits"] = DType.INT8
        assert [(f.name, ids) for f, ids in fused_chains(g)] == [("head", ("m", "q"))]

    def test_absorbed_kinds_are_the_affine_multiplies(self):
        absorbed = {k for f in FUSIONS for k in f.absorbs}
        assert absorbed == {"dprelu", "se_final_mul", "se_spatial_mean",
                            "se_activations", "global_pool"}
