from fractions import Fraction

import numpy as np
import pytest

from pokebnn import cost
from pokebnn.builders import build_named, build_pokebnn, build_pokebnn_toy, build_resnet50
from pokebnn.cost import (
    CostReport,
    ElementwiseCount,
    FusionPolicy,
    MacBucket,
    UnsupportedGraph,
    ace,
    analyze_graph,
    count_elementwise,
    count_macs,
    cpu64,
    elementwise_ace,
    energy_correlation,
    model_size,
    render_report,
    report_from_json,
    report_to_json,
)
from pokebnn.graphir import DType, GraphSpec, NodeSpec, infer_shapes
from pokebnn.nn.model import Model

# Published per-variant totals: multiplier -> (binary 1e6, int8 1e6, int4 1e6)
VARIANT_TABLE = {
    "0.5": (905.6, 7.6, 0.9),
    "0.75": (2032.7, 8.2, 2.0),
    "1.0": (3609.5, 8.7, 3.6),
    "1.25": (5635.8, 9.2, 5.7),
    "1.4": (7037.2, 9.5, 7.1),
    "1.5": (8111.7, 9.7, 8.2),
    "1.75": (11037.1, 10.2, 11.1),
    "2.0": (14412.2, 10.7, 14.5),
}


def bucket_totals(g):
    report = analyze_graph(g)
    return {d: report.bucket_count(d) for d in DType}


class TestMacBuckets:
    def test_single_mac_graph(self):
        g = GraphSpec("one", (1, 1, 1), [
            NodeSpec("in", "input"),
            NodeSpec("c", "conv2d", ["in"], {
                "kernel": [1, 1], "stride": 1, "padding": "same",
                "out_channels": 1, "groups": 1,
                "act_bits": DType.BIN, "weight_bits": DType.BIN}),
            NodeSpec("out", "output", ["c"]),
        ])
        buckets = count_macs(g)
        assert buckets == [MacBucket(DType.BIN, DType.BIN, 1)]

    def test_pokebnn_1x_buckets(self):
        totals = bucket_totals(build_pokebnn(1))
        assert totals[DType.INT8] == 8_671_232
        assert abs(totals[DType.BIN] - 3609.5e6) / 3609.5e6 < 0.005
        assert abs(totals[DType.INT4] - 3.6e6) / 3.6e6 < 0.03

    @pytest.mark.parametrize("mult", sorted(VARIANT_TABLE))
    def test_every_variant_matches_reference(self, mult):
        binary_ref, int8_ref, int4_ref = VARIANT_TABLE[mult]
        totals = bucket_totals(build_pokebnn(Fraction(mult)))
        assert abs(totals[DType.BIN] / 1e6 - binary_ref) / binary_ref < 0.005
        assert round(totals[DType.INT8] / 1e6, 1) == int8_ref
        assert round(totals[DType.INT4] / 1e6, 1) == int4_ref

    def test_resnet_single_bucket(self):
        buckets = count_macs(build_resnet50(DType.BF16))
        assert len(buckets) == 1
        assert buckets[0].count == 4_089_184_256

    def test_stem_and_projection_figures(self):
        g = build_resnet50()
        shapes = infer_shapes(g)
        stem = cost.node_macs(g.node("stem_conv"), shapes["in"], shapes["stem_conv"])
        assert stem == 118_013_952
        proj = sum(cost.node_macs(n, shapes[n.inputs[0]], shapes[n.id])
                   for n in g.nodes if n.id.endswith("_proj"))
        assert proj == 359_661_568
        stem_int8 = analyze_graph(build_pokebnn(1))
        init_nodes = [n for n in build_pokebnn(1).nodes
                      if n.id in ("init_conv", "init_dw")]
        g1 = build_pokebnn(1)
        sh = infer_shapes(g1)
        init = sum(cost.node_macs(n, sh[n.inputs[0]], sh[n.id]) for n in init_nodes)
        assert init == 6_623_232


class TestAce:
    def test_pokebnn_1x(self):
        r = analyze_graph(build_pokebnn(1))
        assert abs(r.ace - 4.2e9) / 4.2e9 < 0.01

    def test_bf16_resnet_exact_product(self):
        buckets = count_macs(build_resnet50(DType.BF16))
        assert ace(buckets) == 4_089_184_256 * 256
        assert abs(ace(buckets) - 1046.8e9) / 1046.8e9 < 1e-4

    def test_empty(self):
        assert ace([]) == 0

    def test_weights_per_format(self):
        def one(d):
            return ace([MacBucket(d, d, 1)])
        assert one(DType.FP32) == 1024
        assert one(DType.BF16) == 256
        assert one(DType.INT8) == 64
        assert one(DType.INT4) == 16
        assert one(DType.INT2) == 4
        assert one(DType.BIN) == 1

    def test_fp32_as_bf16_flag(self):
        buckets = count_macs(build_resnet50(DType.FP32))
        assert ace(buckets) == 4_089_184_256 * 1024
        assert ace(buckets, fp32_as_bf16=True) == 4_089_184_256 * 256

    def test_consistency_identity(self):
        def coef(d):
            return Fraction(1) if d.is_float else Fraction(d.bits, 64)

        for name in ("pokebnn-1.0x", "resnet50-bf16", "pokebnn-toy"):
            r = analyze_graph(build_named(name))
            assert r.ace == sum(b.count * b.act_bits.bits * b.weight_bits.bits
                                for b in r.buckets)
            assert r.cpu64 == sum(
                (max(coef(b.act_bits), coef(b.weight_bits)) * b.count
                 for b in r.buckets), Fraction(0))


class TestCpu64:
    def test_pokebnn_1x(self):
        r = analyze_graph(build_pokebnn(1))
        assert abs(float(r.cpu64) - 57.7e6) / 57.7e6 < 0.01

    def test_reference_bucket_mix(self):
        buckets = [MacBucket(DType.FP32, DType.FP32, 11_900_000),
                   MacBucket(DType.BIN, DType.BIN, 4_816_900_000)]
        assert float(cpu64(buckets)) == pytest.approx(87.2e6, rel=1e-3)

    def test_binary_only(self):
        assert cpu64([MacBucket(DType.BIN, DType.BIN, 64)]) == 1

    def test_resnet(self):
        assert cpu64(count_macs(build_resnet50())) == 4_089_184_256


class TestModelSize:
    def test_fp32_resnet(self):
        size = model_size(build_resnet50(DType.FP32))
        assert abs(size / 2**20 - 97.3) / 97.3 < 0.02

    def test_bf16_resnet(self):
        size = model_size(build_resnet50(DType.BF16))
        assert abs(size / 2**20 - 48.6) / 48.6 < 0.02

    def test_pokebnn_1x(self):
        size = model_size(build_pokebnn(1))
        assert abs(size / 2**20 - 6.2) / 6.2 < 0.10


class TestElementwise:
    # Reference breakdown (1e6 ops) for the 1.0x build: adds, muls per kind.
    REFERENCE_ROWS = {
        "batchnorm": (17.9, 17.9),
        "dprelu": (3 * 9.1, 9.1),
        "avg_ch": (5.4, 1.7),
        "avg_pool": (7.9, 0.87),
        "residual_local": (8.8, 0.0),
        "residual_block": (5.5, 0.0),
        "se_spatial_mean": (8.9, None),   # muls below reporting threshold
        "se_final_mul": (0.0, 8.8),
        "global_pool": (0.1, None),
    }

    @pytest.fixture()
    def counts(self, pokebnn_1x_elementwise):
        return pokebnn_1x_elementwise

    def test_totals(self, counts):
        assert abs(counts.adds - 81.9e6) / 81.9e6 < 0.02
        assert abs(counts.muls - 38.4e6) / 38.4e6 < 0.02

    def test_rows_within_two_percent(self, counts):
        for kind, (adds_ref, muls_ref) in self.REFERENCE_ROWS.items():
            adds, muls = counts.breakdown[kind]
            if adds_ref:
                assert abs(adds / 1e6 - adds_ref) / adds_ref < 0.02, kind
            if muls_ref:
                assert abs(muls / 1e6 - muls_ref) / muls_ref < 0.02, kind
            if muls_ref is None:
                assert muls / 1e6 < 0.05, kind

    def test_totals_equal_breakdown_sum(self, counts):
        assert counts.adds == sum(a for a, _ in counts.breakdown.values())
        assert counts.muls == sum(m for _, m in counts.breakdown.values())

    def test_single_bn_rule(self):
        g = GraphSpec("bn", (1, 1, 10), [
            NodeSpec("in", "input"),
            NodeSpec("b", "batchnorm", ["in"]),
            NodeSpec("out", "output", ["b"]),
        ])
        c = count_elementwise(g)
        assert c.breakdown["batchnorm"] == (10, 10)

    def test_rejects_non_poke_graph(self):
        with pytest.raises(UnsupportedGraph, match="stem_pool"):
            count_elementwise(build_resnet50())

    def test_toy_graph_supported(self):
        c = count_elementwise(build_pokebnn_toy())
        assert c.adds > 0 and c.muls > 0


class TestElementwiseAce:
    def test_pokebnn_1x_fused_estimate(self):
        c = count_elementwise(build_pokebnn(1))
        total = elementwise_ace(c)
        assert abs(total - 3.6e9) / 3.6e9 < 0.05

    def test_bn_mul_component(self):
        c = count_elementwise(build_pokebnn(1))
        bn_muls = c.breakdown["batchnorm"][1]
        assert abs(bn_muls * 128 - 2.3e9) / 2.3e9 < 0.02

    def test_zero_counts(self):
        empty = ElementwiseCount(adds=0, muls=0, breakdown={})
        assert elementwise_ace(empty) == 0

    def test_fusion_never_increases(self):
        c = count_elementwise(build_pokebnn(1))
        fused = elementwise_ace(c, FusionPolicy(fuse_affine=True))
        unfused = elementwise_ace(c, FusionPolicy(fuse_affine=False))
        assert fused <= unfused


class TestEnergyCorrelation:
    def test_published_values(self):
        assert energy_correlation(metric="ace", node="7nm") == pytest.approx(0.992, abs=0.05)
        assert energy_correlation(metric="ace", node="45nm") == pytest.approx(0.946, abs=0.05)
        assert energy_correlation(metric="cpu64", node="7nm") == pytest.approx(0.703, abs=0.05)
        assert energy_correlation(metric="cpu64", node="45nm") == pytest.approx(0.724, abs=0.05)

    def test_proportional_rows(self):
        rows = [cost.EnergyRow(f"r{i}", 10.0 * i, 10.0 * i, 20.0 * i, 20.0 * i,
                               Fraction(i), i * 30) for i in range(1, 6)]
        assert energy_correlation(rows, metric="ace", node="7nm") == pytest.approx(1.0)

    def test_too_few_rows(self):
        rows = [cost.EnergyRow("a", 1, 1, 1, 1, Fraction(1), 1),
                cost.EnergyRow("b", 2, 2, 2, 2, Fraction(1), 2)]
        with pytest.raises(ValueError, match="3 rows"):
            energy_correlation(rows)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            energy_correlation(metric="joules")
        with pytest.raises(ValueError):
            energy_correlation(node="3nm")


class TestScalingProperties:
    def test_binary_bucket_superlinear_and_adjacent_ratio(self):
        mults = sorted(VARIANT_TABLE, key=float)
        binaries = {m: bucket_totals(build_pokebnn(Fraction(m)))[DType.BIN]
                    for m in mults}
        for lo, hi in zip(mults, mults[1:]):
            got = binaries[hi] / binaries[lo]
            ratio = float(Fraction(hi) / Fraction(lo))
            assert got > ratio            # grows faster than linear
            assert abs(got - ratio**2) / ratio**2 < 0.005

    def test_two_to_one_ratio_matches_reference(self):
        b1 = bucket_totals(build_pokebnn(1))[DType.BIN]
        b2 = bucket_totals(build_pokebnn(2))[DType.BIN]
        assert abs(b2 / b1 - 14412.2 / 3609.5) < 0.01 * (14412.2 / 3609.5)

    def test_monotonicity_in_channel_count(self):
        smaller = analyze_graph(build_pokebnn_toy(m=0.25))
        bigger = analyze_graph(build_pokebnn_toy(m=0.5))
        for d in DType:
            assert bigger.bucket_count(d) >= smaller.bucket_count(d)
        assert bigger.ace > smaller.ace
        assert bigger.cpu64 > smaller.cpu64


class TestAnalyzerMatchesExecutedMacs:
    def test_toy_graph_node_and_bucket_counts(self):
        # MACs that Model.forward actually ran: each output element of a
        # conv, depthwise or dense node is one dot product of w.size // F terms.
        g = build_pokebnn_toy(m=0.25, groups=4, input_shape=(16, 16, 3))
        model = Model(g, seed=0)
        trace = {}
        model.forward(np.random.default_rng(0).normal(size=(2, 16, 16, 3)),
                      training=False, phase=2,
                      hooks=[lambda node, out: trace.__setitem__(node.id, out)])
        shapes = infer_shapes(g)
        executed, seen = {}, set()
        for node in g.nodes:
            if node.op not in ("conv2d", "depthwise_conv2d", "dense"):
                continue
            seen.add(node.op)
            out = trace[node.id]
            w = model.params[f"{node.id}.w"]
            macs = out[0].size * (w.size // out.shape[-1])
            assert macs == cost.node_macs(node, shapes[node.inputs[0]],
                                          shapes[node.id]), node.id
            key = (node.attrs["act_bits"], node.attrs["weight_bits"])
            executed[key] = executed.get(key, 0) + macs
        assert seen == {"conv2d", "depthwise_conv2d", "dense"}
        assert executed == {(b.act_bits, b.weight_bits): b.count
                            for b in count_macs(g)}


class TestReports:
    def test_csv_layout(self):
        text = render_report(analyze_graph(build_pokebnn(1)), fmt="csv")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("model,fp32_macs,bf16_macs,int8_macs")
        assert lines[1].startswith("pokebnn-1.0x,")

    def test_json_roundtrip_equality(self):
        r = analyze_graph(build_pokebnn(1), elementwise=True)
        doc = report_to_json(r)
        back = report_from_json(doc)
        assert back == r

    def test_table_sorted_by_name(self):
        reports = [analyze_graph(build_named(n))
                   for n in ("resnet50-bf16", "pokebnn-1.0x", "pokebnn-0.5x")]
        text = render_report(reports, fmt="table")
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("pokebnn-0.5x")
        assert lines[3].startswith("resnet50-bf16")

    def test_table_rounds_to_one_decimal(self):
        text = render_report(analyze_graph(build_pokebnn(1)), fmt="table")
        row = text.splitlines()[1]
        assert "3609.5" in row and "4.2" in row and "57.7" in row

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(analyze_graph(build_pokebnn_toy()), fmt="xml")
