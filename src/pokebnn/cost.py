"""Analytic cost model: MAC buckets, ACE, CPU64, model size, elementwise ops.

ACE charges each multiply-accumulate i*j bit-adders for an i-bit by j-bit
operand pair (floats counted at their storage width, so fp32 = 1024,
bf16 = 256). CPU64 is the legacy metric: float MACs cost 1 and narrower
formats 1/8, 1/16, 1/32, 1/64 for int8/int4/int2/binary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .graphir import (OP_PARAMS, WEIGHT_OPS, DType, GraphSpec, ShapeMap,
                      infer_shapes, param_shapes, weight_shape)

ADD_ACE = 16        # int16 fixed-point addition
WIDE_MUL_ACE = 128  # int16 x int8 multiplication

_CPU64_COEF = {
    DType.FP32: Fraction(1),
    DType.BF16: Fraction(1),
    DType.INT8: Fraction(1, 8),
    DType.INT4: Fraction(1, 16),
    DType.INT2: Fraction(1, 32),
    DType.BIN: Fraction(1, 64),
}

# Parameters that are not conv/dense weights (BN, DPReLU, biases) are sized
# at 16 bits.
AUX_PARAM_BITS = 16


@dataclass(frozen=True)
class MacBucket:
    act_bits: DType
    weight_bits: DType
    count: int

    @property
    def key(self):
        return (self.act_bits.value, self.weight_bits.value)


@dataclass
class ElementwiseCount:
    """ADD/MUL totals with per-layer-kind breakdown {kind: (adds, muls)}."""

    adds: int
    muls: int
    breakdown: dict = field(default_factory=dict)


@dataclass
class FusionPolicy:
    """Which elementwise multiplies are free at inference.

    Power-of-two constant multiplies are always shifts. With
    ``fuse_affine=True`` every affine multiply except the BatchNorm one is
    folded into a neighboring BatchNorm (or a quantizer scale), leaving only
    BN multiplies billed at int16 x int8.
    """

    fuse_affine: bool = True


@dataclass
class CostReport:
    name: str
    buckets: list
    ace: int
    cpu64: Fraction
    size_bytes: int
    elementwise: ElementwiseCount | None = None
    elementwise_ace: int | None = None

    @property
    def size_mib(self) -> float:
        return self.size_bytes / 2**20

    def bucket_count(self, dtype: DType) -> int:
        return sum(b.count for b in self.buckets
                   if b.act_bits is dtype and b.weight_bits is dtype)


class UnsupportedGraph(ValueError):
    """Raised when an analysis does not apply to the given graph."""


# ---------------------------------------------------------------------------
# MAC counting
# ---------------------------------------------------------------------------

def node_macs(node, in_shape, out_shape) -> int:
    """One MAC per weight per output position; 0 for ops without a weight."""
    shape = weight_shape(node, in_shape)
    return 0 if shape is None else out_shape[0] * out_shape[1] * prod(shape)


def count_macs(g: GraphSpec, shapes: ShapeMap | None = None) -> list[MacBucket]:
    """MACs of every conv/dense node bucketed by (act_bits, weight_bits)."""
    shapes = shapes or infer_shapes(g)
    totals: dict = {}
    for node in g.nodes:
        if node.op not in WEIGHT_OPS:
            continue
        n = node_macs(node, shapes[node.inputs[0]], shapes[node.id])
        key = (node.attrs["act_bits"], node.attrs["weight_bits"])
        totals[key] = totals.get(key, 0) + n
    order = [DType.FP32, DType.BF16, DType.INT8, DType.INT4, DType.INT2, DType.BIN]
    return [MacBucket(a, w, totals[(a, w)])
            for a in order for w in order if (a, w) in totals]


def ace(buckets, fp32_as_bf16: bool = False) -> int:
    """Sum of MACs weighted by act_bits * weight_bits active bit-adders."""
    total = 0
    for b in buckets:
        i, j = b.act_bits.bits, b.weight_bits.bits
        if fp32_as_bf16:
            i = 16 if b.act_bits is DType.FP32 else i
            j = 16 if b.weight_bits is DType.FP32 else j
        total += b.count * i * j
    return total


def cpu64(buckets) -> Fraction:
    """Float MACs plus narrow-format MACs at 1/8 .. 1/64 weight."""
    total = Fraction(0)
    for b in buckets:
        coef = max(_CPU64_COEF[b.act_bits], _CPU64_COEF[b.weight_bits])
        total += coef * b.count
    return total


# ---------------------------------------------------------------------------
# Model size
# ---------------------------------------------------------------------------

def model_size(g: GraphSpec, shapes: ShapeMap | None = None) -> int:
    """Total parameter storage in bytes (report with /2**20 for MiB)."""
    shapes = shapes or infer_shapes(g)
    bits = 0
    for node in g.nodes:
        if node.op not in OP_PARAMS:
            continue
        for key, shape in zip(OP_PARAMS[node.op], param_shapes(
                node, shapes[node.inputs[0]], shapes[node.id])):
            b = node.attrs["weight_bits"].bits if key == "w" else AUX_PARAM_BITS
            bits += b * prod(shape)
    return bits // 8


# ---------------------------------------------------------------------------
# Elementwise operation counting (unquantized layers)
# ---------------------------------------------------------------------------

def _elements(shape):
    h, w, c = shape
    return h * w * c


def count_elementwise(g: GraphSpec, shapes: ShapeMap | None = None) -> ElementwiseCount:
    """Analytic ADD/MUL counts of the real-valued layers of a PokeBNN graph.

    Quantizer scale multiplies are excluded (they fuse into neighbors).
    Rejects graphs with layers outside the PokeBNN family (e.g. max_pool, or
    ReLU outside an SE block) and names the offending nodes.
    """
    shapes = shapes or infer_shapes(g)
    nodes = {n.id: n for n in g.nodes}
    unsupported = []
    for n in g.nodes:
        if n.op == "max_pool":
            unsupported.append(n.id)
        if n.op == "relu" and nodes[n.inputs[0]].op != "dense":
            unsupported.append(n.id)
    if unsupported:
        raise UnsupportedGraph(
            "elementwise analysis only covers PokeBNN-family graphs; "
            f"unsupported nodes: {', '.join(unsupported)}")

    kinds = ("batchnorm", "dprelu", "avg_ch", "avg_pool", "residual_local",
             "residual_block", "se_spatial_mean", "se_activations",
             "se_final_mul", "global_pool")
    bd = {k: [0, 0] for k in kinds}

    for n in g.nodes:
        out = shapes[n.id]
        e = _elements(out)
        if n.op == "batchnorm":
            bd["batchnorm"][0] += e
            bd["batchnorm"][1] += e
        elif n.op == "dprelu":
            bd["dprelu"][0] += 3 * e
            bd["dprelu"][1] += e
        elif n.op == "avg_channels":
            k = shapes[n.inputs[0]][2] // out[2]
            bd["avg_ch"][0] += k * e
            bd["avg_ch"][1] += e
        elif n.op == "avg_pool":
            kh, kw = n.attrs["kernel"]
            bd["avg_pool"][0] += kh * kw * e
            bd["avg_pool"][1] += e
        elif n.op == "add":
            # the block-level shortcut add consumes the local add's output
            key = ("residual_block" if nodes[n.inputs[0]].op == "add"
                   else "residual_local")
            bd[key][0] += e
        elif n.op == "spatial_mean":
            consumer_bits = [c.attrs["act_bits"] for c in g.consumers(n.id)
                             if c.op == "quantize_act"]
            key = ("se_spatial_mean" if DType.INT4 in consumer_bits
                   else "global_pool")
            bd[key][0] += _elements(shapes[n.inputs[0]])
            bd[key][1] += out[2]
        elif n.op == "hardsigmoid":
            bd["se_activations"][0] += e
            bd["se_activations"][1] += e
        elif n.op == "multiply":
            bd["se_final_mul"][1] += e

    bd = {k: tuple(v) for k, v in bd.items()}
    adds = sum(v[0] for v in bd.values())
    muls = sum(v[1] for v in bd.values())
    return ElementwiseCount(adds=adds, muls=muls, breakdown=bd)


# Multiplies by power-of-two constants are shifts regardless of fusion.
_SHIFT_MUL_KINDS = {"avg_ch", "avg_pool"}
# Affine multiplies that fold into a neighboring BatchNorm or quantizer scale.
_FUSABLE_MUL_KINDS = {"dprelu", "se_final_mul", "se_spatial_mean",
                      "se_activations", "global_pool"}


def elementwise_ace(c: ElementwiseCount,
                    policy: FusionPolicy = FusionPolicy()) -> int:
    """ACE of the elementwise layers: int16 adds, int16 x int8 multiplies."""
    total = c.adds * ADD_ACE
    for kind, (_, muls) in c.breakdown.items():
        if kind in _SHIFT_MUL_KINDS:
            continue
        if policy.fuse_affine and kind in _FUSABLE_MUL_KINDS:
            continue
        total += muls * WIDE_MUL_ACE
    return total


# ---------------------------------------------------------------------------
# Energy table and metric correlation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyRow:
    """ADD/MUL energies in femtojoules per op, with metric values per MAC."""

    name: str
    add_45nm: float | None
    add_7nm: float | None
    mul_45nm: float | None
    mul_7nm: float | None
    cpu64: Fraction | None
    ace: int


ENERGY_TABLE = (
    EnergyRow("float32", 900, 380, 3700, 1310, Fraction(1), 1024),
    EnergyRow("float16", 400, 160, 1100, 340, Fraction(1), 256),
    EnergyRow("bfloat16", None, 110, None, 210, None, 256),
    EnergyRow("int32", 100, 30, 3100, 1480, None, 1024),
    EnergyRow("int8", 30, 7, 200, 70, Fraction(1, 8), 64),
    EnergyRow("int4", None, None, None, None, Fraction(1, 16), 16),
    EnergyRow("int2", None, None, None, None, Fraction(1, 32), 4),
    EnergyRow("binary", None, None, None, None, Fraction(1, 64), 1),
)


def energy_correlation(rows=ENERGY_TABLE, metric: str = "ace",
                       node: str = "7nm") -> float:
    """Pearson correlation of a cost metric against ADD+MUL energy.

    Includes exactly the rows that have both ADD and MUL energies for the
    process node; for the CPU64 metric, rows without a CPU64 value are also
    dropped.
    """
    import numpy as np

    if metric not in ("ace", "cpu64"):
        raise ValueError(f"unknown metric {metric!r}")
    if node not in ("7nm", "45nm"):
        raise ValueError(f"unknown process node {node!r}")
    xs, ys = [], []
    for r in rows:
        add = r.add_7nm if node == "7nm" else r.add_45nm
        mul = r.mul_7nm if node == "7nm" else r.mul_45nm
        if add is None or mul is None:
            continue
        value = r.ace if metric == "ace" else r.cpu64
        if value is None:
            continue
        xs.append(float(value))
        ys.append(add + mul)
    if len(xs) < 3:
        raise ValueError(f"need at least 3 rows, found {len(xs)}")
    return float(np.corrcoef(xs, ys)[0, 1])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def analyze_graph(g: GraphSpec, elementwise: bool = False,
                  fp32_as_bf16: bool = False) -> CostReport:
    shapes = infer_shapes(g)
    buckets = count_macs(g, shapes)
    report = CostReport(
        name=g.name,
        buckets=buckets,
        ace=ace(buckets, fp32_as_bf16=fp32_as_bf16),
        cpu64=cpu64(buckets),
        size_bytes=model_size(g, shapes),
    )
    if elementwise:
        counts = count_elementwise(g, shapes)
        report.elementwise = counts
        report.elementwise_ace = elementwise_ace(counts)
    return report


_TABLE_COLUMNS = (DType.FP32, DType.BF16, DType.INT8, DType.INT4, DType.BIN)
_COLUMN_TITLES = ("FP32", "BF16", "INT8", "INT4", "Binary")


def report_to_json(r: CostReport) -> dict:
    doc = {
        "name": r.name,
        "buckets": [{"act_bits": b.act_bits.value,
                     "weight_bits": b.weight_bits.value,
                     "count": b.count} for b in r.buckets],
        "ace": r.ace,
        "cpu64": {"num": r.cpu64.numerator, "den": r.cpu64.denominator},
        "size_bytes": r.size_bytes,
    }
    if r.elementwise is not None:
        doc["elementwise"] = {
            "adds": r.elementwise.adds,
            "muls": r.elementwise.muls,
            "breakdown": {k: list(v) for k, v in r.elementwise.breakdown.items()},
        }
        doc["elementwise_ace"] = r.elementwise_ace
    return doc


def report_from_json(doc: dict) -> CostReport:
    buckets = [MacBucket(DType.from_token(b["act_bits"]),
                         DType.from_token(b["weight_bits"]), b["count"])
               for b in doc["buckets"]]
    ew = None
    if "elementwise" in doc:
        ew = ElementwiseCount(
            adds=doc["elementwise"]["adds"],
            muls=doc["elementwise"]["muls"],
            breakdown={k: tuple(v)
                       for k, v in doc["elementwise"]["breakdown"].items()})
    return CostReport(name=doc["name"], buckets=buckets, ace=doc["ace"],
                      cpu64=Fraction(doc["cpu64"]["num"], doc["cpu64"]["den"]),
                      size_bytes=doc["size_bytes"], elementwise=ew,
                      elementwise_ace=doc.get("elementwise_ace"))


def _table_cells(r: CostReport) -> list[str]:
    cells = [f"{r.bucket_count(d) / 1e6:.1f}" for d in _TABLE_COLUMNS]
    cells.append(f"{r.ace / 1e9:.1f}")
    cells.append(f"{float(r.cpu64) / 1e6:.1f}")
    cells.append(f"{r.size_mib:.1f}")
    return cells


def render_report(reports, fmt: str = "table") -> str:
    """Renders one report or a list; table mode rounds to one decimal."""
    if isinstance(reports, CostReport):
        reports = [reports]
    reports = sorted(reports, key=lambda r: r.name)
    header = ["Model", *(f"{t} (1e6)" for t in _COLUMN_TITLES),
              "ACE (1e9)", "CPU64 (1e6)", "Size (MiB)"]
    if fmt == "json":
        docs = [report_to_json(r) for r in reports]
        return json.dumps(docs[0] if len(docs) == 1 else docs, indent=1)
    if fmt == "csv":
        lines = [",".join(["model", "fp32_macs", "bf16_macs", "int8_macs",
                           "int4_macs", "binary_macs", "ace", "cpu64",
                           "size_bytes"])]
        for r in reports:
            lines.append(",".join([
                r.name,
                *(str(r.bucket_count(d)) for d in _TABLE_COLUMNS),
                str(r.ace), repr(float(r.cpu64)), str(r.size_bytes)]))
        return "\n".join(lines)
    if fmt == "table":
        rows = [header] + [[r.name, *_table_cells(r)] for r in reports]
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for row in rows:
            lines.append("  ".join(cell.rjust(w) if i else cell.ljust(w)
                                   for i, (cell, w) in enumerate(zip(row, widths))))
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


def render_elementwise(c: ElementwiseCount) -> str:
    titles = {
        "batchnorm": "BatchNorm",
        "dprelu": "DPReLU",
        "avg_ch": "ReshapeAdd: avg_ch",
        "avg_pool": "ReshapeAdd: avg_pool_3x3",
        "residual_local": "ReshapeAdd: residual (local)",
        "residual_block": "ReshapeAdd: residual (block)",
        "se_spatial_mean": "SE: spatial mean",
        "se_activations": "SE: activations",
        "se_final_mul": "SE: final multiplication",
        "global_pool": "Global pooling before classifier",
    }
    lines = [f"{'Layer type':34}  {'ADDs (1e6)':>10}  {'MULs (1e6)':>10}"]
    for kind, (a, m) in c.breakdown.items():
        lines.append(f"{titles[kind]:34}  {a / 1e6:>10.2f}  {m / 1e6:>10.2f}")
    lines.append(f"{'Sum':34}  {c.adds / 1e6:>10.1f}  {c.muls / 1e6:>10.1f}")
    return "\n".join(lines)
