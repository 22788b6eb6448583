"""
Graph round trip
================

Exports a builtin graph to the JSON wire format, reloads it, checks the
round trip is exact, and shows what the validator reports on a corrupted
graph.
"""

import tempfile
from pathlib import Path

from pokebnn.builders import build_pokebnn
from pokebnn.graphir import infer_shapes, load_graph, save_graph, validate_graph

g = build_pokebnn(0.5)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "pokebnn-0.5x.json"
    save_graph(g, path)
    print(f"wrote {path} ({path.stat().st_size} bytes, {len(g.nodes)} nodes)")
    g2 = load_graph(path)
print(f"round trip exact: {g2 == g}")

shapes = infer_shapes(g2)
for nid in ("init_conv", "b00_pc1_conv", "b15_pc3_conv", "head_fc"):
    print(f"  {nid:16} -> {shapes[nid]}")

# The validator names each offending node instead of raising on the first.
g2.nodes[5].inputs = ["does-not-exist"]
g2.nodes[9].attrs["groups"] = 7
for diag in validate_graph(g2):
    print("diagnostic:", diag)
