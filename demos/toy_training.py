"""
Toy training
============

Trains the desk-scale PokeBNN on a synthetic 10-class dataset with the
two-phase schedule: phase 1 binarizes activations only while EMA bounds
calibrate; at the switch step the bounds freeze and all weights plus the
4/8-bit activations quantize. A few hundred steps suffice to memorize.
"""

import numpy as np

from pokebnn import train as T
from pokebnn.builders import build_pokebnn_toy
from pokebnn.nn.model import Model

graph = build_pokebnn_toy(m=0.25, groups=4, input_shape=(16, 16, 3))
dataset = T.make_toy_dataset(n=256, classes=10, shape=(16, 16, 3), seed=0)
cfg = T.TrainConfig(total_steps=400, phase_switch_step=60, base_lr=1e-3,
                    seed=1, batch_size=64)
model = Model(graph, seed=1, dtype=np.float32)

result = T.train_loop(model, dataset, cfg, tail_checkpoints=3)

for record in result.records[:: len(result.records) // 10]:
    print(f"step {record['step']:4d}  phase {record['phase']}  "
          f"lr {record['lr']:.2e}  loss {record['loss']:.3f}  "
          f"batch top-1 {record['top1']:.2f}")

model.load_state_dict(result.state)
final = T.top1_accuracy(model.logits(dataset.x), dataset.y)
averaged = T.eval_averaged_top1(model, dataset, result.checkpoints)
print(f"\nfull-set top-1 (final params): {final:.3f}")
print(f"averaged top-1 over the zero-LR tail checkpoints: {averaged:.3f}")
print(f"activation bounds frozen: "
      f"{all(s.frozen for s in model.bounds.values())}")
