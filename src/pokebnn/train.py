"""Desk-scale training loop: Adam, linear LR decay, two-phase quantization.

Phase 1 trains with only binary activations quantized while activation
bounds calibrate by EMA; at the switch step the bounds freeze (exactly once)
and all weights plus the 4/8-bit activations quantize for the rest of the
run. Optionally the one-hot target is replaced by teacher probabilities and
the loss becomes a KL divergence.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .graphir import OP_PARAMS
from .nn import autodiff as ad
from .nn.model import Model, ParamArena


# the values that each kind of TrainConfig annotation accepts
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


class TrainingDiverged(RuntimeError):
    def __init__(self, step, what):
        super().__init__(f"training diverged at step {step}: {what}")
        self.step = step


@dataclass
class TrainConfig:
    total_steps: int = 2000
    phase_switch_step: int | None = None   # default: total_steps * 50 / 750
    base_lr: float = 6.4e-4
    weight_decay: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.99
    adam_eps: float = 1e-8
    bn_momentum: float = 0.9
    binary_act_bound: float = 3.0
    seed: int = 0
    batch_size: int = 64
    decay_dprelu: bool = False
    distill: str | None = None             # path to teacher-probability CSV

    def __post_init__(self):
        for f in fields(self):
            value, (kind, _, optional) = getattr(self, f.name), f.type.partition(" | ")
            if not (value is None and optional or isinstance(value, _FIELD_TYPES[kind])
                    and isinstance(value, bool) == (kind == "bool")):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        for name, ok, want in (
                ("base_lr", self.base_lr > 0, "> 0"),
                ("weight_decay", self.weight_decay >= 0, ">= 0"),
                ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                ("adam_eps", self.adam_eps > 0, "> 0"),
                ("bn_momentum", 0 <= self.bn_momentum < 1, "in [0, 1)"),
                ("binary_act_bound", self.binary_act_bound > 0, "> 0"),
                ("batch_size", self.batch_size >= 1, ">= 1")):
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")
        if self.phase_switch_step is None:
            self.phase_switch_step = max(1, self.total_steps * 50 // 750)
        if not 0 < self.phase_switch_step < self.total_steps:
            raise ValueError("phase_switch_step must lie inside (0, total_steps)")


@dataclass
class QuantSchedule:
    """Maps steps to quantization phases; monotone by construction."""

    switch_step: int

    def phase(self, step: int) -> int:
        return 2 if step >= self.switch_step else 1

    def freezes_at(self, step: int) -> bool:
        return step == self.switch_step


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear decay from base_lr to exactly 0 at total_steps."""
    if not 0 <= step <= cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    return cfg.base_lr * (1.0 - step / cfg.total_steps)


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------

# Adam updates the arena a block of this many entries at a time, so that a
# block's parameters, gradients, moments and scratch stay in cache
ADAM_BLOCK = 1 << 15


def adam_init(arena: ParamArena, decay_names=frozenset()) -> dict:
    """Adam state over every parameter of ``arena``: the step count, both
    moments, the entries that take weight decay, and two block-sized scratch
    buffers."""
    decay = np.zeros(arena.data.size, dtype=bool)
    for name in decay_names:
        decay[arena.spans[name]] = True
    scratch = min(arena.data.size, ADAM_BLOCK)
    return {
        "t": 0,
        "m": np.zeros_like(arena.data),
        "v": np.zeros_like(arena.data),
        "decay": decay if decay.any() else None,
        "scratch": (np.empty(scratch, arena.data.dtype), np.empty(scratch, arena.data.dtype)),
    }


def adam_step(arena: ParamArena, state: dict, lr: float, cfg: TrainConfig) -> None:
    """One in-place Adam update of ``arena.data`` from ``arena.grad``.

    The update runs over the arena in blocks of ``ADAM_BLOCK`` entries, with
    the per-element arithmetic of a per-tensor Adam. A non-finite gradient
    raises before any update, naming the first parameter that has one.
    """
    state["t"] += 1
    t = state["t"]
    g = arena.grad
    if not np.isfinite(g).all():
        bad = next(name for name, span in arena.spans.items()
                   if not np.isfinite(g[span]).all())
        raise TrainingDiverged(t, f"non-finite gradient for {bad}")
    b1, b2 = cfg.beta1, cfg.beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    decay = state["decay"] if cfg.weight_decay else None
    for lo in range(0, g.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        p, m, v, gb = arena.data[block], state["m"][block], state["v"][block], g[block]
        s1, s2 = (s[:gb.size] for s in state["scratch"])
        m *= b1
        m += np.multiply(gb, 1 - b1, out=s1)
        v *= b2
        v += np.multiply(np.multiply(gb, 1 - b2, out=s1), gb, out=s1)
        # update = (m / c1) / (sqrt(v / c2) + eps), in s2
        np.sqrt(np.divide(v, c2, out=s1), out=s1)
        s1 += cfg.adam_eps
        np.divide(np.divide(m, c1, out=s2), s1, out=s2)
        if decay is not None:
            np.subtract(p, np.multiply(p, lr * cfg.weight_decay, out=s1), out=p,
                        where=decay[block])
        p -= np.multiply(s2, lr, out=s2)


# ---------------------------------------------------------------------------
# Losses and evaluation
# ---------------------------------------------------------------------------

def kl_distill_loss(student_logits, teacher_probs):
    """Mean KL(teacher || softmax(student)) and what its VJP
    ``nn.autodiff._kl_divergence_vjp`` reuses; one-hot teachers reduce to
    cross-entropy. Teacher rows must sum to 1 within 1e-5."""
    t = np.asarray(teacher_probs, dtype=np.float64)
    sums = t.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-5):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"teacher row {bad} sums to {sums[bad]:.6f}, not 1")
    return ad._kl_divergence(np.asarray(student_logits), t)


def top1_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=-1) == labels).mean())


def eval_averaged_top1(model: Model, dataset, checkpoints) -> float:
    """Mean top-1 over checkpoints captured in the zero-LR tail."""
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    accs = []
    for state in checkpoints:
        model.load_state_dict(state)
        logits = model.logits(dataset.x, training=False, phase=2)
        accs.append(top1_accuracy(logits, dataset.y))
    return float(np.mean(accs))


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

@dataclass
class ToyDataset:
    x: np.ndarray           # [N, H, W, C] float
    y: np.ndarray           # [N] int labels
    teacher: np.ndarray | None = None   # [N, K] probabilities


def make_toy_dataset(n: int = 512, classes: int = 10, shape=(16, 16, 3),
                     seed: int = 0, noise: float = 0.3) -> ToyDataset:
    """Class-conditional Gaussian patterns, deterministic given the seed."""
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(0.0, 1.0, size=(classes, *shape))
    y = np.arange(n) % classes
    x = prototypes[y] + noise * rng.normal(0.0, 1.0, size=(n, *shape))
    return ToyDataset(x=x.astype(np.float64), y=y)


def load_teacher_probs(path, classes: int | None = None) -> np.ndarray:
    """Teacher probabilities from CSV, one row per example.

    Raises a ValueError naming the file and the line of a cell that is not a
    number, a row of another length than the first (or than ``classes``), a
    NaN or negative entry, or a row that does not sum to 1 within 1e-5, and
    one naming the file and the byte offset of bytes that are not UTF-8.
    """
    with open(path, "rb") as f:
        try:
            text = f.read().decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    for row in reader:
        if not row:
            continue
        where = f"{path}, line {reader.line_num}"
        try:
            values = [float(v) for v in row]
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        width = classes or len(rows[0] if rows else values)
        if len(values) != width:
            raise ValueError(f"{where}: expected {width} columns, found {len(values)}")
        if not all(v >= 0 for v in values):
            raise ValueError(f"{where}: probabilities must be non-negative, got {row}")
        if abs(sum(values) - 1.0) > 1e-5:
            raise ValueError(f"{where}: row sums to {sum(values):.6f}, not 1")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no rows")
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    state: dict
    records: list
    checkpoints: list = field(default_factory=list)


def train_loop(model: Model, dataset: ToyDataset, cfg: TrainConfig,
               metrics_path=None, tail_checkpoints: int = 0) -> "TrainResult":
    """Runs the two-phase recipe; returns the final state and metrics log.

    Metrics are one JSON record per step: {step, lr, loss, top1, phase}.
    ``tail_checkpoints`` state dicts are captured from the last steps for
    averaged evaluation.
    """
    rng = np.random.default_rng(cfg.seed)
    schedule = QuantSchedule(cfg.phase_switch_step)
    model.binary_bound = cfg.binary_act_bound
    model.bn_momentum = cfg.bn_momentum
    # weight decay: conv/dense weights, and the DPReLU vectors if decay_dprelu
    decay_names = {f"{node.id}.{key}" for node in model.graph.nodes
                   for key in OP_PARAMS.get(node.op, ())
                   if key == "w" or (cfg.decay_dprelu and node.op == "dprelu")}
    opt = adam_init(model.arena, decay_names)
    n = dataset.x.shape[0]
    order = rng.permutation(n)
    cursor = 0
    records = []
    checkpoints = []

    for step in range(cfg.total_steps):
        if schedule.freezes_at(step):
            model.freeze_activation_bounds()
        phase = schedule.phase(step)
        if cursor + cfg.batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor:cursor + cfg.batch_size]
        cursor += cfg.batch_size

        xb = dataset.x[idx]
        yb = dataset.y[idx]
        model.zero_grad()
        logits, backward = model.forward(xb, training=True, phase=phase)
        if dataset.teacher is not None:
            target, vjp = dataset.teacher[idx], ad._kl_divergence_vjp
            loss, saved = kl_distill_loss(logits, target)
        else:
            target, vjp = yb, ad._cross_entropy_vjp
            loss, saved = ad._cross_entropy(logits, yb)
        value = float(loss)
        if not np.isfinite(value):
            raise TrainingDiverged(step, f"loss {value}")
        backward(vjp(np.ones_like(loss), saved, (True, False), logits, target)[0])

        lr = lr_at(step, cfg)
        adam_step(model.arena, opt, lr, cfg)

        records.append({
            "step": step,
            "lr": lr,
            "loss": value,
            "top1": top1_accuracy(logits, yb),
            "phase": phase,
        })
        if tail_checkpoints and step >= cfg.total_steps - tail_checkpoints:
            checkpoints.append(model.state_dict())

    if metrics_path:
        write_metrics(metrics_path, records)
    return TrainResult(state=model.state_dict(), records=records,
                       checkpoints=checkpoints)


def write_metrics(path, records) -> None:
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def read_metrics(path) -> list:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
