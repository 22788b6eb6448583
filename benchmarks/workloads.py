"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup``, runs untimed in
``warm_up`` so lazy allocation and library start-up are not measured, and
times operations in ``measure`` until its time is used up. Every operation's
output is checked; an operation whose check fails counts as failed.

The workloads call the library only through its public functions and look
them up on their modules at call time, so the tracer's wrappers see the calls.
``aliases`` names a workload's op_ms_p50, op_ms_p90 and items_per_s.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from pokebnn import builders, cost, graphir, kernels, train
from pokebnn.graphir import DType
from pokebnn.nn.model import Model

clock = time.perf_counter

# The toy model and data of acceptance criterion 9 (tests/test_acceptance.py).
TOY_GRAPH = dict(m=0.25, groups=4, input_shape=(16, 16, 3))
TOY_SAMPLES = 512
BATCH = 64


@dataclass
class Measured:
    """What one ``measure`` call observed.

    ``op_ms`` holds one latency sample per headline operation; ``items`` were
    completed in ``busy_s`` seconds of the operations that produce them.
    """

    op_ms: list = field(default_factory=list)
    items: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    def add(self, other: "Measured") -> None:
        self.op_ms += other.op_ms
        self.items += other.items
        self.busy_s += other.busy_s
        self.attempted += other.attempted
        self.failed += other.failed


def _no_mark(op: int, tag=None) -> None:
    """Default for ``mark``, which a traced run uses to label its spans."""


def _toy_graph():
    return builders.build_pokebnn_toy(**TOY_GRAPH)


def _toy_data(seed):
    return train.make_toy_dataset(n=TOY_SAMPLES, shape=TOY_GRAPH["input_shape"],
                                  seed=seed)


# ---------------------------------------------------------------------------
# toy-train
# ---------------------------------------------------------------------------

class ToyTrain:
    """Closed loop, one caller: episodes of ``train.train_loop``.

    Each episode trains a freshly initialised model for ``STEPS`` steps and
    crosses the phase switch at ``SWITCH`` (a fifth of the episode), so both
    phases are timed while the step-time median stays inside phase 2. Every
    episode of a run uses the same seed, so each loss curve must equal the
    warm-up episode's curve bit for bit.
    """

    name = "toy-train"
    aliases = ("train_step_ms_p50", "train_step_ms_p90", "train_samples_per_s")
    STEPS = 40
    SWITCH = 8

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.graph = _toy_graph()
        self.data = _toy_data(seed)
        self.cfg = train.TrainConfig(total_steps=self.STEPS,
                                     phase_switch_step=self.SWITCH,
                                     seed=seed, batch_size=BATCH)
        self.model = Model(self.graph, seed=seed, dtype=np.float32)
        self.reference_digest = None

    def _episode(self, model, mark, first_op):
        """Runs one episode; returns (step boundaries, records, ok)."""
        stamps, flips = [], []
        zero_grad = model.zero_grad
        freeze = model.freeze_activation_bounds

        def step_start():
            mark(first_op + len(stamps))
            stamps.append(clock())
            zero_grad()

        def counted_freeze():
            flips.append(freeze())
            return flips[-1]

        model.zero_grad = step_start
        model.freeze_activation_bounds = counted_freeze
        try:
            result = train.train_loop(model, self.data, self.cfg)
        except train.TrainingDiverged:
            return stamps + [clock()], [], False
        stamps.append(clock())
        records = result.records
        losses = np.array([r["loss"] for r in records], dtype=np.float64)
        digest = hashlib.sha256(losses.tobytes()).hexdigest()[:16]
        if self.reference_digest is None:
            self.reference_digest = digest
        ok = (len(records) == self.STEPS and bool(np.all(np.isfinite(losses)))
              and len(model.bounds) > 0 and flips == [len(model.bounds)]
              and digest == self.reference_digest)
        return stamps, records, ok

    def warm_up(self) -> None:
        self._episode(self.model, _no_mark, 0)

    def measure(self, seconds: float, mark=_no_mark) -> Measured:
        out = Measured()
        phase_ms = {1: [], 2: []}
        start = clock()
        last = 0.0
        while not out.attempted or clock() - start + last <= seconds:
            model = Model(self.graph, seed=self.seed, dtype=np.float32)
            t0 = clock()
            stamps, records, ok = self._episode(model, mark, out.attempted)
            last = clock() - t0
            step_ms = np.diff(stamps) * 1e3
            out.op_ms.extend(step_ms.tolist())
            for r, ms in zip(records, step_ms):
                phase_ms[r["phase"]].append(ms)
            out.items += BATCH * len(records)
            out.busy_s += last
            out.attempted += self.STEPS
            out.failed += 0 if ok else self.STEPS
        out.notes = {
            "train_step_ms_p50_phase1": (float(np.median(phase_ms[1])), "ms"),
            "train_step_ms_p50_phase2": (float(np.median(phase_ms[2])), "ms"),
            "loss_digest": (self.reference_digest, "sha256/16"),
        }
        return out


# ---------------------------------------------------------------------------
# toy-infer
# ---------------------------------------------------------------------------

class ToyInfer:
    """The toy graph in eval mode, phase 2: ``Model.logits`` at batch 1 and 64.

    A round runs one batch of 64 (throughput), then 16 of its rows one at a
    time (latency). Each batch-1 result must match its batch-64 row within
    float32 tolerance and with the same argmax.
    """

    name = "toy-infer"
    aliases = ("infer_b1_ms_p50", "infer_b1_ms_p90", "infer_b64_samples_per_s")
    ROWS_PER_ROUND = 16

    def setup(self, seed: int) -> None:
        self.seed = seed
        data = _toy_data(seed)
        self.x = data.x
        self.model = Model(_toy_graph(), seed=seed, dtype=np.float32)
        # Calibrate batchnorm statistics and activation bounds on real
        # batches, then freeze them as the phase switch would.
        for i in range(3):
            self.model.forward(self.x[i * BATCH:(i + 1) * BATCH],
                               training=True, phase=1)
        self.model.freeze_activation_bounds()

    def _round(self, rng, out, mark):
        first = int(rng.integers(0, len(self.x) - BATCH + 1))
        batch = self.x[first:first + BATCH]
        mark(out.attempted)
        t0 = clock()
        full = self.model.logits(batch)
        dt = clock() - t0
        out.items += BATCH
        out.busy_s += dt
        out.attempted += 1
        if full.shape != (BATCH, 10) or not np.all(np.isfinite(full)):
            out.failed += 1
        for row in rng.choice(BATCH, self.ROWS_PER_ROUND, replace=False):
            mark(out.attempted)
            t0 = clock()
            one = self.model.logits(batch[row:row + 1])
            out.op_ms.append((clock() - t0) * 1e3)
            out.attempted += 1
            if not (one.shape == (1, 10)
                    and np.allclose(one[0], full[row], rtol=1e-5, atol=1e-5)
                    and one[0].argmax() == full[row].argmax()):
                out.failed += 1

    def warm_up(self) -> None:
        self._round(np.random.default_rng(self.seed), Measured(), _no_mark)

    def measure(self, seconds: float, mark=_no_mark) -> Measured:
        rng = np.random.default_rng(self.seed)
        out = Measured()
        start = clock()
        while not out.attempted or clock() - start < seconds:
            self._round(rng, out, mark)
        out.notes = {
            "infer_b64_ms_mean": (BATCH * 1e3 * out.busy_s / out.items, "ms"),
        }
        return out


# ---------------------------------------------------------------------------
# kernels-1.0x
# ---------------------------------------------------------------------------

@dataclass
class KernelLayer:
    """One distinct kernel call of the PokeBNN-1.0x graph.

    ``count`` is how many graph nodes share the shape; ``bucket`` is the
    (act_bits, weight_bits) MAC bucket; ``expected`` is the oracle output.
    """

    label: str
    kind: str                  # "binary" | "int_conv" | "int_dense"
    count: int
    bucket: tuple
    act: object
    weights: object
    stride: int
    expected: np.ndarray
    macs: int                  # per call
    bytes_read: int            # per call, computed from the operands


def _signs(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0).astype(np.float32)


def _ints(rng, bits: DType, shape):
    lim = 2 ** (bits.bits - 1) - 1
    return kernels.IntTensor(rng.integers(-lim, lim + 1, size=shape), bits)


class Kernels10x:
    """One image through every PokeBNN-1.0x layer that has a kernel.

    Shapes and multiplicities come from ``graphir.infer_shapes`` on the
    builtin graph; each distinct shape gets one random input whose oracle
    output is computed once in set-up. Per image, the MACs the kernels
    executed are tallied per bucket from their outputs and operand shapes and
    must equal ``cost.count_macs`` less the MACs of layers without a kernel.
    """

    name = "kernels-1.0x"
    aliases = ("kernel_image_ms_p50", "kernel_image_ms_p90", "kernel_images_per_s")
    MODEL = "pokebnn-1.0x"

    def setup(self, seed: int) -> None:
        groups, self.uncovered, self.expected_macs = self.plan()
        rng = np.random.default_rng(seed)
        self.layers = [self._make_layer(rng, key, count)
                       for key, count in groups.items()]

    @classmethod
    def plan(cls):
        """Kernel calls of the graph grouped by shape, with MAC totals.

        Returns ({call key: node count}, {bucket: MACs of layers without a
        kernel}, {bucket: ``cost.count_macs`` total}).
        """
        g = builders.build_named(cls.MODEL)
        shapes = graphir.infer_shapes(g)
        expected = {(b.act_bits, b.weight_bits): b.count
                    for b in cost.count_macs(g, shapes)}
        uncovered, groups = {}, {}
        for node in g.nodes:
            if node.op not in ("conv2d", "depthwise_conv2d", "dense"):
                continue
            a = node.attrs
            bucket = (a["act_bits"], a["weight_bits"])
            in_shape, out_shape = shapes[node.inputs[0]], shapes[node.id]
            kind = cls._kind(node, bucket)
            if kind is None:
                uncovered[bucket] = uncovered.get(bucket, 0) + \
                    cost.node_macs(node, in_shape, out_shape)
                continue
            key = (kind, bucket, in_shape, tuple(a.get("kernel", (1, 1))),
                   a.get("stride", 1), out_shape[2])
            groups[key] = groups.get(key, 0) + 1
        return groups, uncovered, expected

    @classmethod
    def binary_labels(cls) -> list:
        return [cls._label(key) for key in cls.plan()[0] if key[0] == "binary"]

    @staticmethod
    def _label(key) -> str:
        kind, bucket, (h, w, c), (kh, _), stride, f = key
        if kind == "int_dense":
            return f"{bucket[0].value}-{c}-f{f}"
        return f"{h}x{w}x{c}-k{kh}s{stride}-f{f}"

    @staticmethod
    def _kind(node, bucket):
        if any(b.is_float for b in bucket):
            return None
        if node.op == "conv2d" and node.attrs.get("groups", 1) == 1:
            return "binary" if bucket == (DType.BIN, DType.BIN) else "int_conv"
        if node.op == "dense" and DType.BIN not in bucket:
            return "int_dense"
        return None

    @staticmethod
    def _make_layer(rng, key, count) -> KernelLayer:
        kind, bucket, (h, w, c), (kh, kw), stride, f = key
        label = Kernels10x._label(key)
        if kind == "binary":
            act = _signs(rng, (h, w, c))
            wts = _signs(rng, (f, kh, kw, c))
            packed = kernels.pack_signs(wts)
            ref = kernels.float_conv2d(act, np.moveaxis(wts, 0, -1), stride=stride)
            words = -(-c // kernels.WORD_BITS) * 8
            return KernelLayer(label, kind, count, bucket, act, packed, stride,
                               ref.astype(np.int32), ref.size * kh * kw * c,
                               h * w * words + packed.words.nbytes)
        if kind == "int_conv":
            act = _ints(rng, bucket[0], (h, w, c))
            wts = _ints(rng, bucket[1], (kh, kw, c, f))
            ref = kernels.float_conv2d(act.values, wts.values, stride=stride)
            macs = ref.size * kh * kw * c
        else:
            act = _ints(rng, bucket[0], (1, c))
            wts = _ints(rng, bucket[1], (c, f))
            ref = act.values.astype(np.int64) @ wts.values.astype(np.int64)
            macs = ref.size * c
        return KernelLayer(label, kind, count, bucket, act, wts, stride,
                           ref.astype(np.int32), macs,
                           act.values.nbytes + wts.values.nbytes)

    def _call(self, layer: KernelLayer):
        """One kernel call; returns (seconds, executed MACs, output ok)."""
        t0 = clock()
        if layer.kind == "binary":
            out = kernels.binary_conv2d(kernels.pack_signs(layer.act),
                                        layer.weights, stride=layer.stride)
            dt = clock() - t0
            _, kh, kw, c = layer.weights.shape
            macs = out.size * kh * kw * c
        elif layer.kind == "int_conv":
            out, _ = kernels.int_conv2d(layer.act, layer.weights, stride=layer.stride)
            dt = clock() - t0
            kh, kw, c, _ = layer.weights.values.shape
            macs = out.size * kh * kw * c
        else:
            out, _ = kernels.int_dense(layer.act, layer.weights)
            dt = clock() - t0
            macs = out.size * layer.act.values.shape[-1]
        return dt, macs, np.array_equal(out, layer.expected)

    def _image(self, mark=_no_mark, op=0):
        """One image; returns (kernel seconds, ok) and keeps the MAC tally."""
        busy = 0.0
        ok = True
        executed = {}
        for layer in self.layers:
            mark(op, layer.label)
            for _ in range(layer.count):
                dt, macs, same = self._call(layer)
                busy += dt
                ok &= same
                executed[layer.bucket] = executed.get(layer.bucket, 0) + macs
        for bucket, total in self.expected_macs.items():
            covered = total - self.uncovered.get(bucket, 0)
            if covered and executed.get(bucket, 0) != covered:
                ok = False
        self.executed_macs = sum(executed.values())
        return busy, ok and set(executed) <= set(self.expected_macs)

    def macs_per_image(self) -> int:
        """MACs the kernels executed for the last image."""
        return self.executed_macs

    def bytes_per_image(self) -> int:
        return sum(layer.count * layer.bytes_read for layer in self.layers)

    def warm_up(self) -> None:
        self._image()

    def measure(self, seconds: float, mark=_no_mark) -> Measured:
        out = Measured()
        macs = 0
        start = clock()
        while not out.attempted or clock() - start < seconds:
            busy, ok = self._image(mark, out.attempted)
            macs += self.executed_macs
            out.op_ms.append(busy * 1e3)
            out.items += 1
            out.busy_s += busy
            out.attempted += 1
            out.failed += 0 if ok else 1
        out.notes = {
            "kernel_gmacs": (macs / out.busy_s / 1e9, "GMAC/s"),
            "kernels_uncovered_macs_per_image": (sum(self.uncovered.values()),
                                                 "count"),
        }
        return out


# ---------------------------------------------------------------------------
# analyze-builtins
# ---------------------------------------------------------------------------

# Published PokeBNN-1.0x figures and the tolerances of acceptance criteria
# 1 and 2 (tests/test_acceptance.py).
PUBLISHED_10X_INT8_MACS = 8_671_232
PUBLISHED_10X_ACE = (4.2e9, 0.01)
PUBLISHED_10X_CPU64 = (57.7e6, 0.01)


def _close(value, reference_and_tol):
    reference, tol = reference_and_tol
    return abs(value - reference) <= tol * abs(reference)


class AnalyzeBuiltins:
    """Cycles through every builtin: build, JSON round trip, cost analysis.

    The cycle order is a seeded permutation. Each report must equal the
    report of the builder's own graph, computed once in set-up, and the
    PokeBNN-1.0x report must keep the published figures.
    """

    name = "analyze-builtins"
    aliases = ("analyze_ms_p50", "analyze_ms_p90", "analyses_per_s")

    def setup(self, seed: int) -> None:
        names = sorted(builders.builtin_models())
        self.order = [names[i] for i in np.random.default_rng(seed).permutation(len(names))]
        self.elementwise = {}
        self.reference = {}
        for name in names:
            g = builders.build_named(name)
            try:
                report = cost.analyze_graph(g, elementwise=True)
                self.elementwise[name] = True
            except cost.UnsupportedGraph:
                report = cost.analyze_graph(g)
                self.elementwise[name] = False
            self.reference[name] = cost.report_to_json(report)

    def _analyze(self, name):
        """One analysis; returns (seconds, ok)."""
        t0 = clock()
        g = builders.build_named(name)
        g = graphir.graph_from_json(graphir.graph_to_json(g))
        report = cost.analyze_graph(g, elementwise=self.elementwise[name])
        dt = clock() - t0
        ok = cost.report_to_json(report) == self.reference[name]
        if name == "pokebnn-1.0x":
            ok = ok and (report.bucket_count(DType.INT8) == PUBLISHED_10X_INT8_MACS
                         and _close(report.ace, PUBLISHED_10X_ACE)
                         and _close(float(report.cpu64), PUBLISHED_10X_CPU64))
        return dt, ok

    def warm_up(self) -> None:
        for name in self.order:
            self._analyze(name)

    def measure(self, seconds: float, mark=_no_mark) -> Measured:
        out = Measured()
        start = clock()
        # whole cycles only, so every builtin is sampled equally often
        while (not out.attempted or clock() - start < seconds
               or out.attempted % len(self.order)):
            mark(out.attempted)
            dt, ok = self._analyze(self.order[out.attempted % len(self.order)])
            out.op_ms.append(dt * 1e3)
            out.items += 1
            out.busy_s += dt
            out.attempted += 1
            out.failed += 0 if ok else 1
        return out


WORKLOADS = {w.name: w for w in (ToyTrain, ToyInfer, Kernels10x, AnalyzeBuiltins)}
