import gc
import json
import re
import struct
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pokebnn import gradcheck, quant, train
from pokebnn.builders import (
    _emit_pokeconv,
    _emit_pokeinit,
    _emit_reshape,
    _emit_se,
    _GraphBuilder,
    build_pokebnn_toy,
)
from pokebnn.cost import count_macs, model_size
from pokebnn.graphir import (OP_PARAMS, WEIGHT_OPS, DType, GraphError, GraphSpec,
                             NodeSpec, validate_graph)
from pokebnn.kernels import float_conv2d
from pokebnn.nn import autodiff as ad
from pokebnn.nn.autodiff import Tensor
from pokebnn.nn.checkpoint import MAGIC, CheckpointError, load_tensors, save_tensors
from pokebnn.nn.model import _ATTR_ARGS, Model


@pytest.fixture(scope="module")
def toy():
    g = build_pokebnn_toy(m=0.25, groups=4, input_shape=(16, 16, 3))
    return g


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(0).normal(size=(4, 16, 16, 3))


def node_outputs(run, x, **kwargs):
    """Every node's output array in one call of ``run`` (``Model.forward``
    or ``Model.logits``), collected by a hook."""
    outs = {}
    run(x, hooks=[lambda node, out: outs.__setitem__(node.id, out.copy())], **kwargs)
    return outs


def output_of(model, x, **kwargs):
    """The output node's [N, H, W, C] array in one ``Model.forward`` call."""
    return node_outputs(model.forward, x, **kwargs)[model.graph.nodes[-1].id]


def cross_entropy_grad(logits, labels):
    """The gradient of the mean cross-entropy with respect to ``logits``."""
    loss, saved = ad._cross_entropy(logits, labels)
    return ad._cross_entropy_vjp(np.ones_like(loss), saved, (True, False),
                                 logits, labels)[0]


class TestInit:
    def test_dprelu_initial_values(self, toy):
        model = Model(toy, seed=1)
        nodes = [n.id for n in toy.nodes if n.op == "dprelu"]
        assert nodes
        for nid in nodes:
            for name, value in (("alpha", 0.0), ("beta", 0.0),
                                ("gamma", 0.25), ("eta", 1.0)):
                assert np.all(model.params[f"{nid}.{name}"] == value)


class TestForward:
    @pytest.mark.parametrize("phase", [1, 2])
    def test_finite_logits_of_correct_length(self, toy, batch, phase):
        model = Model(toy, seed=1)
        logits = model.logits(batch, training=False, phase=phase)
        assert logits.shape == (4, 10)
        assert np.all(np.isfinite(logits))

    @pytest.mark.parametrize("shape", [(2, 32, 32, 3), (2, 16, 20, 3),
                                       (2, 16, 16, 4)])
    def test_rejects_other_input_shape(self, toy, shape):
        message = f"expects input (16, 16, 3), got {shape[1:]}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Model(toy, seed=1).logits(np.zeros(shape))

    def test_eval_mode_deterministic(self, toy, batch):
        model = Model(toy, seed=1)
        a = model.logits(batch, training=False, phase=2)
        b = model.logits(batch, training=False, phase=2)
        assert np.array_equal(a, b)

    def test_training_updates_bn_stats_eval_does_not(self, toy, batch):
        model = Model(toy, seed=1)
        before = {k: v["mean"].copy() for k, v in model.bn_stats.items()}
        model.forward(batch, training=False, phase=1)
        assert all(np.array_equal(before[k], model.bn_stats[k]["mean"])
                   for k in before)
        model.forward(batch, training=True, phase=1)
        assert any(not np.array_equal(before[k], model.bn_stats[k]["mean"])
                   for k in before)

    def test_binary_conv_inputs_are_signs(self, toy, batch):
        model = Model(toy, seed=1)
        trace = node_outputs(model.forward, batch, training=False, phase=2)
        qbin_nodes = [n.id for n in toy.nodes if n.op == "quantize_act"
                      and n.attrs["act_bits"] is DType.BIN]
        assert qbin_nodes
        for nid in qbin_nodes:
            values = set(np.unique(trace[nid]))
            assert values <= {-1.0, 1.0}

    def test_se_gates_in_unit_interval(self, toy, batch):
        model = Model(toy, seed=1)
        trace = node_outputs(model.forward, batch, training=False, phase=2)
        gates = [nid for nid in trace if nid.endswith("se_gate")]
        assert gates
        for nid in gates:
            assert trace[nid].min() >= 0.0 and trace[nid].max() <= 1.0


class TestPlan:
    """``logits`` runs the forward plan on plain arrays with no tape."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("training", [False, True])
    def test_logits_equal_forward_and_move_the_same_state(self, toy, batch,
                                                          dtype, phase, training):
        taped, plain = Model(toy, seed=4, dtype=dtype), Model(toy, seed=4, dtype=dtype)
        initial = plain.state_dict()
        for _ in range(2):     # the second call reads the moved statistics
            want, _ = taped.forward(batch, training=training, phase=phase)
            got = plain.logits(batch, training=training, phase=phase)
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()
        state, twin = plain.state_dict(), taped.state_dict()
        assert all(state[k].tobytes() == twin[k].tobytes() for k in twin)
        moved = {k for k in state if not np.array_equal(state[k], initial[k])}
        stats = {k for k in state if k.endswith(("running_mean", "running_var",
                                                 ".bound"))}
        assert moved == (stats if training else set())

    @pytest.mark.parametrize("training", [False, True])
    def test_logits_records_no_tape(self, toy, batch, monkeypatch, training):
        cols, conv2d = [], ad._conv2d

        def watched(*args):
            out, saved = conv2d(*args)
            cols.append(weakref.ref(saved[0]))     # the im2col
            return out, saved

        monkeypatch.setattr(ad, "_conv2d", watched)
        model = Model(toy, seed=1, dtype=np.float32)   # resolves the patched op
        alive = []

        def hook(node, out):
            assert type(out) is np.ndarray
            if node.op == "conv2d":
                alive.append(cols[-1]() is not None)

        def no_tensor(*args, **kwargs):
            raise AssertionError("the model created a Tensor")

        monkeypatch.setattr(ad.Tensor, "__init__", no_tensor)
        logits, backward = model.forward(batch, training=training, phase=2,
                                         hooks=[hook])
        assert alive and all(alive)            # the record holds every im2col
        backward(np.ones_like(logits))
        alive.clear()
        model.logits(batch, training=training, phase=2, hooks=[hook])
        assert alive and not any(alive)        # each dies with its step

    def test_float32_stays_float32_at_every_node(self, toy, batch):
        model = Model(toy, seed=1, dtype=np.float32)
        for run in (model.logits, model.forward):
            outs = node_outputs(run, batch, training=False, phase=2)
            assert list(outs) == [n.id for n in toy.nodes]
            assert {o.dtype for o in outs.values()} == {np.dtype(np.float32)}
        assert model.logits(batch).dtype == np.float32

    def test_dropped_model_is_freed_without_the_cycle_collector(self, toy, batch):
        gc.disable()
        try:
            model = Model(toy, seed=1)
            model.forward(batch, training=True, phase=2)
            model.logits(batch)
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            gc.enable()

    def test_graph_needs_one_output_node(self):
        g = GraphSpec("no-output", (4, 4, 1), [NodeSpec("in", "input")])
        with pytest.raises(ValueError, match="exactly one output node, found 0"):
            Model(g)

    @staticmethod
    def two_convs_named_c(output=True):
        conv = dict(kernel=[1, 1], stride=1, padding="same", groups=1,
                    act_bits=DType.FP32, weight_bits=DType.FP32)
        nodes = [NodeSpec("in", "input"),
                 NodeSpec("c", "conv2d", ["in"], {**conv, "out_channels": 5}),
                 NodeSpec("c", "conv2d", ["c"], {**conv, "out_channels": 2}),
                 NodeSpec("out", "output", ["c"])]
        return GraphSpec("dup", (4, 4, 3), nodes if output else nodes[:-1])

    def test_duplicate_node_id_rejected(self):
        # built, the two convs would share one weight c.w shaped for the second
        with pytest.raises(GraphError, match="^graph 'dup': node 'c': duplicate id$"):
            Model(self.two_convs_named_c())

    def test_every_diagnostic_in_one_error(self):
        with pytest.raises(GraphError) as e:
            Model(self.two_convs_named_c(output=False))
        assert str(e.value) == ("graph 'dup': graph must have exactly one output "
                                "node, found 0; node 'c': duplicate id")


def tape_grads(model, x, grad, training, phase):
    """The reference: ``model``'s graph run through the public Tensor ops,
    the tape that ``Model.forward`` recorded before it differentiated its own
    plan, seeded with ``grad``. Returns the logits and the arena gradient."""
    leaf = {name: Tensor(v, requires_grad=True) for name, v in model.params.items()}
    values = {"": Tensor(np.asarray(x, dtype=model.dtype))}
    for node in model.graph.nodes:
        op, a = node.op, node.attrs
        ins = [values[i] for i in node.inputs or [""]]
        p = [leaf[f"{node.id}.{k}"] for k in OP_PARAMS.get(op, ())]
        args = [a[k] for k in _ATTR_ARGS.get(op, ())] + [a.get("divisor")] * (op == "avg_pool")
        if op in ("input", "output"):
            out = ins[0]
        elif op == "quantize_act" and a["act_bits"] is DType.BIN:
            out = ad.binarize(ins[0], model.binary_bound)
        elif op == "quantize_act":
            state = model.bounds[node.id]
            if training and not state.frozen:
                model.bounds[node.id] = state = quant.update_ema_bound(state, ins[0].data)
            out = ins[0] if phase < 2 else ad.fake_quant(ins[0], state.bound,
                                                         a["act_bits"].bits)
        elif op == "batchnorm":
            stats = model.bn_stats[node.id]
            out = (ad.batchnorm_train(ins[0], *p)[0] if training else
                   ad.batchnorm_eval(ins[0], *p, stats["mean"], stats["var"]))
        elif op in WEIGHT_OPS and phase >= 2 and not a["weight_bits"].is_float:
            w = p[0].data
            channels = w.shape[2:] if op == "depthwise_conv2d" else w.shape[-1:]
            bounds = quant.weight_channel_bounds(w.reshape(-1, np.prod(channels)))
            attrs = () if a["weight_bits"] is DType.BIN else (a["weight_bits"].bits,)
            quantize = ad.binarize if a["weight_bits"] is DType.BIN else ad.fake_quant
            wq = quantize(p[0], bounds.reshape(channels), *attrs)
            out = getattr(ad, op)(ins[0], wq, *p[1:], *args)
        else:
            out = getattr(ad, "mul" if op == "multiply" else op)(*ins, *p, *args)
        values[node.id] = out
    out.backward(np.asarray(grad).reshape(out.shape))
    arena = np.zeros_like(model.arena.grad)
    for name, t in leaf.items():
        if t.grad is not None:
            arena[model.arena.spans[name]] += t.grad.ravel()
    return out.data.reshape(len(x), -1), arena


class TestPullback:
    """``forward``'s pullback runs each step's VJP once, in reverse over the
    plan, with no Tensor."""

    # the ids keep the "False-" of the quantizer-mode flag the cases were
    # once parametrized by, so that each case keeps its name
    @pytest.mark.parametrize("graph", ["toy-0.25x4g", "toy-0.125x2g"],
                             ids=lambda name: f"False-{name}")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("training", [False, True])
    def test_gradients_equal_the_tape(self, batch, graph, dtype, phase, training):
        g = PARAM_GRAPHS[graph]()
        model, twin = Model(g, seed=3, dtype=dtype), Model(g, seed=3, dtype=dtype)
        grad = np.random.default_rng(4).normal(size=(len(batch), 10))
        want_logits, want = tape_grads(twin, batch, grad, training, phase)
        logits, backward = model.forward(batch, training=training, phase=phase)
        backward(grad)
        assert logits.tobytes() == want_logits.tobytes()
        assert model.arena.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("phase", [1, 2])
    def test_one_gradient_per_parameter(self, toy, batch, grad_additions, phase):
        model = Model(toy, seed=1, dtype=np.float32)
        added = grad_additions(model)
        logits, backward = model.forward(batch, training=True, phase=phase)
        backward(cross_entropy_grad(logits, np.arange(len(batch))))
        assert added == dict.fromkeys(model.params, 1)

    def test_train_step_builds_no_tensor(self, monkeypatch):
        def no_tensor(*args, **kwargs):
            raise AssertionError("a train step created a Tensor")

        monkeypatch.setattr(ad.Tensor, "__init__", no_tensor)
        cfg = train.TrainConfig(total_steps=3, phase_switch_step=1, seed=0,
                                batch_size=8)
        model = Model(PARAM_GRAPHS["toy-0.125x2g"](), seed=0, dtype=np.float32)
        train.train_loop(model, train.make_toy_dataset(n=16, seed=0), cfg)
        ds = train.make_toy_dataset(n=16, seed=0)
        ds.teacher = np.full((16, 10), 0.1)
        train.train_loop(model, ds, cfg)

    @pytest.mark.parametrize("run", [True, False])
    def test_record_is_freed(self, toy, batch, monkeypatch, run):
        saved, conv2d = [], ad._conv2d

        def watched(*args):
            out, keep = conv2d(*args)
            saved.extend(weakref.ref(a) for a in keep[:2])    # im2col, weight
            return out, keep

        monkeypatch.setattr(ad, "_conv2d", watched)
        model = Model(toy, seed=1, dtype=np.float32)
        gc.disable()
        try:
            logits, backward = model.forward(batch, training=True, phase=2)
            assert saved and all(r() is not None for r in saved)
            if run:
                backward(np.ones_like(logits))
                assert all(r() is None for r in saved)
                with pytest.raises(RuntimeError, match="already run"):
                    backward(np.ones_like(logits))
            else:
                del backward
                assert all(r() is None for r in saved)
        finally:
            gc.enable()


def downstream_closure(graph, seeds):
    reach = set(seeds)
    changed = True
    while changed:
        changed = False
        for n in graph.nodes:
            if n.id not in reach and any(i in reach for i in n.inputs):
                reach.add(n.id)
                changed = True
    return reach


class TestPhases:
    def test_phase_diff_confined_to_quantizer_cones(self, toy, batch):
        model = Model(toy, seed=1)
        t1 = node_outputs(model.forward, batch, training=False, phase=1)
        t2 = node_outputs(model.forward, batch, training=False, phase=2)
        switched = [n.id for n in toy.nodes
                    if (n.op == "quantize_act" and n.attrs["act_bits"] is not DType.BIN)
                    or (n.op in ("conv2d", "depthwise_conv2d", "dense")
                        and not n.attrs["weight_bits"].is_float)]
        allowed = downstream_closure(toy, switched)
        differing = [nid for nid in t1 if not np.array_equal(t1[nid], t2[nid])]
        assert differing, "phases should not be identical"
        assert set(differing) <= allowed

    def test_freeze_flips_exactly_once(self, toy):
        model = Model(toy, seed=1)
        assert model.freeze_activation_bounds() == len(model.bounds) > 0
        assert model.freeze_activation_bounds() == 0

    def test_frozen_bounds_survive_training_forward(self, toy, batch):
        model = Model(toy, seed=1)
        model.forward(batch, training=True, phase=1)  # EMA moves bounds
        moved = model.activation_bounds()
        model.freeze_activation_bounds()
        model.forward(10 * batch, training=True, phase=2)
        assert model.activation_bounds() == moved


class TestCheckpoint:
    def test_roundtrip_exact(self, toy, batch, tmp_path):
        model = Model(toy, seed=1)
        model.forward(batch, training=True, phase=1)
        state = model.state_dict()
        path = tmp_path / "model.ckpt"
        save_tensors(path, state)
        restored = load_tensors(path)
        assert set(restored) == set(state)
        for k in state:
            assert np.array_equal(restored[k], state[k]), k

    def test_restored_model_evaluates_identically(self, toy, batch, tmp_path):
        model = Model(toy, seed=1)
        model.forward(batch, training=True, phase=1)
        want = model.logits(batch, training=False, phase=2)
        path = tmp_path / "model.ckpt"
        save_tensors(path, model.state_dict())
        fresh = Model(toy, seed=99)
        fresh.load_state_dict(load_tensors(path))
        assert np.array_equal(fresh.logits(batch, training=False, phase=2), want)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="magic"):
            load_tensors(path)

    @staticmethod
    def two_tensors(tmp_path):
        """A checkpoint of tensors "a" (6 float64) and "b" (4 int32), and its
        index as (header length, parsed index, data bytes)."""
        path = tmp_path / "two.ckpt"
        save_tensors(path, {"a": np.arange(6.0).reshape(2, 3),
                            "b": np.arange(4, dtype=np.int32)})
        raw = path.read_bytes()
        (n,) = struct.unpack("<Q", raw[4:12])
        return path, json.loads(raw[12:12 + n]), raw[12 + n:]

    @staticmethod
    def rewrite(path, index, blob, header_len=None):
        header = json.dumps(index).encode()
        n = len(header) if header_len is None else header_len
        path.write_bytes(MAGIC + struct.pack("<Q", n) + header + blob)

    def test_forged_header_length_rejected_without_allocating(self, tmp_path):
        path, index, blob = self.two_tensors(tmp_path)
        self.rewrite(path, index, blob, header_len=2 ** 62)
        with pytest.raises(CheckpointError, match="header length 4611686018427387904"):
            load_tensors(path)

    def test_truncated_file_names_the_tensor(self, tmp_path):
        path, _, _ = self.two_tensors(tmp_path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CheckpointError, match="tensor 'b': bytes 48..64 run past"):
            load_tensors(path)

    def test_offset_past_the_end_names_the_tensor(self, tmp_path):
        path, index, blob = self.two_tensors(tmp_path)
        index[0]["offset"] = len(blob) + 8
        self.rewrite(path, index, blob)
        with pytest.raises(CheckpointError, match="tensor 'a': bytes 72..120 run past"):
            load_tensors(path)

    @pytest.mark.parametrize("key, value, message", [
        ("shape", [2, 4], "needs 64 bytes, index says 48"),
        ("shape", [2, -3], "non-negative integers"),
        ("offset", "0", "non-negative integers"),
        ("nbytes", 2 ** 62, "needs 48 bytes"),
        ("dtype", "|O", "cannot be read from bytes"),
        ("dtype", "S0", "cannot be read from bytes"),
        ("dtype", "float99", "bad index entry"),
    ])
    def test_inconsistent_entry_names_the_tensor(self, tmp_path, key, value, message):
        path, index, blob = self.two_tensors(tmp_path)
        index[0][key] = value
        self.rewrite(path, index, blob)
        with pytest.raises(CheckpointError, match=re.escape(f"tensor 'a': ")):
            load_tensors(path)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_tensors(path)

    def test_checkpoint_error_is_a_value_error(self, tmp_path):
        path, index, blob = self.two_tensors(tmp_path)
        assert {k: v.tolist() for k, v in load_tensors(path).items()} == {
            "a": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], "b": [0, 1, 2, 3]}
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="inside its header length"):
            load_tensors(path)


class TestParamArena:
    def test_params_are_views_into_one_buffer(self, toy):
        model = Model(toy, seed=1, dtype=np.float32)
        arena = model.arena
        assert arena.data.dtype == np.float32
        assert arena.data.size == sum(v.size for v in model.params.values())
        for name, v in model.params.items():
            assert v.base is arena.data, name
            assert np.array_equal(v.ravel(), arena.data[arena.spans[name]])
        arena.data[:] = 0.5
        assert all(np.all(v == 0.5) for v in model.params.values())

    def test_values_equal_per_tensor_init(self, toy):
        # the arena holds exactly the float64 draws cast to the model dtype
        for dtype in (np.float32, np.float64):
            model = Model(toy, seed=3, dtype=dtype)
            name, first = next(iter(model.params.items()))   # the first draw
            assert name.endswith(".w") and first.ndim == 4
            fan_in = np.prod(first.shape[:3])
            want = np.random.default_rng(3).normal(0.0, (2.0 / fan_in) ** 0.5,
                                                   size=first.shape)
            assert first.tobytes() == want.astype(dtype).tobytes()

    def test_gradients_accumulate_in_the_arena(self, toy, batch):
        model = Model(toy, seed=1, dtype=np.float32)
        model.freeze_activation_bounds()    # so both passes see the same bounds
        arena = model.arena

        def backward():
            logits, pullback = model.forward(batch, training=True, phase=2)
            pullback(cross_entropy_grad(logits, np.arange(len(batch))))

        backward()
        for name, g in arena.grad_views.items():
            assert g.base is arena.grad, name
            assert np.array_equal(g.ravel(), arena.grad[arena.spans[name]])
        once = arena.grad.copy()
        assert once.any()
        backward()      # a second pass adds onto the first
        assert np.array_equal(arena.grad, 2 * once)
        model.zero_grad()
        assert not arena.grad.any()
        assert not any(g.any() for g in arena.grad_views.values())
        backward()
        model.load_state_dict(model.state_dict())
        assert not arena.grad.any()


def se_path_graph():
    """The SE path behind a float 1x1 conv, as ``gradcheck`` runs it."""
    b = _GraphBuilder("se_path", (4, 4, 3))
    r = b.emit("conv", "conv2d", ["in"], **gradcheck._float_1x1(16))
    return b.finish(_emit_se(b, "", r, 8))


def reshape_add_graph():
    """A non-integral channel contraction and spatial pool added to a
    stride-2 conv, as ``gradcheck`` runs it."""
    b = _GraphBuilder("reshape_add", (6, 6, 3))
    r = b.emit("conv", "conv2d", ["in"], **gradcheck._float_1x1(12))
    x = b.emit("down", "conv2d", ["in"], **gradcheck._float_1x1(8, stride=2))
    rr = _emit_reshape(b, "", r, 8, b.shape[x][:2], "pad_channels")
    return b.finish(b.emit("add", "add", [x, rr]))


# graphs whose parameters the executor and the cost model must agree on
PARAM_GRAPHS = {
    "toy-0.25x4g": lambda: build_pokebnn_toy(m=0.25, groups=4, input_shape=(16, 16, 3)),
    "toy-0.125x2g": lambda: build_pokebnn_toy(m=0.125, groups=2, input_shape=(16, 16, 3)),
    "toy-0.5x3g": lambda: build_pokebnn_toy(m=0.5, groups=3, input_shape=(16, 16, 3)),
    "se_path": se_path_graph,
    "reshape_add": reshape_add_graph,
}


@pytest.mark.parametrize("make", PARAM_GRAPHS.values(), ids=PARAM_GRAPHS.keys())
class TestParamTable:
    def test_model_size_counts_the_model_parameters(self, make):
        g = make()
        nodes = {n.id: n for n in g.nodes}
        bits = 0
        for name, v in Model(g).params.items():
            nid, key = name.rsplit(".", 1)
            bits += v.size * (nodes[nid].attrs["weight_bits"].bits
                              if key == "w" else 16)
        assert model_size(g) == bits // 8

    def test_names_follow_the_table(self, make):
        g = make()
        want = [f"{n.id}.{key}" for n in g.nodes for key in OP_PARAMS.get(n.op, ())]
        assert list(Model(g).params) == want


class TestParameterData:
    def test_assignment_copies_into_the_arena(self, toy):
        model = Model(toy, seed=1, dtype=np.float32)
        view = model.params["init_conv.w"]
        new = np.random.default_rng(5).normal(size=view.shape)
        model.params["init_conv.w"][...] = new
        assert model.params["init_conv.w"] is view
        assert view.tobytes() == new.astype(np.float32).tobytes()
        cfg = train.TrainConfig(total_steps=3, phase_switch_step=2, seed=0,
                                batch_size=8)
        train.train_loop(model, train.make_toy_dataset(n=16, seed=0), cfg)
        # the view and the arena agree, and training moved both
        assert np.array_equal(view.ravel(),
                              model.arena.data[model.arena.spans["init_conv.w"]])
        assert not np.array_equal(view, new.astype(np.float32))

    def test_wrong_shape_rejected(self, toy):
        model = Model(toy, seed=1)
        view = model.params["init_conv.w"]
        before = view.copy()
        with pytest.raises(TypeError):
            model.params["init_conv.w"] = np.zeros(view.shape)
        with pytest.raises(ValueError, match="broadcast"):
            model.params["init_conv.w"][...] = np.zeros(2)
        assert model.params["init_conv.w"] is view
        assert np.array_equal(view, before)


class TestStateDict:
    def test_load_copies_into_arena(self, toy, batch):
        model = Model(toy, seed=1, dtype=np.float32)
        model.forward(batch, training=True, phase=1)
        state = model.state_dict()
        fresh = Model(toy, seed=7, dtype=np.float32)
        views = dict(fresh.params)
        fresh.load_state_dict(state)
        assert fresh.arena.data.tobytes() == model.arena.data.tobytes()
        for name, v in fresh.params.items():
            assert v is views[name] and v.base is fresh.arena.data
        # the model does not alias the dict it was loaded from
        state[next(iter(fresh.params))][...] = 123.0
        assert fresh.arena.data.tobytes() == model.arena.data.tobytes()

    def test_roundtrip_through_checkpoint_file(self, toy, batch, tmp_path):
        model = Model(toy, seed=1, dtype=np.float32)
        model.forward(batch, training=True, phase=1)
        model.freeze_activation_bounds()
        path = tmp_path / "model.ckpt"
        save_tensors(path, model.state_dict())
        fresh = Model(toy, seed=5, dtype=np.float32)
        fresh.load_state_dict(load_tensors(path))
        assert fresh.arena.data.tobytes() == model.arena.data.tobytes()
        assert fresh.activation_bounds() == model.activation_bounds()
        assert all(s.frozen for s in fresh.bounds.values())
        want = model.logits(batch)
        assert fresh.logits(batch).tobytes() == want.tobytes()

    def test_every_mismatch_reported_at_once(self, toy):
        model = Model(toy, seed=1)
        state = model.state_dict()
        names = list(model.params)
        missing, reshaped = names[0], names[1]
        bn = next(iter(model.bn_stats)) + ".running_var"
        bound = next(iter(model.bounds)) + ".bound"
        del state[missing]
        state[reshaped] = np.zeros(3)
        state[bn] = np.zeros((2, 2))
        state[bound] = np.ones(2)
        state["stray.w"] = np.zeros((1, 5))
        before = model.arena.data.copy()
        with pytest.raises(ValueError) as err:
            model.load_state_dict(state)
        text = str(err.value)
        want_missing = model.params[missing].shape
        assert f"missing {missing} {want_missing}" in text
        assert "unexpected stray.w (1, 5)" in text
        assert (f"{reshaped} has shape (3,), expected "
                f"{model.params[reshaped].shape}") in text
        assert f"{bn} has shape (2, 2)" in text
        assert f"{bound} has shape (2,), expected ()" in text
        assert np.array_equal(model.arena.data, before)


def _negate(model, name, how):
    """Negates parameter ``name`` of ``model`` through one arena writer:
    ``data_setter`` assigns a whole new value, ``view_write`` multiplies in
    place, ``arena_write`` writes to the flat buffer."""
    if how == "data_setter":
        model.params[name][...] = -model.params[name]
    elif how == "view_write":
        model.params[name][...] *= -1
    else:
        model.arena.data[model.arena.spans[name]] *= -1


class TestQuantizedWeightCache:
    """``logits`` quantizes each phase-2 weight once per arena state."""

    @staticmethod
    def calibrated(toy, batch, seed=1):
        model = Model(toy, seed=seed, dtype=np.float32)
        model.forward(batch, training=True, phase=1)
        model.freeze_activation_bounds()
        return model

    @staticmethod
    def quantized_nodes(toy, binary):
        return {n.id for n in toy.nodes if n.op in WEIGHT_OPS
                and not n.attrs["weight_bits"].is_float
                and (n.attrs["weight_bits"] is DType.BIN) == binary}

    def assert_fresh(self, toy, model, x):
        """``model.logits(x)`` is bitwise what a model that never cached
        anything computes from the same state dict."""
        fresh = Model(toy, seed=99, dtype=np.float32)
        fresh.load_state_dict(model.state_dict())
        assert model.logits(x).tobytes() == fresh.logits(x).tobytes()

    @pytest.mark.parametrize("writer", [
        "adam_step", "load_state_dict",
        *(f"{how}:{name}" for how in ("data_setter", "view_write", "arena_write")
          for name in ("init_conv.w", "b00_pc1_conv.w", "head_fc.w"))])
    def test_every_arena_writer_is_seen(self, toy, batch, writer):
        model = self.calibrated(toy, batch)
        before = model.logits(batch)
        self.assert_fresh(toy, model, batch)
        if writer == "adam_step":
            model.arena.grad[...] = np.random.default_rng(3).normal(
                size=model.arena.grad.shape)
            cfg = train.TrainConfig()
            train.adam_step(model.arena, train.adam_init(model.arena), 1e-2, cfg)
        elif writer == "load_state_dict":
            model.load_state_dict(self.calibrated(toy, batch, seed=2).state_dict())
        else:
            _negate(model, *writer.split(":")[::-1])
        assert model.logits(batch).tobytes() != before.tobytes()
        self.assert_fresh(toy, model, batch)

    def test_cached_weights_are_read_only(self, toy, batch):
        model = self.calibrated(toy, batch)
        model.logits(batch[:1])
        assert set(model._quantized) == (self.quantized_nodes(toy, binary=True)
                                         | self.quantized_nodes(toy, binary=False))
        for nid, w in model._quantized.items():
            assert not w.flags.writeable, nid
            with pytest.raises(ValueError, match="read-only"):
                w[...] = 0

    def test_weight_bounds_computed_once_per_arena_state(self, toy, batch, monkeypatch):
        model = self.calibrated(toy, batch)
        calls = Counter()
        bounds = quant.weight_channel_bounds

        def counted(w, *args, **kwargs):
            calls["bounds"] += 1
            return bounds(w, *args, **kwargs)

        monkeypatch.setattr(quant, "weight_channel_bounds", counted)
        ints = len(self.quantized_nodes(toy, binary=False))
        assert ints > 0
        model.logits(batch)
        assert calls.pop("bounds") == ints
        model.logits(batch[:1])
        model.logits(batch, training=True)
        assert calls["bounds"] == 0
        model.arena.grad[...] = 1.0
        train.adam_step(model.arena, train.adam_init(model.arena), 1e-3,
                        train.TrainConfig())
        model.logits(batch)
        assert calls.pop("bounds") == ints
        # phase 1 reads no quantized weight, and forward quantizes afresh
        model.logits(batch, phase=1)
        assert calls["bounds"] == 0
        model.forward(batch, training=False, phase=2)
        assert calls.pop("bounds") == ints + len(self.quantized_nodes(toy, binary=True))


def se_model(channels, seed, gated=False):
    """The lowered SE gate on the graph input, optionally applied to it."""
    b = _GraphBuilder("se", (4, 4, channels))
    last = _emit_se(b, "", "in", channels)
    if gated:
        last = b.emit("se_mul", "multiply", ["in", last])
    return Model(b.finish(last), seed=seed)


class TestSEGate:
    @pytest.mark.parametrize("phase", [1, 2])
    def test_zero_input_gate_is_hardsigmoid_of_bias(self, phase):
        model = se_model(8, seed=1)
        b2 = np.linspace(-4, 4, 8)
        model.params["se_fc2.bias"][:] = b2
        gate, _ = model.forward(np.zeros((2, 4, 4, 8)), training=False, phase=phase)
        assert np.allclose(gate[0], np.clip(b2 + 3, 0, 6) / 6)

    def test_gate_in_unit_interval(self):
        model = se_model(16, seed=2)
        x = 5 * np.random.default_rng(2).normal(size=(2, 4, 4, 16))
        for phase in (1, 2):
            gate, _ = model.forward(x, training=False, phase=phase)
            assert np.all(gate >= 0) and np.all(gate <= 1)

    def test_gating_never_amplifies(self):
        model = se_model(8, seed=3, gated=True)
        x = np.random.default_rng(3).normal(size=(2, 4, 4, 8))
        gated = output_of(model, x, training=False, phase=1)
        assert np.all(np.abs(gated) <= np.abs(x) + 1e-12)


def pokeinit_model(input_shape):
    b = _GraphBuilder("pokeinit", input_shape)
    return Model(b.finish(_emit_pokeinit(b)), seed=12)


class TestPokeInit:
    def test_full_scale_shape(self):
        x = np.random.default_rng(12).normal(size=(1, 224, 224, 3))
        out = output_of(pokeinit_model((224, 224, 3)), x, training=False, phase=1)
        assert out.shape == (1, 56, 56, 64)

    def test_toy_scale_shape(self):
        x = np.random.default_rng(13).normal(size=(2, 32, 32, 3))
        out = output_of(pokeinit_model((32, 32, 3)), x, training=True, phase=2)
        assert out.shape == (2, 8, 8, 64)
        assert np.all(np.isfinite(out))


def pokeconv_model(size, in_ch, out_ch, kernel, stride):
    b = _GraphBuilder("pokeconv", (size, size, in_ch))
    last = _emit_pokeconv(b, "", "in", None, (kernel, kernel), out_ch, stride)
    return Model(b.finish(last), seed=7)


class TestPokeConv:
    def test_toy_shape_contract(self):
        x = np.random.default_rng(7).normal(size=(2, 8, 8, 16))
        out = output_of(pokeconv_model(8, 16, 16, 1, 1), x, training=True, phase=1)
        assert out.shape == (2, 8, 8, 16)
        assert np.all(np.isfinite(out))

    def test_stride_halves(self):
        x = np.random.default_rng(8).normal(size=(1, 8, 8, 16))
        out = output_of(pokeconv_model(8, 16, 32, 3, 2), x, training=True, phase=2)
        assert out.shape == (1, 4, 4, 32)

    def test_every_parameter_gets_finite_gradient(self, grad_additions):
        model = pokeconv_model(4, 8, 8, 3, 1)
        added = grad_additions(model)
        x = np.random.default_rng(10).normal(size=(2, 4, 4, 8))
        out, backward = model.forward(x, training=True, phase=2)
        backward(np.ones_like(out))
        # exactly one gradient reaches each parameter
        assert added == dict.fromkeys(model.params, 1)
        for name, g in model.arena.grad_views.items():
            assert np.all(np.isfinite(g)), name


def one_node_model(input_shape, op, **attrs):
    b = _GraphBuilder(op, input_shape)
    return Model(b.finish(b.emit("n", op, ["in"], **attrs)), seed=5)


class TestNonSquarePools:
    # A [3, 1] pool must not run as the square [3, 3] one.
    def test_max_pool_3x1_valid(self):
        model = one_node_model((6, 6, 2), "max_pool", kernel=[3, 1], stride=1,
                               padding="valid")
        x = np.random.default_rng(20).normal(size=(1, 6, 6, 2))
        out = output_of(model, x, training=False)
        assert out.shape[1:] == model.shapes["n"] == (4, 6, 2)
        want = np.stack([x[:, y:y + 3].max(axis=1) for y in range(4)], axis=1)
        assert np.array_equal(out, want)

    def test_avg_pool_3x1_same(self):
        model = one_node_model((6, 6, 2), "avg_pool", kernel=[3, 1], stride=1,
                               padding="same", divisor=Fraction(1, 3))
        x = np.arange(72, dtype=float).reshape(1, 6, 6, 2)
        out = output_of(model, x, training=False)
        assert out.shape[1:] == model.shapes["n"] == (6, 6, 2)
        third_eye = np.broadcast_to(np.eye(2) / 3, (3, 1, 2, 2))
        assert np.allclose(out[0], float_conv2d(x[0], third_eye), rtol=1e-12)


class TestGroupedConv:
    def test_rejected_at_construction(self):
        b = _GraphBuilder("grouped", (4, 4, 8))
        g = b.finish(b.emit("gconv", "conv2d", ["in"], kernel=[3, 3], stride=1,
                            padding="same", out_channels=8, groups=2,
                            act_bits=DType.FP32, weight_bits=DType.FP32))
        assert validate_graph(g) == []
        assert count_macs(g)[0].count == 4 * 4 * 8 * 9 * 4   # costed...
        with pytest.raises(ValueError, match=r"'gconv'.*groups=2"):
            Model(g)                                          # ...not executed


class TestDepthwiseWeightBounds:
    def test_one_bound_per_output_channel(self):
        # Channel (c, m) = (0, 0) spans 0.01; the others reach 100. With one
        # bound per multiplier, (0, 0) and (1, 0) would share a 100 bound and
        # channel (0, 0) would round to zero.
        model = one_node_model((5, 5, 2), "depthwise_conv2d", kernel=[3, 3],
                               stride=1, padding="same", out_channels=4,
                               act_bits=DType.INT8, weight_bits=DType.INT8)
        w = np.random.default_rng(21).uniform(-1, 1, size=(3, 3, 2, 2))
        w[:, :, 0, 0] *= 0.01
        w[:, :, 1, :] *= 100
        model.params["n.w"][...] = w
        bounds = np.abs(w).max(axis=(0, 1))
        wq = quant.fake_quant(w, bounds, 8)
        block = np.zeros((3, 3, 2, 4))
        block[:, :, 0, :2], block[:, :, 1, 2:] = wq[:, :, 0], wq[:, :, 1]
        x = np.random.default_rng(22).normal(size=(1, 5, 5, 2))
        out = output_of(model, x, training=False, phase=2)
        assert np.any(out[..., 0] != 0)
        assert np.allclose(out[0], float_conv2d(x[0], block), rtol=1e-12, atol=1e-12)
