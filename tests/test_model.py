import dataclasses
import functools
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
                             NodeSpec, fused_chains, validate_graph)
from pokebnn.kernels import float_conv2d
from pokebnn.nn import autodiff as ad
from pokebnn.nn import model as model_module
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


def program_steps(graph):
    """``Model.logits``' program steps as ``(node id, input ids)``: each
    chain of ``fused_chains`` is one step at its last node, which reads the
    first node's inputs and every later node's inputs but its first."""
    chains = {ids[-1]: ids for _, ids in fused_chains(graph)}
    inside = {nid for ids in chains.values() for nid in ids[:-1]}
    nodes = {n.id: n for n in graph.nodes}
    return [(n.id, [*nodes[ids[0]].inputs,
                    *(s for nid in ids[1:] for s in nodes[nid].inputs[1:])])
            for n in graph.nodes if n.id not in inside
            for ids in [chains.get(n.id, (n.id,))]]


def binary_input(graph, node):
    """Whether a binary ``quantize_act`` makes ``node``'s first input."""
    src = graph.node(node.inputs[0])
    return src.op == "quantize_act" and src.attrs["act_bits"] is DType.BIN


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
        logits = model.logits(batch, phase=phase)
        assert logits.shape == (4, 10)
        assert np.all(np.isfinite(logits))

    @pytest.mark.parametrize("shape", [(2, 32, 32, 3), (2, 16, 20, 3),
                                       (2, 16, 16, 4)])
    def test_rejects_other_input_shape(self, toy, shape):
        message = f"expects input (16, 16, 3), got {shape[1:]}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Model(toy, seed=1).logits(np.zeros(shape))

    def test_rejects_an_empty_batch(self, toy):
        model = Model(toy, seed=1)
        message = "graph 'pokebnn-toy-0.25x4g' got an empty batch, shape (0, 16, 16, 3)"
        for run in (model.logits, model.forward):
            with pytest.raises(ValueError, match=re.escape(message)):
                run(np.zeros((0, 16, 16, 3)))

    def test_eval_mode_deterministic(self, toy, batch):
        model = Model(toy, seed=1)
        a = model.logits(batch, phase=2)
        b = model.logits(batch, phase=2)
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

    # the ids keep the "False-" of the training flag that logits once took,
    # so that each case keeps its name
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phase", [1, 2], ids=lambda phase: f"False-{phase}")
    def test_logits_equal_forward_and_move_the_same_state(self, toy, batch,
                                                          dtype, phase):
        taped, plain = Model(toy, seed=4, dtype=dtype), Model(toy, seed=4, dtype=dtype)
        initial = plain.state_dict()
        # a fold reorders float arithmetic: the logits are close, not equal
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for _ in range(2):     # the second call reads the cached constants
            want, _ = taped.forward(batch, training=False, phase=phase)
            got = plain.logits(batch, phase=phase)
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
            assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
        state, twin = plain.state_dict(), taped.state_dict()
        assert all(state[k].tobytes() == twin[k].tobytes() for k in twin)
        assert all(np.array_equal(state[k], initial[k]) for k in state)

    def test_logits_records_no_tape(self, toy, batch, monkeypatch):
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
        logits, backward = model.forward(batch, training=False, phase=2,
                                         hooks=[hook])
        # the record holds each float im2col; a binary input's im2col it
        # keeps as an int8 copy, so the float one dies with its step
        convs = [node for node in toy.nodes if node.op == "conv2d"]
        assert alive == [not binary_input(toy, node) for node in convs]
        assert any(alive)
        backward(np.ones_like(logits))
        alive.clear()
        model.logits(batch, phase=2, hooks=[hook])
        assert alive and not any(alive)        # each dies with its step

    def test_float32_stays_float32_at_every_node(self, toy, batch):
        model = Model(toy, seed=1, dtype=np.float32)
        for run, ids in ((model.logits, [nid for nid, _ in program_steps(toy)]),
                         (functools.partial(model.forward, training=False),
                          [n.id for n in toy.nodes])):
            outs = node_outputs(run, batch, phase=2)
            assert list(outs) == ids
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

    def test_wrapping_train_calls_on_the_instance_makes_no_cycle(self, toy):
        # a wrapper that counts train_loop's calls keeps the callable it
        # wraps in the model's own __dict__; a bound method of the model
        # there would free the model only at a full collection
        gc.disable()
        try:
            model, calls = Model(toy, seed=1, dtype=np.float32), Counter()
            for name in ("zero_grad", "freeze_activation_bounds"):
                def counted(original=getattr(model, name), name=name):
                    calls[name] += 1
                    return original()
                setattr(model, name, counted)
            cfg = train.TrainConfig(total_steps=3, phase_switch_step=1, seed=0,
                                    batch_size=8)
            train.train_loop(model, train.make_toy_dataset(n=16, seed=0), cfg)
            assert calls == {"zero_grad": 3, "freeze_activation_bounds": 1}
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
    def test_record_is_freed(self, toy, batch, run):
        saved, model = [], Model(toy, seed=1, dtype=np.float32)
        steps, pullback = model._forward_program(True, 2)

        def watched(fn):
            def step(model, ins, record):
                out, rec = fn(model, ins, record)
                # every array that a record holds but the arena's views: the
                # int8 conv inputs, int16 BN inputs, stand-ins of the quantized
                # weights, DPReLU records, batch means and kept activations
                saved.extend(weakref.ref(a) for a in arrays_in(rec)
                             if not np.shares_memory(a, model.arena.data))
                return out, rec
            return step

        model._forwards[True, 2] = ([(watched(fn), *rest) for fn, *rest in steps],
                                    pullback)
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


def arrays_in(obj):
    """Every array in a record: ``obj`` itself, or the arrays in its tuples
    and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in arrays_in(item)]
    return []


class TestLiveness:
    """``forward`` and ``logits`` drop each value after the step that reads
    it last, and a pullback record keeps only what its VJP reads."""

    # graph ops whose record keeps no buffer of an input (but a 1x1 conv2d of
    # a float input, whose im2col is its input's rows; of a binarized input
    # it keeps an int8 copy): their VJPs read the input only for its shape
    # and dtype, or, for a quantizer, only the mask |x| < B
    SHAPE_ONLY = {"add", "avg_pool", "spatial_mean", "pad_channels", "tile_channels",
                  "avg_channels", "dprelu", "batchnorm", "conv2d", "depthwise_conv2d",
                  "quantize_act"}

    @staticmethod
    def kept_inputs(graph, node, training):
        """The inputs whose values ``node``'s record keeps. In training, a
        multiply of a DPReLU output keeps only its gate: the BN after it
        rebuilds that output (every toy multiply is such a PokeConv tail)."""
        if node.op == "multiply" and training:
            assert graph.node(node.inputs[0]).op == "dprelu"
            return node.inputs[1:]
        if node.op not in TestLiveness.SHAPE_ONLY or (
                node.op == "conv2d" and node.attrs["kernel"] == [1, 1]
                and node.attrs["stride"] == 1 and not binary_input(graph, node)):
            return node.inputs
        return []

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("call", ["logits", "eval", "train"])
    def test_each_value_dies_after_its_last_reader(self, toy, batch, call, phase):
        model = Model(toy, seed=1, dtype=np.float32)
        run = {"logits": model.logits,
               "eval": functools.partial(model.forward, training=False),
               "train": functools.partial(model.forward, training=True)}[call]
        # the steps as (node id, input ids): logits runs its program's
        steps = (program_steps(toy) if call == "logits"
                 else [(node.id, node.inputs) for node in toy.nodes])
        index = {nid: i for i, (nid, _) in enumerate(steps)}
        last = {index[s]: i for i, (_, ins) in enumerate(steps) for s in ins}
        # the outputs a record keeps until the pullback runs
        kept = set() if call == "logits" else {
            index[s] for node in toy.nodes
            for s in self.kept_inputs(toy, node, call == "train")}
        refs, checked = [], Counter()

        def hook(node, out):
            i = len(refs)
            refs.append(weakref.ref(out))
            for j in range(i):
                value = refs[j]()
                if value is None:
                    continue
                # a step that passes its input through shares its value
                holders = [k for k in range(i + 1) if refs[k]() is value]
                assert any(k == i or last.get(k, i) >= i or k in kept
                           for k in holders), \
                    f"{steps[j][0]} is alive at {node.id}"
                checked[j in kept] += 1

        gc.disable()
        try:
            run(batch, phase=phase, hooks=[hook])
        finally:
            gc.enable()
        assert len(refs) == len(steps)
        assert checked[False] and (call == "logits") == (not checked[True])

    @pytest.mark.parametrize("training", [False, True])
    def test_shape_only_records_hold_no_input_buffer(self, toy, batch, training):
        model = Model(toy, seed=1, dtype=np.float32)
        record, outs = program_record(model, batch, training, 2)
        checked = set()
        for node, rec in zip(toy.nodes, record):
            kept = self.kept_inputs(toy, node, training)
            if rec is None or kept == node.inputs:
                continue
            dropped = [s for s in node.inputs if s not in kept]
            for a in arrays_in(rec):
                assert not any(np.shares_memory(a, outs[s]) for s in dropped), \
                    f"the record of {node.id} holds an input's buffer"
            # a dropped input's place in the record holds zero bytes of zeros
            for a, s in zip(rec[2], node.inputs):
                if s in dropped:
                    assert a.shape == outs[s].shape and a.dtype == outs[s].dtype
                    assert a.strides == (0,) * a.ndim and not a.any()
            checked.add(node.op)
        assert checked == self.SHAPE_ONLY | ({"multiply"} if training else set())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("quantizer", ["binarize", "fake_quant"])
    def test_mask_record_gradient_equals_the_ste(self, dtype, quantizer):
        rng = np.random.default_rng(7)
        bound = np.float64(1.5)
        x = (rng.normal(size=(4, 5, 5, 8)) * 2).astype(dtype)
        x[0, 0, 0, :4] = [bound, -bound, np.nan, -0.0]
        g = rng.normal(size=x.shape).astype(dtype)
        g[0, 0, 1, :2] = [np.inf, np.nan]
        attrs = (4,) if quantizer == "fake_quant" else ()
        out, (vjp, saved, call, ste) = model_module._ste_step(
            getattr(ad, f"_{quantizer}"), x, bound, *attrs)
        assert saved.dtype == bool and not np.shares_memory(call[0], x)
        got = vjp(g, saved, None, *call)[0]
        want = ad._ste_vjp(g, None, None, x, bound, *attrs)[0]
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_shape_only_vjps_read_no_input_value(self):
        # each op of ad.SHAPE_ONLY: its inputs, then the rest of its arguments
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(2, 5, 5, 4)), rng.normal(size=(2, 5, 5, 4))
        c = [rng.normal(size=4) for _ in range(4)]
        cases = {
            "add": ((x, y), ()),
            "dprelu": ((x,), tuple(c)),
            "conv2d": ((x,), (rng.normal(size=(3, 3, 4, 6)), 2, "same")),
            "depthwise_conv2d": ((x,), (rng.normal(size=(3, 3, 4, 2)), 1, "same")),
            "avg_pool": ((x,), ((3, 3), 2, "same")),
            "max_pool": ((x,), ((3, 2), 1, "valid")),
            "spatial_mean": ((x,), ()),
            "pad_channels": ((x,), (7,)),
            "tile_channels": ((x,), (7,)),
            "avg_channels": ((x,), (2,)),
            "batchnorm_train": ((x,), tuple(c[:2])),
            "batchnorm_eval": ((x,), (c[0], c[1], c[2], np.abs(c[3]))),
        }
        assert set(cases) == ad.SHAPE_ONLY
        for name, (ins, rest) in cases.items():
            forward, vjp = getattr(ad, f"_{name}"), getattr(ad, f"_{name}_vjp")
            out, saved = forward(*ins, *rest)
            out = out[0] if type(out) is tuple else out
            g = rng.normal(size=out.shape)
            needs = [True] * (len(ins) + len(rest))
            want = vjp(g, saved, needs, *ins, *rest)
            got = vjp(g, saved, needs, *map(model_module._stand_in, ins), *rest)
            assert [bits(a) for a in got] == [bits(a) for a in want], name


def conv_records(graph, record):
    """Each conv2d step's ``(node, kept, weight)`` in a plan's record: what
    the record keeps of its input (the int8 input, or the float im2col), and
    the weight in its call."""
    out = []
    for node, rec in zip(graph.nodes, record):
        if node.op == "conv2d":
            # a narrowed record saves (the conv's saved tuple, its STE entry)
            saved = rec[1][0] if isinstance(rec[1][0], tuple) else rec[1]
            out.append((node, saved[0], rec[2][1]))
    return out


def is_stand_in(a):
    """Whether ``a`` is a stand-in: zeros with no buffer of its own."""
    return a.strides == (0,) * a.ndim and np.shares_memory(a, model_module._ZEROS)


def program_record(model, x, training, phase):
    """The record, by step, and every node's output of one run of the steps
    of ``forward``'s program for ``(training, phase)``."""
    values, record, outs = model._slots(x, phase), [None] * len(model.graph.nodes), {}
    for i, (run, slots, node, _) in enumerate(model._forward_program(training, phase)[0]):
        values[i], record[i] = run(model, [values[s] for s in slots], record)
        outs[node.id] = values[i]
    return record, outs


def training_record(model, x, phase):
    """A training forward's record, by step, and every node's output."""
    return program_record(model, x, True, phase)


def shifted_model(g, seed, dtype):
    """A model of ``g`` whose every parameter and BN running statistic is
    moved off its initial value, as training moves it: DPReLU's beta is then
    no longer 0, for example."""
    model = Model(g, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    data = model.arena.writable()
    data += rng.normal(0.0, 0.1, size=data.size).astype(dtype)
    for stats in model.bn_stats.values():
        shift = rng.normal(0.0, 0.1, size=(2, stats["mean"].size)).astype(dtype)
        stats["mean"] = stats["mean"] + shift[0]
        stats["var"] = stats["var"] * np.exp(shift[1])
    return model


def assert_gradients_equal_the_tape(g, x, phase, seed=5, training=True):
    """A pullback of ``g`` on ``x``, with shifted parameters, in training or
    eval mode, gives the tape's bytes."""
    model, twin = shifted_model(g, seed, x.dtype), shifted_model(g, seed, x.dtype)
    grad = np.random.default_rng(seed).normal(size=(len(x), 10))
    want_logits, want = tape_grads(twin, x, grad, training, phase)
    logits, backward = model.forward(x, training=training, phase=phase)
    backward(grad)
    assert logits.tobytes() == want_logits.tobytes()
    assert model.arena.grad.tobytes() == want.tobytes()


class TestNarrowRecord:
    """A training record keeps only what its VJP cannot rebuild exactly: a
    binarized conv input as int8, a BIN x BIN conv's integer output as
    int16 in the BN after it, DPReLU's sign mask as bool, and no quantized
    weight and no DPReLU output of a PokeConv tail; the VJPs rebuild the
    rest by the forward's own code, so no gradient changes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_binary_convs_keep_int8(self, toy, batch, phase, dtype):
        model = Model(toy, seed=1, dtype=dtype)
        record, outs = training_record(model, batch, phase)
        kinds = Counter()
        for node, kept, w in conv_records(toy, record):
            x = outs[node.inputs[0]]
            if binary_input(toy, node):
                # the binarized input itself, exactly
                assert kept.dtype == np.int8 and kept.shape == x.shape
                assert kept.astype(dtype).tobytes() == x.tobytes()
            else:
                _, (cols, _) = ad._conv2d(x, model.params[f"{node.id}.w"],
                                          node.attrs["stride"], node.attrs["padding"])
                assert kept.tobytes() == cols.tobytes()
            # phase 1 reads the arena's weight; a quantized one is not kept
            if phase == 2:
                assert is_stand_in(w) and w.dtype == dtype
            else:
                assert w is model.params[f"{node.id}.w"]
            kinds[kept.dtype.name] += 1
        # every conv but the stem's reads a binarized input
        convs = sum(kinds.values())
        assert kinds == {np.dtype(dtype).name: 1, "int8": convs - 1}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_bn_after_a_binary_conv_keeps_its_integer_input(self, toy, batch, phase,
                                                            dtype):
        model = Model(toy, seed=1, dtype=dtype)
        record, outs = training_record(model, batch, phase)
        kinds = Counter()
        for node, rec in zip(toy.nodes, record):
            conv = toy.node(node.inputs[0]) if node.op == "batchnorm" else None
            if conv is None or conv.op != "conv2d":
                continue
            x = outs[conv.id]
            params = [model.params[f"{node.id}.{k}"] for k in ("scale", "bias")]
            (_, mean, _), (centered, inv) = ad._batchnorm_train(x, *params)
            if phase == 2 and binary_input(toy, conv):
                kept, got_mean, got_inv = rec[1]
                assert kept.dtype == np.int16
                assert kept.astype(dtype).tobytes() == x.tobytes()
                assert got_mean.tobytes() == mean.tobytes()
            else:
                got, got_inv = rec[1]
                assert got.tobytes() == centered.tobytes()
            assert got_inv.tobytes() == inv.tobytes()
            kinds[rec[1][0].dtype.name] += 1
        # the stem's BN, after an int8 conv, keeps its float record
        wide, bns = np.dtype(dtype).name, sum(kinds.values())
        assert kinds == ({wide: 1, "int16": bns - 1} if phase == 2 else {wide: bns})

    def test_quantized_weights_are_not_kept(self, toy, batch):
        model = Model(toy, seed=1, dtype=np.float32)
        record, _ = training_record(model, batch, 2)
        ops = Counter()
        for node, rec in zip(toy.nodes, record):
            if node.op not in WEIGHT_OPS:
                continue
            w = model.params[f"{node.id}.w"]
            # a stand-in in the call; the STE entry holds the arena's weight
            assert is_stand_in(rec[2][1]) and rec[3][0] is w
            _, kept = rec[1]
            if node.attrs["weight_bits"] is DType.BIN:
                assert kept is w        # rebuilt by one sign pass
            else:
                codes, down = kept      # rebuilt by one multiply
                want = ad._fake_quant(w, rec[3][1], node.attrs["weight_bits"].bits)[0]
                assert codes.dtype == np.int8 and np.array_equal(codes * down, want)
            ops[node.op, node.attrs["weight_bits"]] += 1
        assert set(ops) == {("conv2d", DType.BIN), ("conv2d", DType.INT8),
                            ("depthwise_conv2d", DType.INT8), ("dense", DType.INT4),
                            ("dense", DType.INT8)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_rebuilt_records_give_the_tapes_gradients(self, toy, batch, phase, dtype):
        assert_gradients_equal_the_tape(toy, batch.astype(dtype), phase)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_eval_records_give_the_tapes_gradients(self, toy, batch, phase, dtype):
        # the eval-mode pullback, which gradcheck differentiates, with DPReLU's
        # alpha and beta and the BN running statistics off their initial values
        assert_gradients_equal_the_tape(toy, batch.astype(dtype), phase, training=False)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_int_weight_codes_lose_only_the_sign_of_zero(self, dtype):
        # every weight from input channel 0 of the int4 dense layer is
        # negative and below half a grid step: each quantizes to -0.0
        conv = dict(kernel=[1, 1], stride=1, padding="same", groups=1,
                    act_bits=DType.FP32, weight_bits=DType.FP32)
        b = _GraphBuilder("codes", (1, 1, 6))
        x = b.emit("c", "conv2d", ["in"], out_channels=6, **conv)
        g = b.finish(b.emit("fc", "dense", [x], out_channels=10, act_bits=DType.INT4,
                            weight_bits=DType.INT4))

        def build():
            m = Model(g, seed=5, dtype=dtype)
            m.arena.writable()[m.arena.spans["fc.w"]][:10] = -1e-4
            return m
        x = np.random.default_rng(6).normal(size=(3, 1, 1, 6)).astype(dtype)
        record, _ = training_record(build(), x, 2)
        (_, (codes, down)), _, (w, bounds) = record[2][1:]
        wq = ad._fake_quant(w, bounds, 4)[0]
        assert np.signbit(wq[0]).all() and not wq[0].any()
        rebuilt = codes.astype(dtype) * down
        assert codes.dtype == np.int8 and np.array_equal(rebuilt, wq)
        assert not np.signbit(rebuilt[0]).any()
        # the gradients, which reach the conv through that row, are the
        # tape's; a positive output gradient makes each of the row's terms
        # in the tape -0.0, and +0.0 with the rebuilt weight
        model, twin = build(), build()
        grad = np.abs(np.random.default_rng(5).normal(size=(len(x), 10)))
        want_logits, want = tape_grads(twin, x, grad, True, 2)
        logits, backward = model.forward(x, training=True, phase=2)
        backward(grad)
        assert logits.tobytes() == want_logits.tobytes()
        assert model.arena.grad.tobytes() == want.tobytes()

    def test_dprelu_record_holds_no_slope(self, toy, batch):
        model = Model(toy, seed=1, dtype=np.float32)
        record, outs = training_record(model, batch, 2)
        acts = [(node, rec[1]) for node, rec in zip(toy.nodes, record) if node.op == "dprelu"]
        assert acts
        for node, saved in acts:
            shifted, pos = saved
            want = outs[node.inputs[0]] - model.params[f"{node.id}.alpha"]
            assert shifted.tobytes() == want.tobytes()
            assert pos.dtype == bool and np.array_equal(pos, want > 0)

    @pytest.mark.parametrize("phase", [1, 2])
    def test_tail_keeps_no_dprelu_output(self, toy, batch, phase):
        model = Model(toy, seed=1, dtype=np.float32)
        record, outs = training_record(model, batch, phase)
        recs = dict(zip([node.id for node in toy.nodes], record))
        muls = [node for node in toy.nodes if node.op == "multiply"]
        assert muls
        for mul in muls:
            act, gate = mul.inputs
            bn = next(node for node in toy.nodes if node.inputs == [mul.id])
            # the multiply keeps the gate, a stand-in of the DPReLU output and
            # the list into which the BN's VJP puts that output, rebuilt
            _, cell, (a, g), _ = recs[mul.id]
            assert cell == [] and g is outs[gate]
            assert is_stand_in(a) and a.shape == outs[act].shape
            # the BN keeps the DPReLU's and the multiply's lists, the gate and
            # its batch mean, and rebuilds its input from them
            (saved, kept_cell, kept_gate), mean, _ = recs[bn.id][1]
            assert saved is recs[act][1] and kept_cell is cell and kept_gate is g
            params = [model.params[f"{bn.id}.{k}"] for k in ("scale", "bias")]
            assert mean.tobytes() == ad._batchnorm_train(outs[mul.id], *params)[0][1].tobytes()
            assert not any(np.shares_memory(x, outs[act]) for rec in record
                           for x in arrays_in(rec))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_narrowing_follows_the_producer_not_the_label(self, dtype, phase):
        # c1 is labelled binary but reads the float batch; c2 is labelled
        # float but reads a binarized value
        conv = dict(kernel=[3, 3], stride=1, padding="same", groups=1,
                    weight_bits=DType.FP32)
        b = _GraphBuilder("labels", (5, 5, 3))
        x = b.emit("c1", "conv2d", ["in"], out_channels=6, act_bits=DType.BIN, **conv)
        x = b.emit("q", "quantize_act", [x], act_bits=DType.BIN)
        x = b.emit("c2", "conv2d", [x], out_channels=10, act_bits=DType.FP32, **conv)
        g = b.finish(b.emit("pool", "spatial_mean", [x]))
        x = np.random.default_rng(6).normal(size=(3, 5, 5, 3)).astype(dtype)
        record, _ = training_record(Model(g, seed=5, dtype=dtype), x, phase)
        assert [(node.id, cols.dtype, w.dtype) for node, cols, w in conv_records(g, record)] \
            == [("c1", dtype, dtype), ("c2", np.int8, dtype)]
        assert_gradients_equal_the_tape(g, x, phase)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bn_of_a_conv_labelled_binary_stays_float(self, dtype):
        # c1 is labelled BIN x BIN but reads the float batch, so its output is
        # no integer; c2 reads a binarized value with binary weights
        conv = dict(kernel=[3, 3], stride=1, padding="same", groups=1,
                    act_bits=DType.BIN, weight_bits=DType.BIN)
        b = _GraphBuilder("labels", (5, 5, 3))
        x = b.emit("bn1", "batchnorm", [b.emit("c1", "conv2d", ["in"], out_channels=6,
                                                **conv)])
        x = b.emit("q", "quantize_act", [x], act_bits=DType.BIN)
        x = b.emit("bn2", "batchnorm", [b.emit("c2", "conv2d", [x], out_channels=10,
                                                **conv)])
        g = b.finish(b.emit("pool", "spatial_mean", [x]))
        x = np.random.default_rng(6).normal(size=(3, 5, 5, 3)).astype(dtype)
        record, _ = training_record(Model(g, seed=5, dtype=dtype), x, 2)
        assert [rec[1][0].dtype for node, rec in zip(g.nodes, record)
                if node.op == "batchnorm"] == [dtype, np.int16]
        assert_gradients_equal_the_tape(g, x, 2)

    def test_wide_binary_conv_keeps_int32(self):
        # kh·kw·C = 9·3641 = 32,769 is more than int16 holds
        conv = dict(kernel=[3, 3], stride=1, padding="same", groups=1,
                    act_bits=DType.BIN, weight_bits=DType.BIN)
        b = _GraphBuilder("wide", (2, 2, 3641))
        x = b.emit("q", "quantize_act", ["in"], act_bits=DType.BIN)
        x = b.emit("bn", "batchnorm", [b.emit("c", "conv2d", [x], out_channels=10, **conv)])
        g = b.finish(b.emit("pool", "spatial_mean", [x]))
        x = np.random.default_rng(6).normal(size=(2, 2, 2, 3641)).astype(np.float32)
        record, outs = training_record(Model(g, seed=5, dtype=np.float32), x, 2)
        kept = record[[node.id for node in g.nodes].index("bn")][1][0]
        assert kept.dtype == np.int32 and kept.astype(np.float32).tobytes() == outs["c"].tobytes()
        assert_gradients_equal_the_tape(g, x, 2)

    @pytest.mark.parametrize("act", ["dprelu", "relu", "dprelu-read-twice"])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_only_a_tail_multiply_drops_its_input(self, act, phase):
        # act -> multiply by an SE-like gate -> batchnorm; the multiply drops
        # the activation only if that is a DPReLU that nothing else reads
        conv = dict(kernel=[1, 1], stride=1, padding="same", groups=1,
                    act_bits=DType.FP32, weight_bits=DType.FP32)
        b = _GraphBuilder("gated", (4, 4, 3))
        x = b.emit("c", "conv2d", ["in"], out_channels=10, **conv)
        a = b.emit("act", act.split("-")[0], [x])
        gate = b.emit("gate", "hardsigmoid", [b.emit("mean", "spatial_mean", [x])])
        x = b.emit("bn", "batchnorm", [b.emit("mul", "multiply", [a, gate])])
        if act == "dprelu-read-twice":
            x = b.emit("add", "add", [x, a])
        g = b.finish(b.emit("pool", "spatial_mean", [x]))
        x = np.random.default_rng(6).normal(size=(3, 4, 4, 3))
        record, outs = training_record(Model(g, seed=5), x, phase)
        kept = record[[node.id for node in g.nodes].index("mul")][2][0]
        assert is_stand_in(kept) == (act == "dprelu")
        assert is_stand_in(kept) or kept is outs["act"]
        assert_gradients_equal_the_tape(g, x, phase)


def bits(a):
    return None if a is None else (a.dtype, a.shape, np.ascontiguousarray(a).tobytes())


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

    @pytest.mark.parametrize("phase", [0, 3])
    def test_forward_rejects_a_phase_but_1_and_2(self, toy, batch, phase):
        model = Model(toy, seed=1)
        with pytest.raises(ValueError, match=f"^phase must be 1 or 2, got {phase}$"):
            model.forward(batch, phase=phase)
        assert not model._forwards

    @pytest.mark.parametrize("phase", [0, 7])
    def test_logits_rejects_a_phase_but_1_and_2(self, toy, batch, phase):
        model = Model(toy, seed=1)
        with pytest.raises(ValueError, match=f"^phase must be 1 or 2, got {phase}$"):
            model.logits(batch, phase=phase)
        assert not model._programs

    def test_forward_binds_once_per_mode(self, toy, batch):
        model = Model(toy, seed=1, dtype=np.float32)
        model.forward(batch, training=True, phase=1)
        program = model._forwards[True, 1]
        # the same mode reuses the program, whatever the batch or the state
        model.freeze_activation_bounds()
        model.forward(batch[:1], training=1, phase=1)
        assert model._forwards[True, 1] is program
        model.forward(batch, training=False, phase=1)
        assert list(model._forwards) == [(True, 1), (False, 1)]


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
        want = model.logits(batch, phase=2)
        path = tmp_path / "model.ckpt"
        save_tensors(path, model.state_dict())
        fresh = Model(toy, seed=99)
        fresh.load_state_dict(load_tensors(path))
        assert np.array_equal(fresh.logits(batch, phase=2), want)

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
        arena.writable()[:] = 0.5
        assert all(np.all(v == 0.5) for v in model.params.values())

    def test_only_the_writer_changes_a_value(self, toy, batch):
        model = Model(toy, seed=1, dtype=np.float32)
        arena, name = model.arena, "init_conv.w"
        span, value = arena.spans[name], np.zeros(model.params[name].shape)
        before, version, want = arena.data.tobytes(), arena.version, model.logits(batch)
        with pytest.raises(ValueError, match="read-only"):
            model.params[name][...] = value
        with pytest.raises(ValueError, match="read-only"):
            model.params[name] *= -1
        with pytest.raises(ValueError, match="read-only"):
            arena.data[span] = value.ravel()
        with pytest.raises(ValueError, match="read-only"):
            arena.views[name][...] = value
        assert arena.data.tobytes() == before and arena.version == version
        assert model.logits(batch).tobytes() == want.tobytes()
        arena.writable()
        assert arena.version == version + 1

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
            # and every parameter: the weights drawn in node order, one rng
            rng, ops = np.random.default_rng(3), {n.id: n.op for n in toy.nodes}
            for name, value in model.params.items():
                nid, key = name.rsplit(".", 1)
                if key == "w":
                    gain = 1.0 if ops[nid] == "dense" else 2.0
                    fan_in = value.size // model.shapes[nid][2]
                    want = rng.normal(0.0, (gain / fan_in) ** 0.5, size=value.shape)
                else:
                    want = np.full(value.shape, model_module._INIT_VALUES.get(key, 0.0))
                assert value.tobytes() == want.astype(dtype).tobytes(), name

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
        model.load_state_dict({**model.state_dict(), "init_conv.w": new})
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
            model.arena.writable()[model.arena.spans["init_conv.w"]] = np.zeros(2)
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

    def test_load_copies_running_stats_and_bounds(self, toy, batch):
        model = Model(toy, seed=1, dtype=np.float32)
        model.forward(batch, training=True, phase=1)
        model.freeze_activation_bounds()
        state = model.state_dict()
        fresh = Model(toy, seed=7, dtype=np.float32)
        fresh.load_state_dict(state)
        want = fresh.logits(batch)
        # writes to the loaded dict's arrays reach neither the model nor
        # the constants its logits cached
        state[next(iter(fresh.bn_stats)) + ".running_mean"][...] += 5
        state[next(iter(fresh.bounds)) + ".bound"][...] *= 2
        assert fresh.logits(batch).tobytes() == want.tobytes()
        assert fresh.logits(batch).tobytes() == model.logits(batch).tobytes()

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
    """Negates parameter ``name`` of ``model`` through ``arena.writable()``:
    ``data_setter`` assigns a whole new value, ``view_write`` multiplies in
    place through a view in the parameter's shape, ``arena_write``
    multiplies the flat span in place."""
    span, data = model.arena.spans[name], model.arena.writable()
    if how == "data_setter":
        data[span] = -model.params[name].ravel()
    elif how == "view_write":
        view = data[span].reshape(model.params[name].shape)
        view *= -1
    else:
        data[span] *= -1


class TestQuantizedWeightCache:
    """``logits`` computes each per-state constant once: the quantized
    weights, the eval BN factors and the frozen quantizers' scales."""

    @staticmethod
    def calibrated(toy, batch, seed=1, freeze=True):
        model = Model(toy, seed=seed, dtype=np.float32)
        model.forward(batch, training=True, phase=1)
        if freeze:
            model.freeze_activation_bounds()
        return model

    @staticmethod
    def quantized_nodes(toy, binary):
        return {n.id for n in toy.nodes if n.op in WEIGHT_OPS
                and not n.attrs["weight_bits"].is_float
                and (n.attrs["weight_bits"] is DType.BIN) == binary}

    def assert_fresh(self, toy, model, x, phase=2):
        """``model.logits(x, phase=phase)`` is bitwise what a model that never
        cached anything computes from the same state dict."""
        fresh = Model(toy, seed=99, dtype=np.float32)
        fresh.load_state_dict(model.state_dict())
        assert (model.logits(x, phase=phase).tobytes()
                == fresh.logits(x, phase=phase).tobytes())

    def write(self, toy, batch, model, writer):
        """Changes ``model``'s state through ``writer``."""
        if writer == "adam_step":
            model.arena.grad[...] = np.random.default_rng(3).normal(
                size=model.arena.grad.shape)
            cfg = train.TrainConfig()
            train.adam_step(model.arena, train.adam_init(model.arena), 1e-2, cfg)
        elif writer == "load_state_dict":
            model.load_state_dict(self.calibrated(toy, batch, seed=2).state_dict())
        elif writer.startswith("load_state_dict:"):
            # the arena's bytes stay; only the statistics or the bounds move
            suffix = {"stats": "running_mean", "bounds": ".bound"}[writer[16:]]
            state = model.state_dict()
            model.load_state_dict({k: v * 1.5 + 0.25 if k.endswith(suffix) else v
                                   for k, v in state.items()})
        elif writer == "train_forward":
            model.forward(batch, training=True, phase=2)
        elif writer == "freeze_after_phase1":
            model.forward(batch[:2], training=True, phase=1)
            model.freeze_activation_bounds()
        else:
            _negate(model, *writer.split(":")[::-1])

    @pytest.mark.parametrize("writer", [
        "adam_step", "load_state_dict",
        *(f"{how}:{name}" for how in ("data_setter", "view_write", "arena_write")
          for name in ("init_conv.w", "b00_pc1_conv.w", "head_fc.w")),
        "view_write:init_bn1.scale", "load_state_dict:stats",
        "load_state_dict:bounds", "train_forward", "freeze_after_phase1"])
    def test_every_arena_writer_is_seen(self, toy, batch, writer):
        # the last writer starts from unfrozen bounds, whose scales logits
        # caches as well
        model = self.calibrated(toy, batch, freeze=writer != "freeze_after_phase1")
        before = model.logits(batch)
        self.assert_fresh(toy, model, batch)
        self.write(toy, batch, model, writer)
        assert model.logits(batch).tobytes() != before.tobytes()
        self.assert_fresh(toy, model, batch)

    @pytest.mark.parametrize("writer", ["view_write:init_bn1.scale",
                                        "load_state_dict:stats", "train_forward"])
    def test_phase1_eval_sees_every_writer(self, toy, batch, writer):
        # eval BN reads cached factors in phase 1 too, so the version check runs
        model = self.calibrated(toy, batch)
        before = model.logits(batch, phase=1)
        self.write(toy, batch, model, writer)
        assert model.logits(batch, phase=1).tobytes() != before.tobytes()
        self.assert_fresh(toy, model, batch, phase=1)

    def test_running_stats_and_bounds_change_only_by_reassignment(self, toy, batch):
        model = Model(toy, seed=1, dtype=np.float32)
        for step in (lambda: None,
                     lambda: model.forward(batch, training=True, phase=1),
                     lambda: model.load_state_dict(model.state_dict())):
            step()
            for stats in model.bn_stats.values():
                for a in stats.values():
                    with pytest.raises(ValueError, match="read-only"):
                        a[...] = 0
        state = next(iter(model.bounds.values()))
        with pytest.raises(ValueError, match="read-only"):
            state.bound[...] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.bound = np.float64(2.0)

    def test_cached_weights_are_read_only(self, toy, batch):
        model = self.calibrated(toy, batch)
        model.logits(batch[:1])
        ops = {n.id: n.op for n in toy.nodes}
        weights = {nid: entry[1] for nid, entry in model._constants.items()
                   if ops[nid] in WEIGHT_OPS}
        assert set(weights) == (self.quantized_nodes(toy, binary=True)
                                | self.quantized_nodes(toy, binary=False))
        # and one entry per BN step and 4/8-bit quantizer
        assert set(model._constants) - set(weights) == (
            {nid for nid, op in ops.items() if op == "batchnorm"} | set(model.bounds))
        # an SE gate's entries hold its weights and biases with the scales
        # folded in, in place of the quantized weights
        for nid, entry in weights.items():
            for w in arrays_in(entry):
                assert not w.flags.writeable, nid
                with pytest.raises(ValueError, match="read-only"):
                    w[...] = 0

    def test_bn_factors_and_scales_computed_once_per_state(self, toy, batch,
                                                           monkeypatch):
        model = self.calibrated(toy, batch)
        calls = Counter()
        for module, name in ((ad, "_batchnorm_eval_constants"),
                             (quant, "fake_quant_scales")):
            def counted(*args, _f=getattr(module, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(module, name, counted)
        bns = sum(n.op == "batchnorm" for n in toy.nodes)
        scales = len(model.bounds) + len(self.quantized_nodes(toy, binary=False))
        model.logits(batch)
        assert calls == {"_batchnorm_eval_constants": bns, "fake_quant_scales": scales}
        calls.clear()
        model.logits(batch[:1])
        model.logits(batch)
        assert not calls
        # a training step moves the statistics, not the frozen bounds
        model.forward(batch, training=True, phase=1)
        model.logits(batch)
        assert calls == {"_batchnorm_eval_constants": bns}
        calls.clear()
        # forward computes every constant afresh for its gradient
        model.forward(batch, training=False, phase=2)
        assert calls == {"_batchnorm_eval_constants": bns, "fake_quant_scales": scales}

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
        model.forward(batch, training=True, phase=1)    # moves only the statistics
        model.logits(batch)
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

    @pytest.mark.parametrize("entry", ["stats_array", "stats_dict", "bound"])
    def test_program_sees_a_reassigned_entry(self, toy, batch, entry):
        model = self.calibrated(toy, batch)
        before = model.logits(batch)
        bn = next(n.id for n in toy.nodes if n.op == "batchnorm")
        stats = model.bn_stats[bn]
        if entry == "stats_array":
            stats["mean"] = stats["mean"] + 0.5
        elif entry == "stats_dict":
            model.bn_stats[bn] = {"mean": stats["mean"] + 0.5, "var": stats["var"]}
        else:
            nid, state = next(iter(model.bounds.items()))
            model.bounds[nid] = dataclasses.replace(state, bound=state.bound * 0.5)
        assert model.logits(batch).tobytes() != before.tobytes()
        self.assert_fresh(toy, model, batch)

    def test_repeated_call_binds_nothing(self, toy, batch, monkeypatch):
        model = self.calibrated(toy, batch)
        calls = Counter()

        def counted(*args, _f=model_module._cached):
            calls["cached"] += 1
            return _f(*args)

        monkeypatch.setattr(model_module, "_cached", counted)
        model.logits(batch)
        assert calls.pop("cached") > 0
        for x in (batch[:1], batch, batch[1:3]):
            model.logits(x)
        assert not calls

    @staticmethod
    def eval_steps(model, x, phase):
        """Each program step's output in one ``logits`` call, by node id, and
        its input ids; the batch is the input "" of the input node."""
        outs = node_outputs(functools.partial(model.logits, phase=phase), x)
        outs[""] = np.asarray(x, dtype=model.dtype)
        return outs, {nid: ins or [""] for nid, ins in program_steps(model.graph)}

    @staticmethod
    def forward_step(model, nid, ins, phase):
        """Node ``nid``'s output from ``forward``'s step in eval mode."""
        steps = model._forward_program(False, phase)[0]
        run = next(run for run, _, node, _ in steps if node.id == nid)
        return run(model, ins, [])[0]

    @pytest.mark.parametrize("phase", [1, 2])
    def test_hooks_see_every_step_once_in_plan_order(self, toy, batch, phase):
        model = self.calibrated(toy, batch)
        plain = model.logits(batch, phase=phase)
        seen, ids = [], []
        model.logits(batch, phase=phase, hooks=[
            lambda node, out: seen.append((node.id, out.tobytes())),
            lambda node, out: ids.append(node.id)])
        # a folded chain reports once, under its last node
        assert [nid for nid, _ in seen] == ids == [nid for nid, _ in program_steps(toy)]
        # every other step is bitwise forward's on the same inputs
        outs, reads = self.eval_steps(model, batch, phase)
        folded = {ids[-1] for _, ids in fused_chains(toy)}
        for nid, out in seen:
            if nid not in folded:
                want = self.forward_step(model, nid, [outs[s] for s in reads[nid]], phase)
                assert out == want.tobytes(), nid
        assert seen[-1][1] == plain.tobytes()
        assert model.logits(batch, phase=phase).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_each_fold_is_close_to_its_chain(self, toy, batch, dtype, phase):
        # a folded step against forward's steps of its chain, in eval mode,
        # on the same inputs: equal but for float rounding
        model = Model(toy, seed=1, dtype=dtype)
        model.forward(batch, training=True, phase=1)
        model.freeze_activation_bounds()
        outs, reads = self.eval_steps(model, batch, phase)
        nodes = {n.id: n for n in toy.nodes}
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for fusion, ids in fused_chains(toy):
            ins = [outs[s] for s in reads[ids[-1]]]
            want = self.forward_step(model, ids[0], ins[:len(nodes[ids[0]].inputs)], phase)
            ins = ins[len(nodes[ids[0]].inputs):]
            for nid in ids[1:]:
                extra = len(nodes[nid].inputs) - 1
                want = self.forward_step(model, nid, [want, *ins[:extra]], phase)
                ins = ins[extra:]
            got = outs[ids[-1]]
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol, err_msg=ids[-1])

    def test_switching_phases_equals_a_fresh_model(self, toy, batch):
        model = self.calibrated(toy, batch)
        for phase in (2, 1, 2, 1, 1, 2):
            self.assert_fresh(toy, model, batch, phase=phase)

    def test_tail_whose_gate_widens_it_stays_unfolded(self):
        # a tail on a pooled [1, 1, C] value, gated by the [4, 4, C] input:
        # its output outgrows its input, so its steps run one by one
        b = _GraphBuilder("wide-gate", (4, 4, 8))
        x = b.emit("bn1", "batchnorm", [b.emit("mean", "spatial_mean", ["in"])])
        x = b.emit("act", "dprelu", [b.emit("add", "add", [x, "mean"])])
        g = b.finish(b.emit("bn2", "batchnorm", [b.emit("mul", "multiply", [x, "in"])]))
        assert [f.name for f, _ in fused_chains(g)] == ["pokeconv_tail"]
        model = Model(g, seed=1)
        x = np.random.default_rng(9).normal(size=(2, 4, 4, 8))
        outs = node_outputs(model.logits, x)
        assert list(outs) == [n.id for n in g.nodes]
        assert outs["out"].tobytes() == output_of(model, x, training=False).tobytes()


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
        model.load_state_dict({**model.state_dict(), "se_fc2.bias": b2})
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
        model.load_state_dict({**model.state_dict(), "n.w": w})
        bounds = np.abs(w).max(axis=(0, 1))
        wq = quant.fake_quant(w, bounds, 8)
        block = np.zeros((3, 3, 2, 4))
        block[:, :, 0, :2], block[:, :, 1, 2:] = wq[:, :, 0], wq[:, :, 1]
        x = np.random.default_rng(22).normal(size=(1, 5, 5, 2))
        out = output_of(model, x, training=False, phase=2)
        assert np.any(out[..., 0] != 0)
        assert np.allclose(out[0], float_conv2d(x[0], block), rtol=1e-12, atol=1e-12)
