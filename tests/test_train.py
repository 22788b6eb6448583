import numpy as np
import pytest

from pokebnn import train as T
from pokebnn.builders import build_pokebnn_toy
from pokebnn.nn import autodiff as ad
from pokebnn.nn.model import Model, ParamArena


def small_model(seed=1):
    g = build_pokebnn_toy(m=0.125, groups=2, input_shape=(16, 16, 3))
    return Model(g, seed=seed, dtype=np.float32)


def small_dataset(n=64, seed=0):
    return T.make_toy_dataset(n=n, classes=10, shape=(16, 16, 3), seed=seed)


class TestLrSchedule:
    def test_default_initial_value(self):
        cfg = T.TrainConfig(total_steps=100)
        assert T.lr_at(0, cfg) == 6.4e-4

    def test_reaches_zero(self):
        cfg = T.TrainConfig(total_steps=100)
        assert T.lr_at(100, cfg) == 0.0

    def test_halfway(self):
        cfg = T.TrainConfig(total_steps=100, base_lr=1.0)
        assert T.lr_at(50, cfg) == pytest.approx(0.5)

    def test_out_of_range(self):
        cfg = T.TrainConfig(total_steps=100)
        with pytest.raises(ValueError):
            T.lr_at(101, cfg)
        with pytest.raises(ValueError):
            T.lr_at(-1, cfg)


class TestConfig:
    def test_default_switch_ratio(self):
        assert T.TrainConfig(total_steps=750).phase_switch_step == 50
        assert T.TrainConfig(total_steps=2000).phase_switch_step == 133

    def test_defaults(self):
        cfg = T.TrainConfig()
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.99
        assert cfg.weight_decay == 5e-5
        assert cfg.bn_momentum == 0.9
        assert cfg.binary_act_bound == 3.0

    def test_switch_bounds_validated(self):
        with pytest.raises(ValueError):
            T.TrainConfig(total_steps=100, phase_switch_step=100)
        with pytest.raises(ValueError):
            T.TrainConfig(total_steps=100, phase_switch_step=0)


class TestQuantSchedule:
    def test_monotone_phases(self):
        s = T.QuantSchedule(switch_step=10)
        phases = [s.phase(i) for i in range(20)]
        assert phases == sorted(phases)
        assert phases[9] == 1 and phases[10] == 2

    def test_freeze_trigger(self):
        s = T.QuantSchedule(switch_step=10)
        assert [i for i in range(20) if s.freezes_at(i)] == [10]


def reference_adam(params, grads, state, lr, cfg, decay_names):
    """Per-tensor Adam with decoupled weight decay, the loop ``adam_step``
    vectorizes; ``state`` holds "t" and per-name "m" and "v"."""
    state["t"] += 1
    t = state["t"]
    b1, b2 = cfg.beta1, cfg.beta2
    for name, p in params.items():
        g = grads[name]
        m, v = state["m"][name], state["v"][name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        update = (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + cfg.adam_eps)
        if cfg.weight_decay and name in decay_names:
            p -= lr * cfg.weight_decay * p
        p -= lr * update


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def step_with_grads(arena, grads, state, lr, cfg):
    """Writes per-name ``grads`` into the arena's gradient, then steps."""
    for name, g in grads.items():
        arena.grad_views[name][...] = g
    T.adam_step(arena, state, lr, cfg)


class TestAdam:
    def cfg(self, **kw):
        return T.TrainConfig(total_steps=10, phase_switch_step=5, **kw)

    def test_zero_gradient_no_motion(self):
        arena = ParamArena({"w": np.ones(4)}, np.float64)
        state = T.adam_init(arena)
        step_with_grads(arena, {"w": np.zeros(4)}, state,
                        lr=0.1, cfg=self.cfg(weight_decay=0.0))
        assert np.array_equal(arena.views["w"], np.ones(4))

    def test_descends_quadratic(self):
        arena = ParamArena({"w": np.array([1.0])}, np.float64)
        w = arena.views["w"]
        state = T.adam_init(arena)
        for _ in range(50):
            step_with_grads(arena, {"w": 2 * w}, state, lr=0.05,
                            cfg=self.cfg(weight_decay=0.0))
        assert abs(w[0]) < 1.0

    def test_first_step_magnitude_is_lr(self):
        # closed form of the bias-corrected first step: lr * g / (|g| + eps)
        cfg = self.cfg(weight_decay=0.0)
        for g in (1e-6, 0.5, 100.0):
            arena = ParamArena({"w": np.array([0.0])}, np.float64)
            state = T.adam_init(arena)
            step_with_grads(arena, {"w": np.array([g])}, state, lr=0.01, cfg=cfg)
            closed_form = 0.01 * g / (abs(g) + cfg.adam_eps)
            w = arena.views["w"]
            assert w[0] == pytest.approx(-closed_form, rel=1e-12)
            assert abs(w[0]) == pytest.approx(0.01, rel=0.02)

    def test_weight_decay_only_on_listed(self):
        arena = ParamArena({"w": np.array([1.0]), "bn": np.array([1.0])},
                           np.float64)
        state = T.adam_init(arena, decay_names={"w"})
        step_with_grads(arena, {"w": np.zeros(1), "bn": np.zeros(1)}, state,
                        lr=1.0, cfg=self.cfg(weight_decay=0.1))
        assert arena.views["w"][0] == pytest.approx(0.9)
        assert arena.views["bn"][0] == 1.0

    def test_nonfinite_gradient_aborts(self):
        arena = ParamArena({"w": np.array([1.0])}, np.float64)
        state = T.adam_init(arena)
        with pytest.raises(T.TrainingDiverged):
            step_with_grads(arena, {"w": np.array([np.nan])}, state, lr=0.1,
                            cfg=self.cfg())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_error_names_parameter_and_updates_nothing(self, bad):
        arena = ParamArena({"a.w": np.ones(3), "b.w": np.ones((2, 2))},
                           np.float32)
        state = T.adam_init(arena)
        g = np.zeros((2, 2))
        g[1, 0] = bad
        before = arena.data.copy()
        with pytest.raises(T.TrainingDiverged, match="for b.w"):
            step_with_grads(arena, {"a.w": np.ones(3), "b.w": g}, state, lr=0.1,
                            cfg=self.cfg())
        assert same_bits(arena.data, before)
        assert not state["m"].any() and not state["v"].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_matches_per_tensor_reference_bitwise(self, dtype, weight_decay):
        rng = np.random.default_rng(3)
        shapes = {"c.w": (3, 3, 4, 5), "bn.scale": (5,), "d.w": (5, 2),
                  "act.gamma": (2,), "head.bias": (2,)}
        init = {k: rng.normal(size=s) for k, s in shapes.items()}
        arena = ParamArena(init, dtype)
        ref = {k: v.astype(dtype) for k, v in init.items()}
        decay = {"c.w", "d.w", "act.gamma"}
        cfg = self.cfg(weight_decay=weight_decay)
        state = T.adam_init(arena, decay)
        ref_state = {"t": 0, "m": {k: np.zeros_like(v) for k, v in ref.items()},
                     "v": {k: np.zeros_like(v) for k, v in ref.items()}}
        for step in range(6):
            # gradients of wide range, with exact zeros; from step 3 on
            # "bn.scale" gets all zeros and moves by its momentum alone
            grads = {k: (rng.normal(size=s) * 10.0 ** rng.integers(-6, 3, size=s)
                         * (rng.random(size=s) > 0.2)).astype(dtype)
                     for k, s in shapes.items()}
            if step >= 3:
                grads["bn.scale"] = np.zeros(shapes["bn.scale"], dtype)
            lr = 0.05 * (1 - step / 10)
            step_with_grads(arena, grads, state, lr, cfg)
            reference_adam(ref, grads, ref_state, lr, cfg, decay)
            for k in shapes:
                span = arena.spans[k]
                assert same_bits(arena.views[k], ref[k]), (step, k)
                assert same_bits(state["m"][span], ref_state["m"][k].ravel())
                assert same_bits(state["v"][span], ref_state["v"][k].ravel())

    @pytest.mark.parametrize("decay_dprelu", [False, True])
    def test_train_loop_matches_per_tensor_reference(self, monkeypatch,
                                                     decay_dprelu):
        g = build_pokebnn_toy(m=0.125, groups=2, input_shape=(16, 16, 3))
        model = Model(g, seed=2, dtype=np.float64)
        ref = {k: v.copy() for k, v in model.params.items()}
        ref_state = {"t": 0, "m": {k: np.zeros_like(v) for k, v in ref.items()},
                     "v": {k: np.zeros_like(v) for k, v in ref.items()}}
        dprelu = {k for k in ref if k.endswith((".alpha", ".beta", ".gamma", ".eta"))}
        weights = {k for k in ref if k.endswith(".w")}
        decay = weights | (dprelu if decay_dprelu else set())
        flat_step = T.adam_step

        def both(arena, state, lr, cfg):
            reference_adam(ref, arena.grad_views, ref_state, lr, cfg, decay)
            flat_step(arena, state, lr, cfg)

        monkeypatch.setattr(T, "adam_step", both)
        cfg = T.TrainConfig(total_steps=4, phase_switch_step=2, seed=0,
                            batch_size=16, weight_decay=0.1,
                            decay_dprelu=decay_dprelu)
        T.train_loop(model, small_dataset(n=32), cfg)
        for k, v in model.params.items():
            assert same_bits(v, ref[k]), k


class TestBlockedAdam:
    """``adam_step`` in blocks of ``ADAM_BLOCK`` entries, over an arena of
    several blocks whose decayed span crosses a block boundary."""

    BLOCK = 64

    def arena(self, rng):
        # "mid.w" runs from 100 to 300, across the block boundaries at 128
        # and 256; "tail" ends in a partial block
        shapes = {"head.bias": (100,), "mid.w": (10, 20), "gap.scale": (50,),
                  "tail": (37,)}
        return ParamArena({k: rng.normal(size=s) for k, s in shapes.items()},
                          np.float32)

    def test_matches_per_tensor_reference_bitwise(self, monkeypatch):
        monkeypatch.setattr(T, "ADAM_BLOCK", self.BLOCK)
        rng = np.random.default_rng(5)
        arena = self.arena(rng)
        assert arena.data.size > 4 * self.BLOCK
        span = arena.spans["mid.w"]
        assert span.start // self.BLOCK < (span.stop - 1) // self.BLOCK
        ref = {k: np.array(v) for k, v in arena.views.items()}
        cfg = T.TrainConfig(total_steps=10, phase_switch_step=5, weight_decay=0.1)
        state = T.adam_init(arena, {"mid.w"})
        assert state["scratch"][0].size == self.BLOCK
        ref_state = {"t": 0, "m": {k: np.zeros_like(v) for k, v in ref.items()},
                     "v": {k: np.zeros_like(v) for k, v in ref.items()}}
        for step in range(4):
            grads = {k: rng.normal(size=v.shape).astype(np.float32)
                     for k, v in ref.items()}
            step_with_grads(arena, grads, state, 0.05, cfg)
            reference_adam(ref, grads, ref_state, 0.05, cfg, {"mid.w"})
            for k in ref:
                assert same_bits(arena.views[k], ref[k]), (step, k)
                assert same_bits(state["m"][arena.spans[k]], ref_state["m"][k].ravel())

    def test_nonfinite_gradient_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(T, "ADAM_BLOCK", self.BLOCK)
        arena = self.arena(np.random.default_rng(6))
        state = T.adam_init(arena, {"mid.w"})
        grads = {k: np.ones(v.shape) for k, v in arena.views.items()}
        grads["gap.scale"][-1] = np.nan
        before = arena.data.copy()
        with pytest.raises(T.TrainingDiverged, match="for gap.scale"):
            step_with_grads(arena, grads, state, 0.1, T.TrainConfig(
                total_steps=10, phase_switch_step=5, weight_decay=0.1))
        assert same_bits(arena.data, before)
        assert not state["m"].any() and not state["v"].any()


class TestGradientDtype:
    """Every VJP of a train step returns the model's dtype, so a float32
    model computes its whole backward pass in float32."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("loss", ["cross_entropy", "kl_divergence"])
    def test_every_vjp_in_the_model_dtype(self, monkeypatch, dtype, loss):
        seen = []       # (VJP, gradient dtype) since the last Adam step
        for name in [n for n in vars(ad) if n.startswith("_") and n.endswith("_vjp")]:
            def recorded(*args, _vjp=getattr(ad, name), _name=name):
                grads = _vjp(*args)
                seen.extend((_name, g.dtype) for g in grads if g is not None)
                return grads
            monkeypatch.setattr(ad, name, recorded)
        steps, adam_step = [], T.adam_step

        def step(*args):
            steps.append(seen[:])
            seen.clear()
            adam_step(*args)
        monkeypatch.setattr(T, "adam_step", step)
        # built after the patch, since Model looks its VJPs up when built
        model = Model(build_pokebnn_toy(m=0.125, groups=2, input_shape=(16, 16, 3)),
                      seed=0, dtype=dtype)
        ds = small_dataset(n=16)
        if loss == "kl_divergence":
            ds.teacher = np.full((16, 10), 0.1)
        T.train_loop(model, ds, T.TrainConfig(total_steps=2, phase_switch_step=1,
                                              seed=0, batch_size=8))
        for phase, grads in zip((1, 2), steps, strict=True):
            names = {n for n, _ in grads}
            assert {f"_{loss}_vjp", "_batchnorm_train_vjp", "_dprelu_vjp",
                    "_spatial_mean_vjp", "_ste_vjp", "_conv2d_vjp"} <= names
            other = sorted({(n, str(d)) for n, d in grads if d != dtype})
            assert not other, (phase, other)


class TestKLLoss:
    def test_matching_teacher_zero(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 6))
        e = np.exp(logits - logits.max(1, keepdims=True))
        teacher = e / e.sum(1, keepdims=True)
        assert abs(T.kl_distill_loss(logits, teacher)[0]) < 1e-12

    def test_one_hot_is_cross_entropy(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        teacher = np.eye(3)[labels]
        kl = float(T.kl_distill_loss(logits, teacher)[0])
        ls = logits - np.log(np.exp(logits).sum(1, keepdims=True))
        ce = -ls[np.arange(5), labels].mean()
        assert kl == pytest.approx(ce)

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            T.kl_distill_loss(np.zeros((1, 3)), np.array([[0.5, 0.2, 0.2]]))


class TestTeacherFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "teacher.csv"
        probs = np.array([[0.9, 0.1], [0.25, 0.75]])
        path.write_text("\n".join(",".join(str(v) for v in row) for row in probs))
        loaded = T.load_teacher_probs(path)
        assert np.allclose(loaded, probs)

    def test_class_count_checked(self, tmp_path):
        path = tmp_path / "teacher.csv"
        path.write_text("0.5,0.5\n")
        with pytest.raises(ValueError, match="columns"):
            T.load_teacher_probs(path, classes=3)


class TestToyDataset:
    def test_deterministic(self):
        a = T.make_toy_dataset(n=32, seed=5)
        b = T.make_toy_dataset(n=32, seed=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_balanced_labels(self):
        ds = T.make_toy_dataset(n=100, classes=10)
        assert np.bincount(ds.y, minlength=10).tolist() == [10] * 10


class TestTrainLoop:
    def test_loss_decreases(self):
        cfg = T.TrainConfig(total_steps=40, phase_switch_step=10, base_lr=2e-3,
                            seed=3, batch_size=16)
        result = T.train_loop(small_model(), small_dataset(), cfg)
        first = np.mean([r["loss"] for r in result.records[:5]])
        last = np.mean([r["loss"] for r in result.records[-5:]])
        assert last < first

    def test_same_seed_bitwise_identical(self):
        cfg = T.TrainConfig(total_steps=12, phase_switch_step=4, seed=7,
                            batch_size=16)
        r1 = T.train_loop(small_model(seed=2), small_dataset(), cfg)
        r2 = T.train_loop(small_model(seed=2), small_dataset(), cfg)
        assert [r["loss"] for r in r1.records] == [r["loss"] for r in r2.records]
        for k in r1.state:
            assert np.array_equal(r1.state[k], r2.state[k]), k

    def test_phase_and_freeze_schedule(self):
        cfg = T.TrainConfig(total_steps=12, phase_switch_step=6, seed=0,
                            batch_size=16)
        model = small_model()
        result = T.train_loop(model, small_dataset(), cfg)
        phases = [r["phase"] for r in result.records]
        assert phases == [1] * 6 + [2] * 6
        assert all(s.frozen for s in model.bounds.values())

    def test_bounds_constant_after_switch(self):
        cfg = T.TrainConfig(total_steps=10, phase_switch_step=3, seed=0,
                            batch_size=16)
        model = small_model()
        bounds_log = []
        orig_forward = model.forward

        def spy(*args, **kwargs):
            out = orig_forward(*args, **kwargs)
            bounds_log.append(model.activation_bounds())
            return out

        model.forward = spy
        T.train_loop(model, small_dataset(), cfg)
        frozen_values = bounds_log[3]
        for later in bounds_log[4:]:
            assert later == frozen_values

    def test_records_schema(self):
        cfg = T.TrainConfig(total_steps=5, phase_switch_step=2, seed=0,
                            batch_size=16)
        result = T.train_loop(small_model(), small_dataset(), cfg)
        assert set(result.records[0]) == {"step", "lr", "loss", "top1", "phase"}

    def test_metrics_file_roundtrip(self, tmp_path):
        cfg = T.TrainConfig(total_steps=5, phase_switch_step=2, seed=0,
                            batch_size=16)
        path = tmp_path / "metrics.ndjson"
        result = T.train_loop(small_model(), small_dataset(), cfg,
                              metrics_path=path)
        assert T.read_metrics(path) == result.records

    def test_dprelu_decay_opt_in(self):
        ds = small_dataset()
        base = {}
        for flag in (False, True):
            cfg = T.TrainConfig(total_steps=6, phase_switch_step=2, seed=0,
                                batch_size=16, weight_decay=0.5,
                                decay_dprelu=flag)
            model = small_model(seed=4)
            result = T.train_loop(model, ds, cfg)
            base[flag] = {k: v for k, v in result.state.items()
                          if k.endswith(".gamma")}
        assert any(not np.array_equal(base[False][k], base[True][k])
                   for k in base[False])

    def test_distillation_path(self):
        ds = small_dataset()
        rng = np.random.default_rng(0)
        raw = rng.random((len(ds.y), 10)) + 5 * np.eye(10)[ds.y]
        ds.teacher = raw / raw.sum(axis=1, keepdims=True)
        cfg = T.TrainConfig(total_steps=8, phase_switch_step=3, seed=0,
                            batch_size=16)
        result = T.train_loop(small_model(), ds, cfg)
        assert np.isfinite([r["loss"] for r in result.records]).all()


class TestClippingBoundKnob:
    def test_bound_changes_gradients_not_forward(self):
        x = np.random.default_rng(0).normal(size=(2, 16, 16, 3))
        g = build_pokebnn_toy(m=0.125, groups=2, input_shape=(16, 16, 3))
        logits, grads = {}, {}
        for bound in (1.0, 3.0):
            model = Model(g, seed=5, dtype=np.float64)
            model.binary_bound = bound
            logits[bound] = model.logits(x, training=False, phase=1)
            out, backward = model.forward(x, training=True, phase=1)
            loss, saved = ad._cross_entropy(out, np.array([0, 1]))
            backward(ad._cross_entropy_vjp(np.ones_like(loss), saved, (True, False),
                                           out, np.array([0, 1]))[0])
            grads[bound] = model.arena.grad_views["b01_pc2_conv.w"]
        assert np.array_equal(logits[1.0], logits[3.0])
        assert not np.array_equal(grads[1.0], grads[3.0])


class TestAveragedTop1:
    def test_single_checkpoint(self):
        model = small_model()
        ds = small_dataset(n=32)
        cfg = T.TrainConfig(total_steps=6, phase_switch_step=2, seed=0,
                            batch_size=16)
        result = T.train_loop(model, ds, cfg, tail_checkpoints=1)
        acc = T.eval_averaged_top1(model, ds, result.checkpoints)
        model.load_state_dict(result.checkpoints[0])
        direct = T.top1_accuracy(model.logits(ds.x), ds.y)
        assert acc == direct

    def test_identical_checkpoints_average_to_same(self):
        model = small_model()
        ds = small_dataset(n=32)
        state = model.state_dict()
        acc1 = T.eval_averaged_top1(model, ds, [state])
        acc3 = T.eval_averaged_top1(model, ds, [state, state, state])
        assert acc1 == acc3

    def test_mean_of_two(self):
        model = small_model()
        ds = small_dataset(n=32)
        cfg = T.TrainConfig(total_steps=8, phase_switch_step=2, seed=0,
                            batch_size=16)
        result = T.train_loop(model, ds, cfg, tail_checkpoints=2)
        accs = []
        for state in result.checkpoints:
            model.load_state_dict(state)
            accs.append(T.top1_accuracy(model.logits(ds.x), ds.y))
        got = T.eval_averaged_top1(model, ds, result.checkpoints)
        assert got == pytest.approx(np.mean(accs))

    def test_empty_checkpoints(self):
        with pytest.raises(ValueError):
            T.eval_averaged_top1(small_model(), small_dataset(), [])
