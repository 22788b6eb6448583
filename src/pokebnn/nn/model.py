"""Executes a lowered GraphSpec and differentiates it.

The executor owns every parameter and calibration state keyed by node id:
conv/dense weights, BatchNorm affine + running statistics, DPReLU vectors,
and per-quantizer clipping bounds. ``Model.__init__`` finds the chains of
``graphir.FUSIONS`` once, by ``fused_chains``, and lowers the node list
once into a plan of steps. ``forward`` runs the program of its (training,
phase), bound from the plan once with the order in which a pullback visits
the steps and the step after which each value is read for the last time; it
drops a value there. It returns the logits with their pullback, which calls
each step's VJP once; each step's record keeps only what its VJP reads and
cannot rebuild exactly, in the narrowest type that holds it exactly; the
last three steps of a PokeConv tail's chain share what they rebuild.
``logits`` runs an eval program bound from the same plan, in which each
chain of ``graphir.FUSIONS`` (a PokeConv's BN -> DPReLU -> gate -> BN tail,
an SE gate, the stem's BN -> DPReLU, the head's pooling and quantizer) is one
step: per phase, one closure per step, holding the step's op and its
per-state constants (the quantized weight, the eval BatchNorm factors, the
quantizer scales, or a chain's folds of them), resolved once. It drops each
value after its last reader in that program, keeps nothing for a gradient,
and binds again only when the parameters, a running statistic or a bound
state change.
"""

from __future__ import annotations

import functools
import math
import operator
from types import MappingProxyType
from typing import Callable

import numpy as np

from .. import quant
from ..graphir import (OP_PARAMS, WEIGHT_OPS, DType, GraphError, GraphSpec,
                       NodeSpec, check_graph, conv_out_size, fused_chains,
                       pad_amounts, param_shapes, windows)
from . import autodiff as ad


# the initial value of each parameter other than a weight, if not 0
_INIT_VALUES = {"scale": 1.0, "gamma": 0.25, "eta": 1.0}
# graph op -> the attrs passed positionally
_ATTR_ARGS = {"conv2d": ("stride", "padding"),
              "depthwise_conv2d": ("stride", "padding"),
              "pad_channels": ("out_channels",),
              "tile_channels": ("out_channels",),
              "avg_channels": ("out_channels",),
              "avg_pool": ("kernel", "stride", "padding"),
              "max_pool": ("kernel", "stride", "padding")}


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only, so that only a reassignment changes it."""
    a.flags.writeable = False
    return a


def _cached(cache: dict, nid: str, sources: tuple, compute: Callable):
    """Node ``nid``'s constants in ``cache``: the entry's, if it was computed
    from the very objects ``sources`` (running statistics or a bound state,
    which are replaced, never written), else a new ``compute()``."""
    entry = cache.get(nid)
    if entry is None or not all(map(operator.is_, entry[0], sources)):
        entry = cache[nid] = (sources, compute())
    return entry[1]


def _identity(x):
    return x


def _plus_zero(x):
    return x + 0.0


def _spread(fn: Callable) -> Callable:
    """``fn`` taking its arguments as one tuple."""
    return lambda ins: fn(*ins)


def _fixed(value) -> Callable:
    """A function that returns ``value`` whatever its arguments: a binder
    whose result does not depend on the mode or the state."""
    return lambda *mode: value


def _chained(fns: list) -> Callable:
    """The one-input steps ``fns`` run in turn, as one step."""
    def run(x):
        for fn in fns:
            x = fn(x)
        return x
    return run


def _last_reads(reads: list, keep: int) -> list:
    """For steps that read the slot tuples ``reads``, in order: the slots
    that each reads for the last time, but ``keep``."""
    last = {s: i for i, slots in enumerate(reads) for s in slots}
    drops = [[] for _ in reads]
    for s, i in last.items():
        if s != keep:
            drops[i].append(s)
    return [tuple(d) for d in drops]


def _running(model, nid: str) -> tuple:
    """BN step ``nid``'s running mean and variance in ``model``."""
    stats = model.bn_stats[nid]
    return stats["mean"], stats["var"]


def _act_scales(model, nid: str, bits: int):
    """The scale pair of ``model``'s 4/8-bit quantizer ``nid``, from its
    bound state, by ``_cached``."""
    state, dtype = model.bounds[nid], model.dtype
    return _cached(model._constants, nid, (state,), lambda:
                   ad._fake_quant_scales(state.bound, bits, dtype))


def _dprelu_folded(t, a, b):
    """``t·a + |t|·b``, written over ``t``. For a = (eta + gamma) / 2 and
    b = (eta - gamma) / 2 this is DPReLU of the shifted input t = x - alpha
    before its ``- beta``: eta·t where t > 0, else gamma·t. A factor that
    follows (a gate, a BN scale) multiplies both a and b."""
    m = np.abs(t)
    m *= b
    t *= a
    t += m
    return t


def _round_half_away(q):
    """``quant``'s rounding half away from zero, written over the float array
    ``q``, in three passes, not five: the same codes, but that a code of -0.0
    stays -0.0 where ``quant`` gives +0.0."""
    q += np.copysign(0.5, q)
    return np.trunc(q, out=q)


# eight zero bytes, read-only: the buffer of every stand-in (see _stand_in)
_ZEROS = _read_only(np.zeros(8, dtype=np.uint8))


def _stand_in(a: np.ndarray) -> np.ndarray:
    """A read-only array of zeros with ``a``'s shape and dtype that holds no
    buffer of its own: what a record keeps of an input whose VJP reads only
    its shape and dtype."""
    return np.ndarray(a.shape, a.dtype, _ZEROS, 0, (0,) * a.ndim)


def _step(forward, vjp, ins, extra, shape_only, ste=None):
    """Runs an op's array ``forward`` on the inputs ``ins``, then ``extra``;
    returns its output and the step's record, ``(vjp, saved, call, ste)``:
    the op's VJP, what the forward saved, the arguments, and the ``(w,
    bounds)`` of a quantized weight's straight-through gradient or None. If
    ``shape_only``, the VJP reads the inputs only for their shape and dtype
    (see ``autodiff.SHAPE_ONLY``), and ``call`` holds a stand-in of each."""
    out, saved = forward(*ins, *extra)
    if shape_only:
        ins = map(_stand_in, ins)
    return out, (vjp, saved, (*ins, *extra), ste)


def _ste_step(forward, x, bound, *attrs):
    """A quantizer's step, as ``_step``: the record keeps the mask ``|x| <
    bound``, all ``_ste_vjp`` reads of x, and a stand-in of x."""
    out, _ = forward(x, bound, *attrs)
    return out, (ad._ste_vjp, ad._ste_mask(x, bound), (_stand_in(x), bound, *attrs),
                 None)


def _live_span(size: int, kernel: int, stride: int, padding: str) -> tuple:
    """Along one axis of a window of ``kernel`` taps over ``size`` inputs:
    the taps that read an input at some output position, as a slice; how
    many inputs, from the first, those taps read; and how much padding
    (before, after) they read."""
    before = pad_amounts(size, kernel, stride, padding)[0]
    out = conv_out_size(size, kernel, stride, padding)
    first, stop = max(0, before - (out - 1) * stride), min(kernel, before + size)
    # one past the last input position those taps read, counted from input 0
    end = (out - 1) * stride + stop - before
    return slice(first, stop), min(end, size), (before - first, max(end - size, 0))


def _binarized(graph: GraphSpec, node: NodeSpec) -> bool:
    """Whether a binary ``quantize_act`` makes ``node``'s first input."""
    src = graph.node(node.inputs[0])
    return src.op == "quantize_act" and src.attrs["act_bits"] is DType.BIN


def _freeze_bounds(bounds: dict) -> int:
    """Freezes every EMA bound in ``bounds``; returns how many flipped this
    call: a model's ``freeze_activation_bounds``."""
    flipped = 0
    for nid, state in bounds.items():
        if not state.frozen:
            bounds[nid] = state.freeze()
            flipped += 1
    return flipped


class ParamArena:
    """Named arrays stored as read-only views into one flat buffer.

    ``data`` holds every value, in insertion order, and ``views[name]`` is
    the slice ``spans[name]`` of it in the array's own shape; a write to
    either raises. ``writable()`` is the one way to change a value, and
    ``version`` counts its calls. ``grad`` is a second, writable buffer of
    the same size, with the views ``grad_views[name]`` in the same way, and
    ``zero_grad()`` fills it with zeros.
    """

    def __init__(self, shapes: dict, dtype):
        """``shapes`` maps each name to its array's shape; every value
        starts at 0."""
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.data = np.zeros(sum(sizes), dtype=dtype)
        self._writable = self.data.view()   # taken while data is writable
        _read_only(self.data)               # so every view of it is too
        self.version = 0
        self.grad = np.zeros(self.data.size, dtype=dtype)
        self.spans: dict[str, slice] = {}
        self.views: dict[str, np.ndarray] = {}
        self.grad_views: dict[str, np.ndarray] = {}
        start = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            span = slice(start, start + size)
            self.spans[name] = span
            self.views[name] = self.data[span].reshape(shape)
            self.grad_views[name] = self.grad[span].reshape(shape)
            start = span.stop

    def writable(self) -> np.ndarray:
        """The flat buffer behind ``data``, writable; bumps ``version``, which
        marks cached constants stale, so write before the next read."""
        self.version += 1
        return self._writable

    def zero_grad(self) -> None:
        self.grad.fill(0)


class Model:
    def __init__(self, graph: GraphSpec, seed: int = 0, dtype=np.float64):
        diags, shapes = check_graph(graph)
        if diags:
            raise GraphError(f"graph {graph.name!r}: " + "; ".join(diags))
        self.graph = graph
        self.shapes = shapes
        self.dtype = np.dtype(dtype)
        self.binary_bound = 3.0
        self.bn_momentum = 0.9
        self.bn_stats: dict[str, dict[str, np.ndarray]] = {}
        self.bounds: dict[str, quant.BoundState] = {}
        arena_shapes, consts, stds = self._init_params()
        # every parameter's value and gradient are views into the arena's
        # buffers; the values are read-only, and arena.writable() changes them
        self.arena = ParamArena(arena_shapes, self.dtype)
        spans, data = self.arena.spans, self.arena.writable()
        for name, value in consts.items():
            data[spans[name]] = value
        # each weight drawn in float64, in node order, and cast into the arena
        # at once, so that building holds one draw at a time
        rng = np.random.default_rng(seed)
        for name, std in stds.items():
            data[spans[name]] = rng.normal(0.0, std, size=arena_shapes[name]).ravel()
        self.params = MappingProxyType(self.arena.views)
        # bound to the arena and to the bounds table, not to the model: a
        # caller that wraps either on the instance (to count its calls, say)
        # then makes no reference cycle through the model, so a dropped
        # model's buffers are freed at once, not at the next full collection.
        # Both hold their object, so arena and bounds change only in place
        self.zero_grad = self.arena.zero_grad
        self.freeze_activation_bounds = functools.partial(_freeze_bounds, self.bounds)
        # logits' per-state constants by node id, as (sources, constants)
        # (see _cached), valid while the arena's version is the one they
        # were computed at
        self._constants: dict[str, tuple] = {}
        self._version = None
        # logits' eval program by phase, as (arena version, sources, steps)
        # (see _program), and forward's by (training, phase)
        self._programs: dict[int, tuple] = {}
        self._forwards: dict[tuple, tuple] = {}
        # the plan: one step per node, as (node, input slots, bind_forward,
        # bind, parameter names, the VJP's needs); the slot after the last
        # step holds the batch
        index = {node.id: i for i, node in enumerate(graph.nodes)}
        # whether each slot's value depends on a parameter, so takes a gradient
        needs = [False] * (len(graph.nodes) + 1)
        # the matches of graphir.FUSIONS, found once. The last three steps of
        # each PokeConv tail take their training steps from _lower_tail
        chains = fused_chains(graph)
        tails = {}
        for fusion, ids in chains:
            if fusion.name == "pokeconv_tail":
                steps = [index[nid] for nid in ids[-3:]]
                tails.update(zip(steps, self._lower_tail(*steps)))
        self._plan = []
        for i, node in enumerate(graph.nodes):
            slots = ((len(graph.nodes),) if node.op == "input"
                     else tuple([index[s] for s in node.inputs]))
            names = tuple([f"{node.id}.{k}" for k in OP_PARAMS.get(node.op, ())])
            needs[i] = bool(names) or any(needs[s] for s in slots)
            bind_forward, bind = self._lower(node)
            self._plan.append((node, slots, tails.get(i, bind_forward), bind, names,
                               tuple([needs[s] for s in slots]) + (True,) * len(names)))
        self._output = next(i for i, node in enumerate(graph.nodes)
                            if node.op == "output")
        # the eval program's layout: per step, (bind, input slots, output
        # slot, node). Each chain that folds is one step at its last node,
        # which reads the chain's inputs from outside it and which hooks see
        # as that node; the chain's other steps are left out. logits drops
        # each slot after its last reader in this program
        folds, inside = {}, set()
        for fusion, ids in chains:
            steps = [self._plan[index[nid]] for nid in ids]
            nodes, binds = [step[0] for step in steps], [step[3] for step in steps]
            bind = (self._lower_mean_quant(nodes, binds) if fusion.name in ("se_gate", "head")
                    else self._lower_binary_conv(nodes, binds)
                    if fusion.name == "binary_conv" else self._lower_bn_dprelu(nodes))
            if bind is not None:
                slots = steps[0][1] + tuple([s for step in steps[1:] for s in step[1][1:]])
                folds[index[ids[-1]]] = (bind, slots)
                inside.update(index[nid] for nid in ids[:-1])
        self._layout = [(*folds.get(i, (step[3], step[1])), i, step[0])
                        for i, step in enumerate(self._plan) if i not in inside]
        self._layout_drops = _last_reads([step[1] for step in self._layout],
                                         self._output)

    # ------------------------------------------------------------------
    # Parameter setup
    # ------------------------------------------------------------------

    def _init_params(self) -> tuple[dict, dict, dict]:
        """Each parameter's shape by name, in arena order; the initial value
        of each that starts at a constant other than 0; and the standard
        deviation of each weight's normal draw. Sets up BN and bound state."""
        shapes, consts, stds = {}, {}, {}
        for node in self.graph.nodes:
            nid, op = node.id, node.op
            out_c = self.shapes[nid][2]
            if op == "conv2d" and node.attrs.get("groups", 1) != 1:
                raise ValueError(f"node {nid!r}: conv2d with groups="
                                 f"{node.attrs['groups']} is costed but not executed")
            if op in OP_PARAMS:
                for key, shape in zip(OP_PARAMS[op], param_shapes(
                        node, self.shapes[node.inputs[0]], self.shapes[nid])):
                    name = f"{nid}.{key}"
                    shapes[name] = shape
                    if key == "w":
                        # He init for convolutions, LeCun for dense; the
                        # fan-in is the weights that one output reads
                        gain = 1.0 if op == "dense" else 2.0
                        stds[name] = (gain / (math.prod(shape) // out_c)) ** 0.5
                    elif key in _INIT_VALUES:
                        consts[name] = _INIT_VALUES[key]
            if op == "batchnorm":
                self.bn_stats[nid] = {
                    "mean": _read_only(np.zeros(out_c, dtype=self.dtype)),
                    "var": _read_only(np.ones(out_c, dtype=self.dtype)),
                }
            elif op == "quantize_act" and node.attrs["act_bits"] is not DType.BIN:
                self.bounds[nid] = quant.BoundState(bound=np.float64(1.0))
        return shapes, consts, stds

    # ------------------------------------------------------------------
    # Quantizer state
    # ------------------------------------------------------------------

    # freeze_activation_bounds() is _freeze_bounds on the model's bounds,
    # set in __init__

    def activation_bounds(self) -> dict:
        return {nid: float(np.asarray(s.bound)) for nid, s in self.bounds.items()}

    # ------------------------------------------------------------------
    # Forward: the plan on arrays, with a pullback (forward) or not (logits)
    # ------------------------------------------------------------------

    def forward(self, x, training: bool = True, phase: int = 1, hooks=()):
        """Runs the forward program of ``(training, phase)``; returns
        ``(logits, backward)``: the ``[N, classes]`` output and its pullback.
        ``backward(grad)`` takes the gradient with respect to ``logits`` and
        adds each parameter's gradient into ``arena.grad``; it frees the
        record as it goes and runs once.

        ``phase`` selects active quantizers: binary activations always, all
        weights and the 4/8-bit activations in phase 2; any other value
        raises ValueError. Each of ``hooks`` is called as ``hook(node, out)``
        after every step, with the node's output array. A value is dropped
        after the step that reads it last; the record keeps what the VJPs
        read and cannot rebuild exactly, and no more.
        """
        values = self._slots(x, phase)
        del x       # so that the batch too is freed after its last reader
        steps, pullback = self._forward_program(training, phase)
        record = [None] * len(steps)
        for i, (run, slots, node, drops) in enumerate(steps):
            values[i], record[i] = run(self, [values[s] for s in slots], record)
            for hook in hooks:
                hook(node, values[i])
            for s in drops:
                values[s] = None
        out = values[self._output]

        def backward(grad):
            if not record:
                raise RuntimeError("this pullback has already run")
            records, record[:] = record[:], []
            self._backward(np.asarray(grad, dtype=out.dtype).reshape(out.shape),
                           records, *pullback)
        return out.reshape(len(out), -1), backward

    def logits(self, x, phase: int = 2, hooks=()) -> np.ndarray:
        """The inference call: runs the phase's eval program and keeps
        nothing for a gradient; returns [N, classes]. Each of ``hooks`` is
        called as ``hook(node, out)`` after every program step, and a value
        is dropped after the step that reads it last. A ``phase`` other than 1
        or 2 raises ValueError.

        The program runs each chain of ``graphir.FUSIONS`` as one step,
        which hooks see as the chain's last node; its other nodes have no
        step. A fold reorders float arithmetic, so the logits are close to
        ``forward(x, training=False)``'s, not bitwise equal.

        The program holds every step's per-state constants. Each call checks
        that ``arena.version`` and the running-statistic arrays and bound
        states the program was bound from are still the model's, and binds
        it again if not (see ``_program``)."""
        values = self._slots(x, phase)
        del x       # so that the batch too is freed after its last reader
        for fn, ins, i, node, drops in self._program(phase):
            values[i] = out = fn(ins(values))
            for hook in hooks:
                hook(node, out)
            for s in drops:
                values[s] = None
        out = values[self._output]
        return out.reshape(out.shape[0], -1)

    def _program(self, phase: int) -> list:
        """The steps of ``phase``'s eval program, each ``(fn, ins, out, node,
        drops)``: ``ins(values)`` picks the step's inputs from the slots,
        ``fn``, bound by the step's ``bind``, takes them as one argument and
        its result goes to slot ``out``, and ``drops`` are the slots read for
        the last time.

        A program is kept with the arena version and the ``_sources`` it was
        bound from, and bound again when either changed. Binding reads each
        step's constants from ``_constants`` by the per-entry rule of
        ``_cached``, after emptying it if the arena changed since it was
        filled; so a training step recomputes only the BN factors."""
        sources = self._sources()
        program = self._programs.get(phase)
        if (program is not None and program[0] == self.arena.version
                and all(map(operator.is_, program[1], sources))):
            return program[2]
        del program     # so that stale weights are freed before binding
        if self._version != self.arena.version:
            self._constants.clear()
            self._programs.clear()
            self._version = self.arena.version
        steps = []
        for (bind, slots, out, node), drops in zip(self._layout, self._layout_drops):
            fn = bind(self, phase)
            if len(slots) > 1:      # itemgetter picks these as a tuple
                fn = _spread(fn)
            steps.append((fn, operator.itemgetter(*slots), out, node, drops))
        self._programs[phase] = (self.arena.version, sources, steps)
        return steps

    def _sources(self) -> list:
        """The objects besides the arena that eval constants are computed
        from, in one list: each BN step's running mean and variance, then each
        quantizer's bound state."""
        return [*[a for stats in self.bn_stats.values()
                  for a in (stats["mean"], stats["var"])], *self.bounds.values()]

    def _slots(self, x, phase: int) -> list:
        """The value slots of one call: one per step, empty, then the batch
        ``x`` as an [N, H, W, C] array of the model's dtype. Raises ValueError
        if ``phase`` is not 1 or 2, or if the batch is empty or its shape is
        not the graph's input shape."""
        if phase not in (1, 2):
            raise ValueError(f"phase must be 1 or 2, got {phase!r}")
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4:
            raise ValueError(f"expected [N, H, W, C] input, got shape {x.shape}")
        if not len(x):
            raise ValueError(f"graph {self.graph.name!r} got an empty batch, "
                             f"shape {x.shape}")
        if x.shape[1:] != tuple(self.graph.input_shape):
            raise ValueError(f"graph {self.graph.name!r} expects input "
                             f"{tuple(self.graph.input_shape)}, got {x.shape[1:]}")
        return [None] * len(self._plan) + [x]

    def _forward_program(self, training: bool, phase: int) -> tuple:
        """``forward``'s ``(steps, pullback)`` for ``(training, phase)``,
        bound once, as no step reads the model's state before it runs. A
        step is ``(run, slots, node, drops)``, ``drops`` the slots it reads
        last. ``pullback`` is the output gradient's slot and, in pullback
        order, ``(step, slots, names, needs)`` of each step that takes a
        gradient and does not pass its input through; its input's slot takes
        the gradient of a step that does."""
        mode = (bool(training), phase)
        if mode not in self._forwards:
            reads = [step[1] for step in self._plan] + [()]    # the batch reads none
            steps, owner = [], list(range(len(reads)))
            for i, ((node, slots, bind_forward, *_), drops) in enumerate(
                    zip(self._plan, _last_reads(reads[:-1], self._output))):
                run, through = bind_forward(*mode)
                owner[i] = owner[slots[0]] if through else i
                steps.append((run, slots, node, drops))
            # the pullback's order is the tape's (see autodiff._post_order)
            order = [(i, tuple([owner[s] for s in reads[i]]), *self._plan[i][4:])
                     for i in reversed(ad._post_order(self._output, reads.__getitem__))
                     if i < len(self._plan) and owner[i] == i and any(self._plan[i][5])]
            self._forwards[mode] = (steps, (owner[self._output], order))
        return self._forwards[mode]

    def _backward(self, grad, record, root, order):
        """Adds into ``arena.grad`` the parameter gradients of the forward
        call that left ``record``, given its output's, by its program's
        pullback ``(root, order)`` (see ``_forward_program``)."""
        grads = [None] * (len(record) + 1)
        grads[root] = grad
        views = self.arena.grad_views
        for i, slots, names, needs in order:
            vjp, saved, call, ste = record[i]
            grads_in = vjp(grads[i], saved, needs, *call)
            record[i] = grads[i] = None
            for s, need, x, g in zip(slots, needs, call, grads_in):
                # as Tensor._accumulate: the first gradient in the slot's
                # dtype, the rest added with numpy's promotion
                if need and grads[s] is None:
                    grads[s] = g if g.dtype == x.dtype else g.astype(x.dtype)
                elif need:
                    grads[s] = grads[s] + g
            grads_in = grads_in[len(slots):]
            if ste is not None:     # the quantized weight's straight-through gradient
                grads_in = (ad._ste_vjp(grads_in[0], None, None, *ste)[0], *grads_in[1:])
            for name, g in zip(names, grads_in):
                views[name] += g

    def _lower(self, node: NodeSpec) -> tuple[Callable, Callable]:
        """The binders of one node's steps, ``(bind_forward, bind)``. A
        PokeConv tail's last three nodes take their ``bind_forward`` from
        ``_lower_tail`` instead.

        ``bind_forward(training, phase)`` returns ``(run, through)``:
        ``forward``'s step in that mode, ``run(model, ins, record)``, which
        returns the node's output and the step's record (see ``_step``), or
        None if ``through``: if it passes its input, and so its gradient,
        through. ``record`` holds the records of the call's earlier steps, by
        step: a record that rebuilds a value in its VJP, rather than keep it,
        reads there the record of the step that made the value.
        ``bind(model, phase)`` returns the eval program's step, ``fn(*ins)``,
        which returns the node's output with the step's per-state constants
        resolved at binding, by ``_cached``.

        Attributes, ops and parameters are resolved here, once. BN statistics
        and bound state are read from ``model`` when a step runs or binds,
        since training updates them; no step holds a reference to the model,
        so a dropped model is freed at once rather than by the cycle collector.
        """
        op, a, nid = node.op, node.attrs, node.id
        if op in ("input", "output"):
            return (_fixed(((lambda model, ins, record: (ins[0], None)), True)),
                    _fixed(_identity))
        if op == "spatial_mean" and self.shapes[node.inputs[0]][:2] == (1, 1):
            # the mean over a 1x1 input is that input, but for -0.0, which
            # the mean's sum from 0 makes +0.0; its gradient passes through
            return (_fixed(((lambda model, ins, record: (_plus_zero(ins[0]), None)), True)),
                    _fixed(_plus_zero))
        if op == "quantize_act":
            return self._lower_act_quant(nid, a["act_bits"])
        params = self._params(node)
        if op == "batchnorm":
            return self._lower_batchnorm(node, params)
        args = tuple([a[k] for k in _ATTR_ARGS.get(op, ())])
        if op == "avg_pool":
            args += (a.get("divisor"),)
        name = "mul" if op == "multiply" else op
        forward, vjp = getattr(ad, f"_{name}"), getattr(ad, f"_{name}_vjp")
        extra, shape_only = (*params, *args), name in ad.SHAPE_ONLY
        if op not in WEIGHT_OPS:
            def step(model, ins, record):
                return _step(forward, vjp, ins, extra, shape_only)
            return _fixed((step, False)), _fixed(lambda *ins: forward(*ins, *extra)[0])
        weight, eval_weight, rebuild = self._lower_weight(
            nid, a["weight_bits"], depthwise=op == "depthwise_conv2d")
        narrow = self._lower_int8_record(node, vjp, rebuild)

        def bind_forward(training, phase):
            weighted, narrowed = weight(phase), narrow(phase)

            def run(model, ins, record):
                w, ste, kept = weighted()
                out, rec = _step(forward, vjp, ins, (w, *extra), shape_only, ste)
                return out, rec if narrowed is None else narrowed(rec, ins[0], kept)
            return run, False

        def bind(model, phase):
            w = eval_weight(model, phase)
            return lambda x: forward(x, w, *extra)[0]
        return bind_forward, bind

    def _lower_int8_record(self, node: NodeSpec, vjp, rebuild) -> Callable:
        """``narrow(phase)``, which returns ``fn(record, x, kept)``, which
        returns weight-op ``node``'s record (see ``_step``), given its input
        ``x`` and what rebuilds its quantized weight (see ``_lower_weight``),
        without the float arrays that its VJP can rebuild exactly; or None if
        in that phase it keeps none of them:
        - a conv2d whose input a binary ``quantize_act`` makes keeps that
          input as int8, as its entries are -1 or +1, in place of its im2col;
        - from phase 2 on, the record keeps ``kept`` and a stand-in of the
          quantized weight, in place of that weight.
        The narrowed record's VJP rebuilds the im2col by ``_conv2d``'s own
        code and widens it to the input's dtype, rebuilds the weight with
        ``rebuild``, and runs ``vjp``. Decided from the producing node, not
        from the conv's own ``act_bits`` label."""
        binary_input = node.op == "conv2d" and _binarized(self.graph, node)
        quantized = not node.attrs["weight_bits"].is_float
        # a weight with no filters: _conv2d then makes its im2col and no product
        no_filters = (np.zeros((*self.arena.views[f"{node.id}.w"].shape[:3], 0), np.int8)
                      if binary_input else None)

        def rebuilt(g, saved, needs, x, w, *attrs):
            saved, kept = saved
            if binary_input:
                x8, pads = saved
                cols = ad._conv2d(x8, no_filters, *attrs)[1][0]
                saved = (cols.astype(x.dtype), pads)
            if kept is not None:
                w = rebuild(kept)
            return vjp(g, saved, needs, x, w, *attrs)

        def narrowed(record, x, kept):
            _, saved, (stand_in, w, *attrs), ste = record
            if binary_input:
                saved = (x.astype(np.int8), saved[1])
            if kept is not None:
                w = _stand_in(w)
            return rebuilt, (saved, kept), (stand_in, w, *attrs), ste
        return lambda phase: narrowed if binary_input or (quantized and phase >= 2) else None

    def _params(self, node: NodeSpec) -> tuple:
        """The arena views of ``node``'s parameters after the weight."""
        return tuple([self.arena.views[f"{node.id}.{k}"]
                      for k in OP_PARAMS.get(node.op, ()) if k != "w"])

    @staticmethod
    def _lower_act_quant(nid: str, bits: DType) -> tuple[Callable, Callable]:
        binarize, fake_quant = ad._binarize, ad._fake_quant
        if bits is DType.BIN:
            # sign() reads no bound; only a gradient is gated by one
            def run(model, ins, record):
                return _ste_step(binarize, ins[0], model.binary_bound)
            return _fixed((run, False)), _fixed(lambda x: binarize(x, None)[0])
        scaled = quant.fake_quant_scaled

        def observed(model, x):
            """x, once its EMA has moved the bound, unless that is frozen."""
            state = model.bounds[nid]
            if not state.frozen:
                model.bounds[nid] = quant.update_ema_bound(state, x)
            return x

        def bind_forward(training, phase):
            take = observed if training else (lambda model, x: x)
            if phase < 2:       # the input passes through
                return (lambda model, ins, record: (take(model, ins[0]), None)), True
            # take runs before the bound is read, so reads the moved bound
            return (lambda model, ins, record: _ste_step(
                fake_quant, take(model, ins[0]), model.bounds[nid].bound, bits.bits)), False

        def bind(model, phase):
            if phase < 2:
                return _identity
            scales = _act_scales(model, nid, bits.bits)
            return lambda x: scaled(x, scales, bits.bits)
        return bind_forward, bind

    def _lower_batchnorm(self, node: NodeSpec, params) -> tuple[Callable, Callable]:
        """A BN step; in training, its record is ``_bn_forward``'s with
        ``_lower_bn_input``'s ``(keep, rebuild)``."""
        nid = node.id
        apply = ad._batchnorm_eval_apply
        scale, bias = params

        def bind(model, phase):
            running, dtype = _running(model, nid), model.dtype
            mean, _, k = _cached(model._constants, nid, running, lambda:
                                 ad._batchnorm_eval_constants(scale, *running, dtype))
            return lambda x: apply(x, bias, mean, k)[0]
        return self._bn_forward(nid, params, *self._lower_bn_input(node)), bind

    @staticmethod
    def _bn_forward(nid: str, params, keep, rebuild) -> Callable:
        """The ``bind_forward`` of BN step ``nid``. In training, its record
        keeps ``x - mean`` as ``_batchnorm_train`` saves it, unless
        ``keep(phase)`` returns ``fn(x, record)``: the record then keeps
        what that returns, from which ``rebuild(kept, dtype)`` returns the
        input x in a new array of x's ``dtype`` and layout, and the batch
        mean, and its VJP rebuilds ``x - mean`` by the forward's own code."""
        train, evaluate = ad._batchnorm_train, ad._batchnorm_eval

        def rebuilt(g, saved, needs, x, *affine):
            kept, mean, inv = saved
            centered = rebuild(kept, x.dtype)
            centered -= mean
            return ad._batchnorm_train_vjp(g, (centered, inv), needs, x, *affine)

        def evaluated(model, ins, record):
            return _step(evaluate, ad._batchnorm_eval_vjp, ins,
                         (*params, *_running(model, nid)), True)

        def bind_forward(training, phase):
            kept = keep(phase)

            def trained(model, ins, record):
                stats = model.bn_stats[nid]
                (out, bm, bv), rec = _step(train, ad._batchnorm_train_vjp, ins,
                                           params, True)
                m = model.bn_momentum
                stats["mean"] = _read_only(m * stats["mean"] + (1 - m) * bm)
                stats["var"] = _read_only(m * stats["var"] + (1 - m) * bv)
                return out, rec if kept is None else (
                    rebuilt, (kept(ins[0], record), bm, rec[1][1]), rec[2], None)
            return (trained if training else evaluated), False
        return bind_forward

    def _lower_bn_input(self, node: NodeSpec) -> tuple:
        """``(keep, rebuild)`` for BN ``node``'s training record (see
        ``_bn_forward``), decided from the producing node: from phase 2 on,
        after a conv2d with a binary weight whose input a binary
        ``quantize_act`` makes, x is an integer of magnitude at most
        kh·kw·C, which int16 holds exactly (int32 above 32,767). Else
        ``keep`` returns None in every phase."""
        src = self.graph.node(node.inputs[0])
        if (src.op == "conv2d" and src.attrs["weight_bits"] is DType.BIN
                and _binarized(self.graph, src)):
            reach = math.prod(self.arena.views[f"{src.id}.w"].shape[:3])
            width = np.int16 if reach <= np.iinfo(np.int16).max else np.int32

            def keep(phase):
                return (lambda x, record: x.astype(width)) if phase >= 2 else None
            return keep, (lambda kept, dtype: kept.astype(dtype))
        return _fixed(None), None

    def _lower_weight(self, nid: str, bits: DType,
                      depthwise: bool) -> tuple[Callable, Callable, Callable | None]:
        """``(weight, eval_weight, rebuild)``. ``weight(phase)`` returns the
        phase's ``fn()``, which returns the node's weight as its op reads it,
        quantized from phase 2 on unless ``bits`` is a float type; the ``(w,
        bounds)`` of its straight-through gradient; and what a record keeps
        to rebuild it by ``rebuild(kept)``:
        for a binary weight the arena view, which one sign pass rebuilds;
        for an int weight its grid codes as int8, with the down scale, which
        one multiply rebuilds. A code of -0.0, which the rounding gives to a
        weight in (-B/2C, 0), comes back as +0.0; a VJP reads the weight only
        in matmuls, whose sums start from +0.0 and so do not see the sign of
        a zero term, and no gradient bit changes. The last two are None
        where no quantizer acts. ``eval_weight(model, phase)`` is the
        same weight for the eval program: from phase 2 on it is computed once
        per arena state and kept, read-only, in ``model._constants``."""
        w = self.arena.views[f"{nid}.w"]
        plain = _fixed((w, None, None))
        if bits.is_float:
            return _fixed(plain), _fixed(w), None
        binary = bits is DType.BIN
        # one bound per output channel: (C, mult) for depthwise, else the last axis
        channels = w.shape[2:] if depthwise else w.shape[-1:]
        rows = (-1, math.prod(channels))

        def bounded():
            return quant.weight_channel_bounds(w.reshape(rows)).reshape(channels)

        if binary:
            def quantized():
                bounds = bounded()
                return ad._binarize(w, bounds)[0], (w, bounds), w

            def rebuild(w):
                return ad._binarize(w, None)[0]
        else:
            def quantized():
                # _fake_quant's two steps, with its grid codes kept between them
                bounds = bounded()
                up, down = ad._fake_quant_scales(bounds, bits.bits, w.dtype)
                q = quant.fake_quant_codes(w, up, bits.bits)
                codes = q.astype(np.int8)
                q *= down
                return q, (w, bounds), (codes, down)

            def rebuild(kept):
                codes, down = kept
                q = codes.astype(down.dtype)
                q *= down
                return q

        def weight(phase):
            return plain if phase < 2 else quantized

        def eval_weight(model, phase):
            if phase < 2:
                return w
            # sign() reads no bound; only a gradient is gated by one
            return _cached(model._constants, nid, (), lambda: _read_only(
                rebuild(w) if binary else quantized()[0]))
        return weight, eval_weight, rebuild

    def _lower_tail(self, act: int, mul: int, bn: int) -> tuple:
        """The ``bind_forward`` of each of a PokeConv tail's DPReLU, SE
        multiply and second BN, at step indices ``act``, ``mul`` and ``bn``:
        the last three nodes of a ``pokeconv_tail`` match of
        ``graphir.FUSIONS``, each read once, by the next. In eval mode each
        is the node's own step. In training, the records keep no DPReLU
        output and no centred input of the BN:
        - the DPReLU's keeps its ``(shifted, pos)`` in a list;
        - the multiply's keeps a stand-in of the DPReLU output, the gate and
          an empty list;
        - the BN's keeps the two lists, the gate and its batch mean. Its
          VJP, which runs first, rebuilds the DPReLU's slope and output
          ``a``, then ``a·gate``, by the forward's own code, and adds the
          slope to the DPReLU's list and ``a`` to the multiply's. Their VJPs
          run next, as each node is its producer's only reader, and read
          them there.
        ``_lower_bn_dprelu`` folds the same chain for ``logits``."""
        nodes = self.graph.nodes
        _, beta, gamma, eta = self._params(nodes[act])
        # each node's own step, the same in every mode
        activate, multiply = [self._lower(nodes[i])[0](False, 1)[0] for i in (act, mul)]

        def activate_kept(model, ins, record):
            out, (vjp, saved, call, ste) = activate(model, ins, record)
            return out, (vjp, list(saved), call, ste)

        def multiply_kept(model, ins, record):
            out, (_, _, (a, gate), _) = multiply(model, ins, record)
            return out, (mul_vjp, [], (_stand_in(a), gate), None)

        def mul_vjp(g, saved, needs, a, gate):
            return ad._mul_vjp(g, None, needs, saved[0], gate)

        def keep(x, record):
            _, cell, (_, gate), _ = record[mul]
            return record[act][1], cell, gate

        def rebuild(kept, dtype):
            saved, cell, gate = kept
            shifted, pos = saved
            slope = ad._dprelu_slope(pos, gamma, eta)      # named, as in _dprelu
            a = slope * shifted
            a -= beta
            saved.append(slope)
            cell.append(a)
            return ad._mul(a, gate)[0]

        def by_mode(trained, evaluated):
            return lambda training, phase: (trained if training else evaluated, False)
        return (by_mode(activate_kept, activate), by_mode(multiply_kept, multiply),
                self._bn_forward(nodes[bn].id, self._params(nodes[bn]), _fixed(keep),
                                 rebuild))

    def _lower_bn_dprelu(self, nodes: list) -> Callable | None:
        """A stem, ``batchnorm -> dprelu``, or a PokeConv tail, ``batchnorm
        -> add (1 or 2) -> dprelu -> multiply -> batchnorm``. The step
        computes ``t = x·k + (each add's other input) + c``, with the first
        BN's eval factor k and ``c = bias - mean·k - alpha``, then the rest as
        ``t·a + |t|·b - beta`` (see ``_dprelu_folded``); in a tail, with the
        second BN's eval factor k2 folded into ``ka = k2·a``, ``kb = k2·b``
        and ``kbeta = k2·beta``, as ``gate·(t·ka + |t|·kb - kbeta) + d``. None
        if the chain's output is larger than its input, which ``t`` cannot
        hold."""
        bn1, act = nodes[0], next(n for n in nodes if n.op == "dprelu")
        if self.shapes[nodes[-1].id] != self.shapes[bn1.inputs[0]]:
            return None
        (scale1, bias1), (alpha, beta, gamma, eta) = self._params(bn1), self._params(act)

        def first_bn(model, slopes=False):
            """k and c of the first BN, and the DPReLU's two slopes if asked."""
            running, dtype = _running(model, bn1.id), model.dtype

            def compute():
                mean, _, k = ad._batchnorm_eval_constants(scale1, *running, dtype)
                c = bias1 - mean * k - alpha
                return (k, c, (eta + gamma) / 2, (eta - gamma) / 2) if slopes else (k, c)
            return _cached(model._constants, bn1.id, running, compute)

        if act is nodes[-1]:
            def bind_stem(model, phase):
                k, c, a, b = first_bn(model, slopes=True)

                def stem(x):
                    t = x * k
                    t += c
                    t = _dprelu_folded(t, a, b)
                    t -= beta
                    return t
                return stem
            return bind_stem
        bn2 = nodes[-1]
        scale2, bias2 = self._params(bn2)

        def bind(model, phase):
            (k, c), running, dtype = first_bn(model), _running(model, bn2.id), model.dtype

            def compute():
                mean, _, k2 = ad._batchnorm_eval_constants(scale2, *running, dtype)
                return (k2 * ((eta + gamma) / 2), k2 * ((eta - gamma) / 2),
                        bias2 - mean * k2, k2 * beta)
            ka, kb, d, kbeta = _cached(model._constants, bn2.id, running, compute)

            def tail(x, *rest):
                *shortcuts, gate = rest
                t = x * k
                for s in shortcuts:
                    t += s
                t += c
                t = _dprelu_folded(t, ka, kb)
                t -= kbeta
                t *= gate
                t += d
                return t
            return tail
        return bind

    def _lower_binary_conv(self, nodes: list, binds: list) -> Callable:
        """A ``quantize_act -> conv2d`` whose quantizer is binary. From phase 2
        on, with a binary weight W, the step computes the conv of the signs
        ``2b - 1`` of its input, with ``b = (x >= 0)``, as ``b @ 2W -
        border``, where ``border`` is each filter's sum of W over the taps it
        keeps: one GEMM of the im2col of b, with a column of ones, and of 2W
        with a row of ``-border``, bound once. The padding reads b = 1/2,
        whose sign, 2b - 1, is the zero that the chain's conv reads there;
        and a tap that reads only padding at every output position is
        dropped when binding. Every term and sum is a whole number, which the
        float type holds exactly, so the output is bitwise the chain's.
        Otherwise the step runs the chain's own steps, ``binds``, in turn:
        sign, then the conv."""
        conv = nodes[1]
        a = conv.attrs
        if a["weight_bits"] is not DType.BIN:
            return lambda model, phase: _chained([b(model, phase) for b in binds])
        h, w, c = self.shapes[conv.inputs[0]]
        ho, wo, f = self.shapes[conv.id]
        stride = a["stride"]
        (taps_h, read_h, (pt, pb)), (taps_w, read_w, (pl, pr)) = (
            _live_span(size, k, stride, a["padding"]) for size, k in zip((h, w), a["kernel"]))
        kh, kw = taps_h.stop - taps_h.start, taps_w.stop - taps_w.start
        padded, depth = (read_h + pt + pb, read_w + pl + pr, c), kh * kw * c
        # if each output reads one input, the one at its position, b is
        # written into the im2col at once
        rows = kh == kw == 1 and padded[:2] == (ho, wo)
        weight = self.arena.views[f"{conv.id}.w"]

        def signs():
            s = ad._binarize(weight, None)[0][taps_h, taps_w].reshape(depth, f)
            return _read_only(np.concatenate([s + s, -s.sum(axis=0, keepdims=True)]))

        def bind(model, phase):
            if phase < 2:
                return _chained([b(model, phase) for b in binds])
            w2, dtype = _cached(model._constants, conv.id, (), signs), model.dtype

            def step(x):
                n, x = len(x), x[:, :read_h, :read_w]
                cols = np.empty((n * ho * wo, depth + 1), dtype)
                cols[:, depth] = 1
                if rows:
                    np.greater_equal(x, 0, out=cols[:, :depth].reshape(x.shape))
                else:
                    if pt or pb or pl or pr:
                        b = np.full((n, *padded), 0.5, dtype)
                        np.greater_equal(x, 0, out=b[:, pt:pt + read_h, pl:pl + read_w])
                    else:
                        b = x >= 0
                    win = windows(b, kh, kw, stride, "valid")[0]
                    cols[:, :depth].reshape(n, ho, wo, kh, kw, c)[...] = win.transpose(
                        0, 1, 2, 4, 5, 3)
                return (cols @ w2).reshape(n, ho, wo, f)
            return step
        return bind

    def _lower_mean_quant(self, nodes: list, binds: list) -> Callable:
        """A head, ``spatial_mean -> quantize_act``, or an SE gate, which
        goes on ``-> dense -> relu -> quantize_act -> dense -> hardsigmoid``.
        From phase 2 on, the mean's divide folds into the first quantizer's
        scale. In an SE gate, the second quantizer's up scale folds into the
        first dense layer, and its down scale and hardsigmoid's ``(x + 3) /
        6`` into the second; these scaled weights and biases replace the
        quantized weights in ``_constants``. In phase 1, where no 4/8-bit
        quantizer acts, the step runs the chain's own steps, ``binds``, in
        turn."""
        mean, q1 = nodes[:2]
        count = math.prod(self.shapes[mean.inputs[0]][:2])
        bits1, scaled = q1.attrs["act_bits"].bits, quant.fake_quant_scaled
        top1 = quant.grid_endpoint(bits1) - quant.DEFAULT_EPSILON
        gated = len(nodes) > 2
        if gated:
            fc1, q2, fc2 = nodes[2], nodes[4], nodes[5]
            bits2 = q2.attrs["act_bits"].bits
            top = quant.grid_endpoint(bits2) - quant.DEFAULT_EPSILON
            # each dense layer's weight as forward's phase-2 step reads it
            (w1, b1), (w2, b2) = [
                (self._lower_weight(fc.id, fc.attrs["weight_bits"], False)[0](2),
                 *self._params(fc)) for fc in (fc1, fc2)]

        def bind(model, phase):
            if phase < 2:
                return _chained([b(model, phase) for b in binds])
            up, down = _act_scales(model, q1.id, bits1)
            up = up / count
            if not gated:
                return lambda x: scaled(np.add.reduce(x, (1, 2), None, None, True),
                                        (up, down), bits1)
            up2, down2 = _act_scales(model, q2.id, bits2)
            state = (model.bounds[q2.id],)
            w1s, b1s = _cached(model._constants, fc1.id, state, lambda: (
                _read_only(w1()[0] * up2), _read_only(b1 * up2)))
            w2s, b2s = _cached(model._constants, fc2.id, state, lambda: (
                _read_only(w2()[0] * (down2 / 6)), _read_only(b2 / 6 + 0.5)))

            def gate(x):
                # the first quantizer of the mean: fake_quant_scaled's clip,
                # then its rounding in three passes, whose -0.0 for a code of
                # -0.0 only the matmul reads (see _round_half_away)
                q = np.add.reduce(x, (1, 2), None, None, True)
                q *= up
                np.maximum(q, -top1, out=q)
                np.minimum(q, top1, out=q)
                q = _round_half_away(q)
                q *= down
                h = q @ w1s
                h += b1s
                # relu, then int_cast's clip to the grid's top and its round
                # half away from zero, which is floor(h + 0.5) as h >= 0
                np.maximum(h, 0.0, out=h)
                np.minimum(h, top, out=h)
                h += 0.5
                g = np.floor(h, out=h) @ w2s
                g += b2s
                np.maximum(g, 0.0, out=g)
                return np.minimum(g, 1.0, out=g)
            return gate
        return bind

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    # zero_grad() is the arena's, set in __init__

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: np.array(v) for name, v in self.params.items()}
        for nid, stats in self.bn_stats.items():
            state[nid + ".running_mean"] = np.array(stats["mean"])
            state[nid + ".running_var"] = np.array(stats["var"])
        for nid, bound in self.bounds.items():
            state[nid + ".bound"] = np.array(bound.bound, dtype=np.float64)
            state[nid + ".bound_frozen"] = np.array(int(bound.frozen))
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Copies ``state`` into the model; parameters are written into the
        arena in place, and running statistics and bounds are stored as
        read-only copies, so that no array of ``state`` is aliased. Raises one
        ValueError naming every missing, unexpected and wrong-shaped entry
        before anything is written."""
        want = {k: v.shape for k, v in self.state_dict().items()}
        errors = [f"missing {k} {want[k]}" for k in want if k not in state]
        errors += [f"unexpected {k} {np.shape(state[k])}"
                   for k in state if k not in want]
        errors += [f"{k} has shape {np.shape(state[k])}, expected {want[k]}"
                   for k in want if k in state and np.shape(state[k]) != want[k]]
        if errors:
            raise ValueError("state dict does not match the model: "
                             + "; ".join(errors))
        data = self.arena.writable()
        for name, span in self.arena.spans.items():
            data[span] = np.ravel(state[name])
        self.arena.grad.fill(0)
        for nid, stats in self.bn_stats.items():
            for key in ("mean", "var"):
                stats[key] = _read_only(np.array(state[f"{nid}.running_{key}"],
                                                 dtype=self.dtype))
        for nid in list(self.bounds):
            self.bounds[nid] = quant.BoundState(
                bound=_read_only(np.array(state[nid + ".bound"], dtype=np.float64)),
                frozen=bool(int(state[nid + ".bound_frozen"])),
                ema_alpha=self.bounds[nid].ema_alpha)
