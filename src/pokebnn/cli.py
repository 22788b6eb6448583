"""Command-line surface: cost analysis, kernel verification, gradient checks,
toy training, builtin listing, and graph export.

Exit codes: 0 success, 1 failed check, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import cost, kernels, train
from .builders import build_named, builtin_models
from .graphir import GraphError, load_graph
from .nn.model import Model

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _resolve_model(spec: str):
    try:
        return build_named(spec)
    except KeyError:
        pass
    try:
        return load_graph(spec)
    except OSError as e:
        print(f"error: unknown model {spec!r} (not a builtin, not a readable "
              f"file: {e.strerror})", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    except GraphError as e:
        print(f"error: invalid graph file {spec!r}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_CHECK_FAILED) from None


def _usage_error(msg: str) -> bool:
    print(f"error: {msg}", file=sys.stderr)
    return True


def _output_path(path: str) -> str:
    """The argparse type of every output file flag: checked at parse time,
    before any work, so a bad path is a usage error naming the flag."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise argparse.ArgumentTypeError(f"{path}: no such directory")
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    g = _resolve_model(args.model)
    report = cost.analyze_graph(g, elementwise=args.elementwise,
                                fp32_as_bf16=args.fp32_as_bf16)
    print(cost.render_report(report, fmt=args.format))
    if args.elementwise and args.format == "table":
        print()
        print(cost.render_elementwise(report.elementwise))
        print(f"{'Elementwise ACE (1e9)':34}  {report.elementwise_ace / 1e9:>10.1f}")
    return EXIT_OK


def cmd_list_builtins(args) -> int:
    reports = []
    for name in sorted(builtin_models()):
        report = cost.analyze_graph(build_named(name))
        report.name = name  # print the resolvable name, not the graph label
        reports.append(report)
    print(cost.render_report(reports, fmt="table"))
    return EXIT_OK


def cmd_export_graph(args) -> int:
    from .graphir import save_graph
    g = _resolve_model(args.model)
    save_graph(g, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify_kernels(args) -> int:
    if args.cases < 1:
        _usage_error("--cases must be >= 1")
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    failures = []

    # Channels past one word with a partial last word, even kernels (uneven
    # "same" padding), stride 3 and one-row/one-column inputs reach the
    # border correction of binary_conv2d on multi-word shapes. int_conv2d
    # runs on int8 values over the same geometry.
    for case in range(args.cases):
        h, w = rng.integers(3, 12, size=2)
        if rng.random() < 0.2:
            h, w = (1, w) if rng.random() < 0.5 else (h, 1)
        c = int(rng.choice([1, 3, 8, 16, 64, 65, 96, 130, 200]))
        f = int(rng.integers(1, 41))
        k = int(rng.choice([1, 2, 3, 4]))
        stride = int(rng.choice([1, 2, 3]))
        padding = str(rng.choice(["same", "valid"]))
        if padding == "valid" and (h < k or w < k):
            padding = "same"
        geometry = dict(h=int(h), w=int(w), c=c, f=f, k=k,
                        stride=stride, padding=padding)
        act = np.where(rng.random((h, w, c)) < 0.5, -1.0, 1.0)
        wts = np.where(rng.random((f, k, k, c)) < 0.5, -1.0, 1.0)
        got = kernels.binary_conv2d(kernels.pack_signs(act),
                                    kernels.pack_signs(wts),
                                    stride=stride, padding=padding)
        ref = kernels.float_conv2d(act, np.moveaxis(wts, 0, -1),
                                   stride=stride, padding=padding)
        if args.inject_fault and case == 0:
            got = got.copy()
            got.flat[0] ^= 1
        if not np.array_equal(got, ref.astype(np.int64)):
            failures.append(("binary_conv2d", case, geometry))
        av = rng.integers(-127, 128, size=(h, w, c))
        wv = rng.integers(-127, 128, size=(k, k, c, f))
        acc, _ = kernels.int_conv2d(kernels.IntTensor(av, _int_dtype(8)),
                                    kernels.IntTensor(wv, _int_dtype(8)),
                                    stride=stride, padding=padding)
        ref = kernels.float_conv2d(av, wv, stride=stride, padding=padding)
        if not np.array_equal(acc, ref.astype(np.int64)):
            failures.append(("int_conv2d", case, geometry))

    matmul_cases = max(1, args.cases // 5)
    for case in range(matmul_cases):
        for bits_i, bits_j in ((1, 1), (2, 4), (4, 4), (8, 8), (4, 8)):
            m, kk, n = rng.integers(1, 9, size=3)
            a = rng.integers(0, 2 ** bits_i, size=(m, kk))
            b = rng.integers(0, 2 ** bits_j, size=(kk, n))
            ta = kernels.IntTensor(a, _int_dtype(bits_i), signed=False)
            tb = kernels.IntTensor(b, _int_dtype(bits_j), signed=False)
            result = kernels.bitplane_matmul(ta, tb)
            if not np.array_equal(result.values, a @ b):
                failures.append(("bitplane_matmul", case,
                                 dict(I=bits_i, J=bits_j)))
            if result.binary_macs != bits_i * bits_j * m * kk * n:
                failures.append(("bitplane_matmul_cost", case,
                                 dict(I=bits_i, J=bits_j)))

    for case in range(max(1, args.cases // 10)):
        shape = tuple(rng.integers(1, 6, size=3))
        x = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        if not np.array_equal(kernels.unpack_signs(kernels.pack_signs(x)), x):
            failures.append(("pack_roundtrip", case, dict(shape=shape)))

    total = 2 * args.cases + matmul_cases * 5 + max(1, args.cases // 10)
    if failures:
        print(f"FAIL: {len(failures)} of {total} cases mismatched")
        for kind, case, info in failures[:10]:
            print(f"  {kind} case {case}: {info}")
        return EXIT_CHECK_FAILED
    print(f"ok: binary_conv2d={args.cases} int_conv2d={args.cases} "
          f"bitplane_matmul={matmul_cases * 5} "
          f"pack_roundtrip={max(1, args.cases // 10)} cases, all exact")
    return EXIT_OK


def _int_dtype(bits: int):
    from .graphir import DType
    return {1: DType.BIN, 2: DType.INT2, 4: DType.INT4, 8: DType.INT8}[bits]


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        _usage_error("--instances must be >= 1")
        return EXIT_USAGE
    from .gradcheck import run_gradcheck
    results = run_gradcheck(seed=args.seed, instances=args.instances)
    worst = 0.0
    for op, err in results.items():
        print(f"{op:24} max rel err {err:.3e}")
        worst = max(worst, err)
    if worst >= 1e-3:
        print(f"FAIL: worst relative error {worst:.3e} >= 1e-3")
        return EXIT_CHECK_FAILED
    print(f"ok: worst relative error {worst:.3e}")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    cfg_kwargs = {}
    try:
        if args.config:
            with open(args.config) as f:
                cfg_kwargs = {**json.load(f)}   # a TypeError unless an object
        if args.steps is not None:
            cfg_kwargs["total_steps"] = args.steps
        if args.seed is not None:
            cfg_kwargs["seed"] = args.seed
        cfg = train.TrainConfig(**cfg_kwargs)
    except (TypeError, ValueError) as e:
        raise ValueError(f"config {args.config}: {e}" if args.config else e) from None

    from .builders import build_pokebnn_toy
    g = build_pokebnn_toy(m=args.multiplier, groups=args.groups,
                          input_shape=(args.size, args.size, 3))
    dataset = train.make_toy_dataset(n=args.samples,
                                     shape=(args.size, args.size, 3),
                                     seed=cfg.seed)
    model = Model(g, seed=cfg.seed, dtype=np.float32)
    if cfg.distill:
        try:
            dataset.teacher = train.load_teacher_probs(   # a column per class
                cfg.distill, classes=model.shapes[g.nodes[-1].id][-1])
            if len(dataset.teacher) < args.samples:
                raise ValueError(f"{cfg.distill}: {len(dataset.teacher)} rows "
                                 f"for {args.samples} samples")
        except ValueError as e:
            print(f"error: teacher file {e}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    result = train.train_loop(model, dataset, cfg, metrics_path=args.metrics)
    logits = model.logits(dataset.x, phase=2)
    acc = train.top1_accuracy(logits, dataset.y)
    print(f"final accuracy {acc:.4f} after {cfg.total_steps} steps "
          f"(last loss {result.records[-1]['loss']:.4f})")
    if args.checkpoint:
        from .nn.checkpoint import save_tensors
        save_tensors(args.checkpoint, result.state)
        print(f"wrote {args.checkpoint}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pokebnn",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="cost-analyze a builtin or graph file")
    a.add_argument("--model", required=True, help="builtin name or JSON graph path")
    a.add_argument("--format", choices=("table", "csv", "json"), default="table")
    a.add_argument("--fp32-as-bf16", action="store_true",
                   help="charge fp32 MACs at the bf16 ACE rate")
    a.add_argument("--elementwise", action="store_true",
                   help="include the elementwise ADD/MUL breakdown")
    a.set_defaults(fn=cmd_analyze)

    v = sub.add_parser("verify-kernels", help="randomized kernel equivalence suites")
    v.add_argument("--cases", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    v.set_defaults(fn=cmd_verify_kernels)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--instances", type=int, default=20)
    gc.set_defaults(fn=cmd_gradcheck)

    t = sub.add_parser("train-toy", help="train the toy model on synthetic data")
    t.add_argument("--steps", type=int, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--config", help="JSON file with TrainConfig fields")
    t.add_argument("--multiplier", type=float, default=0.25)
    t.add_argument("--groups", type=int, default=4)
    t.add_argument("--size", type=int, default=16, help="input spatial size")
    t.add_argument("--samples", type=int, default=512)
    t.add_argument("--metrics", type=_output_path,
                   help="write per-step JSON records here")
    t.add_argument("--checkpoint", type=_output_path,
                   help="write the final checkpoint here")
    t.set_defaults(fn=cmd_train_toy)

    lb = sub.add_parser("list-builtins", help="builtin models with cost summaries")
    lb.set_defaults(fn=cmd_list_builtins)

    e = sub.add_parser("export-graph", help="write a builtin graph as JSON")
    e.add_argument("model", help="builtin name")
    e.add_argument("--out", required=True, type=_output_path)
    e.set_defaults(fn=cmd_export_graph)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_CHECK_FAILED
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
