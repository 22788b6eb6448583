"""pokebnn benchmark: one workload per run, metrics as JSON on the last line.

Usage, from the repository root:

    python3 benchmarks/run.py --workload toy-train --seed 1 --seconds 25 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` and explained in
``benchmarks/METRICS.md``. With ``--trace 0`` the run reports the end-to-end
metrics, measured untraced. With ``--trace 1`` it spends half its time
untraced and half with spans recorded around every call into the library's
layers, reports the per-layer metrics and the tracing overhead, and writes
the spans to ``.bench_out/``.

Each run builds its inputs from ``--seed``, repeats set-up several times and
reports the median, warms up untimed, then measures for ``--seconds``. The
library is imported from ``src/`` next to this directory; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Set-up repeats per workload, about half before measuring and the rest
# after; the median is reported as setup_s.
SETUP_REPEATS = {"kernels-1.0x": 3}
DEFAULT_SETUP_REPEATS = 9

# Untraced/traced alternations in a traced run.
TRACE_ROUNDS = 4

# Layer ops whose forward self time is reported on its own.
AUTODIFF_OPS = ("conv2d", "depthwise_conv2d", "dense", "batchnorm_train",
                "batchnorm_eval", "binarize", "fake_quant", "dprelu", "add", "mul")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "processes": 1,
    }


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(cls, seed, repeats):
    """Builds the workload ``repeats`` times; returns (last one, seconds each)."""
    times, workload = [], None
    for _ in range(repeats):
        workload = cls()    # releases the previous build before this one
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return workload, times


def traced_run(workload, seconds):
    """Alternates untraced and traced measurement, half the time each.

    Alternating in rounds keeps drift in machine load from showing up as
    tracing overhead. Returns (tracer, untraced, traced).
    """
    import tracing
    from workloads import Measured

    tracer = tracing.Tracer()
    untraced, traced = Measured(), Measured()
    chunk = seconds / (2 * TRACE_ROUNDS)
    for _ in range(TRACE_ROUNDS):
        untraced.add(workload.measure(chunk))
        offset = traced.attempted

        def mark(op, tag=None):
            tracer.op = offset + op
            tracer.tag = tag

        tracing.instrument(tracer)
        try:
            traced.add(workload.measure(chunk, mark))
        finally:
            tracer.restore()
    return tracer, untraced, traced


def end_to_end(m, setup_times, peak_rss):
    return {
        "op_ms_p90": percentile(m.op_ms, 90),
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mib": peak_rss,
    }


def per_layer(spans, n_ops, workload, untraced, traced):
    """Per-layer metrics of one traced measurement of ``n_ops`` operations."""
    from tracing import self_times, within

    own = self_times(spans)
    total = {}
    self_total = {}
    calls = {}
    for (name, start, end, *_), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1

    def per_op_ms(seconds):
        return seconds * 1e3 / n_ops

    forward = "nn.model.forward"
    op_calls = sum(1 for i, sp in enumerate(spans)
                   if sp[0].startswith("nn.autodiff.") and sp[0] != "nn.autodiff.backward"
                   and within(spans, i, forward))
    out = {
        "nn.autodiff.backward_ms": per_op_ms(total.get("nn.autodiff.backward", 0.0)),
        "nn.model.forward_ms": per_op_ms(total.get(forward, 0.0)),
        "nn.model.forward_self_ms": per_op_ms(self_total.get(forward, 0.0)),
        "nn.autodiff.op_calls_per_forward":
            op_calls / calls[forward] if calls.get(forward) else 0.0,
    }
    for op in AUTODIFF_OPS:
        out[f"nn.autodiff.{op}_ms"] = per_op_ms(self_total.get(f"nn.autodiff.{op}", 0.0))
    for name in ("train.adam_step", "quant.update_ema_bound",
                 "quant.weight_channel_bounds", "builders.build_named",
                 "graphir.infer_shapes", "cost.count_macs",
                 "cost.count_elementwise", "cost.model_size"):
        out[f"{name}_ms"] = per_op_ms(self_total.get(name, 0.0))
    out["graphir.json_roundtrip_ms"] = per_op_ms(
        self_total.get("graphir.graph_to_json", 0.0)
        + self_total.get("graphir.graph_from_json", 0.0))
    out.update(kernel_metrics(spans, n_ops, workload))
    out["trace.overhead_ms"] = float(np.mean(traced.op_ms) - np.mean(untraced.op_ms))
    out["trace.spans_per_op"] = len(spans) / n_ops
    return out


def kernel_metrics(spans, n_ops, workload):
    """Kernel throughput per distinct binary-conv shape and in aggregate.

    A kernel span's tag names its layer, which gives the MACs of the call.
    Workloads that run no kernels report zeros under the same names.
    """
    from workloads import Kernels10x

    layers = {layer.label: layer for layer in getattr(workload, "layers", ())}
    seconds, macs = {}, {}
    for name, start, end, _, _, tag in spans:
        if name.startswith("kernels.") and tag in layers:
            seconds[name, tag] = seconds.get((name, tag), 0.0) + (end - start)
            macs[name, tag] = macs.get((name, tag), 0) + layers[tag].macs

    def keys(name, tag):
        return [k for k in seconds if k[0] == name and tag in (None, k[1])]

    def gmacs(name, tag=None):
        t = sum(seconds[k] for k in keys(name, tag))
        return sum(macs[k] for k in keys(name, tag)) / t / 1e9 if t else 0.0

    def per_op_ms(name, tag=None):
        return sum(seconds[k] for k in keys(name, tag)) * 1e3 / n_ops

    out = {
        "kernels.pack_signs_ms": per_op_ms("kernels.pack_signs"),
        "kernels.binary_conv2d_gmacs": gmacs("kernels.binary_conv2d"),
        "kernels.int_conv2d_gmacs": gmacs("kernels.int_conv2d"),
        "kernels.int_dense_gmacs": gmacs("kernels.int_dense"),
    }
    for label in Kernels10x.binary_labels():
        out[f"kernels.pack_signs_ms.{label}"] = per_op_ms("kernels.pack_signs", label)
        out[f"kernels.binary_conv2d_gmacs.{label}"] = gmacs("kernels.binary_conv2d", label)
    is_kernels = isinstance(workload, Kernels10x)
    out["kernels.macs_per_image"] = workload.macs_per_image() if is_kernels else 0
    out["kernels.bytes_per_image"] = workload.bytes_per_image() if is_kernels else 0
    out["kernels.uncovered_macs_per_image"] = (sum(workload.uncovered.values())
                                               if is_kernels else 0)
    return out


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"{name:52} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pokebnn" / "__init__.py").is_file():
        print(f"error: no pokebnn package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    env = environment()
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# env " + json.dumps(env))

    repeats = SETUP_REPEATS.get(args.workload, DEFAULT_SETUP_REPEATS)
    workload, setup_times = timed_setups(cls, args.seed, repeats - repeats // 2)
    workload.warm_up()

    if args.trace:
        tracer, untraced, traced = traced_run(workload, args.seconds)
        runs = (untraced, traced)
        metrics = per_layer(tracer.spans, traced.attempted, workload,
                            untraced, traced)
        declared = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "span_fields": tracing.SPAN_FIELDS,
                       "spans": tracing.export(tracer.spans),
                       "per_layer": metrics}, f)
        print(f"# spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        measured = workload.measure(args.seconds)
        runs = (measured,)
        peak_rss = peak_rss_mib()
        # The machine's speed drifts over seconds; setting up again after
        # measuring keeps setup_s from hanging on one moment.
        setup_times += timed_setups(cls, args.seed, repeats // 2)[1]
        metrics = end_to_end(measured, setup_times, peak_rss)
        declared = spec["end_to_end"]
        # The median and the throughput are printed, not declared: see
        # benchmarks/METRICS.md for why they cannot carry a bound here.
        print(f"# samples: {len(measured.op_ms)} operations timed")
        for alias, value, unit in zip(
                cls.aliases,
                (percentile(measured.op_ms, 50), percentile(measured.op_ms, 90),
                 measured.items / measured.busy_s),
                ("ms", "ms", "1/s")):
            print(f"{alias:52} {value:>14.6g} {unit}")
        for alias, (value, unit) in measured.notes.items():
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"{alias:52} {text:>14} {unit}")

    units = {d["name"]: d["unit"] for d in declared}
    if set(metrics) != set(units):
        print("error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print_metrics(metrics, units)
    print(f"{'failed_share':52} {failed / attempted:>14.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
