"""The behaviour contract's digests, pinned.

The same seed must give bitwise-equal loss curves, and the gradient and
kernel checks must print the same report. A change inside a VJP, or of the
memory layout of an intermediate, can move every loss bit while each other
test stays green, so these tests pin the outputs themselves:

- the sha256 prefix of the toy-train benchmark's seed-1 loss curve, with
  the configuration read from ``benchmarks/workloads.py``;
- those of the ``pokebnn gradcheck --seed 0`` and ``pokebnn verify-kernels``
  outputs.

Float32 BLAS sums depend on the CPU kernel that the BLAS library picks, so
the pins are keyed by the BLAS configuration that ``np.show_config()``
reports. On a configuration with no pins, each test fails with a message
that prints the configuration and the digest; a new entry then records
them. A change that moves a digest on purpose updates its pin and says so in
CHANGES.md.
"""

import hashlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from pokebnn import builders, train
from pokebnn.cli import main
from pokebnn.nn.model import Model

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def load_workloads():
    """``benchmarks/workloads.py`` as a module, so that the test and the
    benchmark read one configuration."""
    name = "benchmark_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        # registered first: its dataclasses look their module up by name
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def blas_configuration() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return " ".join(str(blas.get(key)) for key in
                    ("name", "version", "openblas configuration"))


# sha256 prefixes by BLAS configuration
PINS = {
    "scipy-openblas 0.3.31.188.0 OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
    "NO_AFFINITY Haswell MAX_THREADS=64": {
        "toy-train": "ba223eb1f4fdbc7a",
        "gradcheck": "90ae5f1ebc750e8b",
        "verify-kernels": "9a657a4b99724315",
    },
}


def assert_pinned(name: str, digest: str) -> None:
    config = blas_configuration()
    pins = PINS.get(config)
    if pins is None:
        pytest.fail(f"no pins for the BLAS configuration {config!r}: "
                    f"{name} gives {digest}")
    assert digest == pins[name], (f"{name} gives {digest}, pinned {pins[name]} "
                                  f"for the BLAS configuration {config!r}")


def test_toy_train_loss_digest():
    w = load_workloads()
    seed = 1
    graph = builders.build_pokebnn_toy(**w.TOY_GRAPH)
    data = train.make_toy_dataset(n=w.TOY_SAMPLES, shape=w.TOY_GRAPH["input_shape"],
                                  seed=seed)
    cfg = train.TrainConfig(total_steps=w.ToyTrain.STEPS,
                            phase_switch_step=w.ToyTrain.SWITCH,
                            seed=seed, batch_size=w.BATCH)
    result = train.train_loop(Model(graph, seed=seed, dtype=np.float32), data, cfg)
    losses = np.array([r["loss"] for r in result.records], dtype=np.float64)
    assert len(losses) == w.ToyTrain.STEPS
    assert_pinned("toy-train", hashlib.sha256(losses.tobytes()).hexdigest()[:16])


@pytest.mark.parametrize("argv", [["gradcheck", "--seed", "0"], ["verify-kernels"]],
                         ids=["gradcheck", "verify-kernels"])
def test_report_digest(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert not err
    assert_pinned(argv[0], hashlib.sha256(out.encode()).hexdigest()[:16])
