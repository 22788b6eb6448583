"""The behaviour contract's digests, pinned.

The same seed must give bitwise-equal loss curves, and the gradient and
kernel checks must print the same report. A change inside a VJP, or of the
memory layout of an intermediate, can move every loss bit while each other
test stays green, so these tests pin the outputs themselves:

- the sha256 prefix of the toy-train benchmark's seed-1 loss curve, with
  the configuration read from ``benchmarks/workloads.py``;
- those of the ``pokebnn gradcheck --seed 0`` and ``pokebnn verify-kernels``
  outputs.

Float32 BLAS sums depend on the CPU kernel that the BLAS library picks at
run time, so the pins are keyed by the configuration that numpy's bundled
OpenBLAS reports at run time, which names that kernel; with another BLAS, by
the build-time configuration that ``np.show_config()`` reports. On a
configuration with no pins, each test fails with a message that prints the
configuration and the digest; a new entry then records them. A change that
moves a digest on purpose updates its pin and says so in CHANGES.md.
"""

import ctypes
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
    """The configuration string of the OpenBLAS that numpy bundles, as
    ``scipy_openblas_get_config64_`` reports it at run time, naming the
    kernel in use (``OPENBLAS_CORETYPE`` forces one); else, as for another
    BLAS, numpy's build-time BLAS name, version and configuration."""
    numpy_dir = pathlib.Path(np.__file__).parent
    for path in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                        *numpy_dir.glob(".dylibs/*openblas*")]):
        try:
            get_config = ctypes.CDLL(str(path)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return get_config().decode()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return " ".join(str(blas.get(key)) for key in
                    ("name", "version", "openblas configuration"))


def _pins(toy_train: str, gradcheck: str) -> dict:
    return {"toy-train": toy_train, "gradcheck": gradcheck,
            "verify-kernels": "9a657a4b99724315"}


# sha256 prefixes by BLAS configuration. SkylakeX is the kernel that
# OpenBLAS picks on the CPU where the pins were taken. The other entries were
# measured on that CPU by forcing a kernel with OPENBLAS_CORETYPE (Prescott
# runs as Katmai), and are unconfirmed on a CPU whose OpenBLAS picks that
# kernel itself
_OPENBLAS = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY {} MAX_THREADS=64"
PINS = {
    _OPENBLAS.format("SkylakeX"): _pins("ba223eb1f4fdbc7a", "90ae5f1ebc750e8b"),
    _OPENBLAS.format("Haswell"): _pins("8e0e064c2482aecc", "2191c4b150686c3f"),
    _OPENBLAS.format("Sandybridge"): _pins("4d1bec155ed0477d", "0d795411787379aa"),
    _OPENBLAS.format("Katmai"): _pins("cfa760ae311d168c", "68d4ab38a3d1385c"),
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
