from collections import Counter

import pytest

from pokebnn.builders import build_pokebnn
from pokebnn.cost import count_elementwise
from pokebnn.nn.autodiff import Parameter


@pytest.fixture(scope="session")
def pokebnn_1x_elementwise():
    return count_elementwise(build_pokebnn(1))


@pytest.fixture
def accumulations(monkeypatch):
    """A Counter of parameter names, one count per gradient that backward
    accumulates into a Parameter."""
    seen = Counter()
    accumulate = Parameter._accumulate

    def counted(self, g):
        seen[self.name] += 1
        accumulate(self, g)

    monkeypatch.setattr(Parameter, "_accumulate", counted)
    return seen
