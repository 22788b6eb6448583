from collections import Counter

import pytest

from pokebnn.builders import build_pokebnn
from pokebnn.cost import count_elementwise


@pytest.fixture(scope="session")
def pokebnn_1x_elementwise():
    return count_elementwise(build_pokebnn(1))


@pytest.fixture
def grad_additions():
    """``grad_additions(model)`` returns a Counter of parameter names, one
    count per gradient that a pullback of ``model`` adds into
    ``model.arena.grad_views`` from then on."""
    def install(model):
        seen = Counter()

        class Counting(dict):
            def __setitem__(self, name, value):
                seen[name] += 1
                super().__setitem__(name, value)

        model.arena.grad_views = Counting(model.arena.grad_views)
        return seen
    return install
