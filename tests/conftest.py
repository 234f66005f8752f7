import random

import pytest

from strongedge import Graph, enumerate_connected


@pytest.fixture(scope="session")
def corpus6():
    """All connected graphs on 1..6 vertices, one per isomorphism class."""
    return [g for n in range(1, 7) for g in enumerate_connected(n)]


@pytest.fixture(scope="session")
def corpus7():
    """All connected graphs on 1..7 vertices."""
    return [g for n in range(1, 8) for g in enumerate_connected(n)]


@pytest.fixture(scope="session")
def corpus8():
    """All connected graphs on 1..8 vertices, in stream order."""
    return [g for n in range(1, 9) for g in enumerate_connected(n)]


def random_graph(rng, n, p=0.5):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


@pytest.fixture
def rng():
    return random.Random(20250819)
