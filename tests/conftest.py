import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from crosscut.structures import Graph, TripleSystem

CORPUS_SEED = 20240901


def random_triple_system(rng: random.Random, n: int, density: float) -> TripleSystem:
    triples = [
        t for t in itertools.combinations(range(n), 3) if rng.random() < density
    ]
    return TripleSystem(n, triples)


def random_graph(rng: random.Random, n: int, density: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    return Graph(n, edges)


def planted_host(rng: random.Random, n: int, t: int) -> TripleSystem:
    """S(n, t) with 30% of its triples dropped, plus random triples
    amounting to 3% of all triples of [n]."""
    apex = [x for x in itertools.combinations(range(n), 3) if x[0] < t]
    kept = rng.sample(apex, len(apex) - round(0.3 * len(apex)))
    others = [x for x in itertools.combinations(range(n), 3) if x[0] >= t]
    total = n * (n - 1) * (n - 2) // 6
    return TripleSystem(n, kept + rng.sample(others, round(0.03 * total)))


@pytest.fixture(autouse=True)
def _no_cache_dir_from_environment(monkeypatch):
    """Keep a developer's CROSSCUT_CACHE_DIR out of the tests."""
    monkeypatch.delenv("CROSSCUT_CACHE_DIR", raising=False)


@pytest.fixture(scope="session")
def cleaning_corpus():
    """200 seeded random systems paired round-robin with (k, t) settings."""
    rng = random.Random(CORPUS_SEED)
    instances = []
    settings = list(itertools.product((3, 4), (1, 2)))
    for i in range(200):
        n = rng.randint(5, 12)
        density = rng.uniform(0.05, 0.6)
        k, t = settings[i % len(settings)]
        instances.append((random_triple_system(rng, n, density), k, t))
    return instances
