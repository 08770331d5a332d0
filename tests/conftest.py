import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import spiderfind.root_selection as root_selection

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("default")


@pytest.fixture
def batch_sizes(monkeypatch):
    """The size of every batch score_roots scores, in order."""
    sizes = []
    score_batch = root_selection._score_batch

    def spied(g, xs, ell):
        sizes.append(len(xs))
        return score_batch(g, xs, ell)

    monkeypatch.setattr(root_selection, "_score_batch", spied)
    return sizes
