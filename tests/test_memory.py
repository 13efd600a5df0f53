"""Memory bounds of the per-replicate hot paths, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak includes
every temporary a call makes. No timing is involved.
"""

import tracemalloc

import numpy as np
import pytest

from grancount.model import simulate
from grancount.ppc import _pairwise_distances, _within_distance

from conftest import make_params, make_spec

LIMIT = 4 * 2**20


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_profile_distances_hold_blocks_not_the_difference_tensor():
    # one 200x200x101 difference tensor alone is 31 MB
    rng = np.random.default_rng(0)
    a, b = rng.random((200, 101)), rng.random((200, 101))
    peak = traced_peak(lambda: (_within_distance(a, 101), _pairwise_distances(a, b, 101)))
    assert peak < LIMIT, f"{peak / 2**20:.1f} MB"


@pytest.mark.parametrize("n", [200, 2000])
def test_simulate_holds_pmf_blocks_not_the_pmf_matrix(n):
    # at n=2000, K=500 the whole pmf matrix is 8 MB and its formula holds three
    spec = make_spec(n=n, k=500, offset=1.0)
    peak = traced_peak(lambda: simulate(spec, make_params("cnar"), seed=0, model="cnar"))
    assert peak < LIMIT, f"{peak / 2**20:.1f} MB"
