"""Memory bounds of the per-replicate hot paths, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak includes
every temporary a call makes. No timing is involved.
"""

import tracemalloc

import numpy as np
import pytest

from grancount.fuzzy import _divergence_matrix, fit_beta, kl_membership
from grancount.model import Posterior, PriorSpec, simulate
from grancount.possibility import MembershipVector
from grancount.ppc import _distance_sum, _within_distance

from conftest import make_cnar_data, make_params, make_spec, with_norms
from oracles import full_grid, pack_params

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
    a, b = with_norms(rng.random((200, 101))), with_norms(rng.random((200, 101)))
    peak = traced_peak(lambda: (_within_distance(a, 101), _distance_sum(a, b, 101)))
    assert peak < LIMIT, f"{peak / 2**20:.1f} MB"


@pytest.mark.parametrize("distinct", [2000, 3], ids=["distinct-rows", "three-distinct-rows"])
def test_profile_distance_means_hold_blocks_not_the_distance_matrix(distinct):
    # at n = m = 2000 one distance matrix alone is 32 MB, its upper triangle 16 MB;
    # with three distinct rows almost every pair is recomputed by direct difference
    rng = np.random.default_rng(1)
    rows = [rng.random((distinct, 101))[np.arange(2000) % distinct] for _ in range(2)]
    a, b = with_norms(rows[0]), with_norms(rows[1])
    peak = traced_peak(lambda: (_within_distance(a, 101), _distance_sum(a, b, 101)))
    assert peak < LIMIT, f"{peak / 2**20:.1f} MB"


@pytest.mark.parametrize("n", [200, 2000])
def test_simulate_holds_pmf_blocks_not_the_pmf_matrix(n):
    # at n=2000, K=500 the whole pmf matrix is 8 MB and its formula holds three
    spec = make_spec(n=n, k=500, offset=1.0)
    peak = traced_peak(lambda: simulate(spec, make_params("cnar"), seed=0, model="cnar"))
    assert peak < LIMIT, f"{peak / 2**20:.1f} MB"


@pytest.mark.parametrize("k", [[500], [5, 20, 60, 500]], ids=["uniform-k", "mixed-k"])
def test_cnar_posterior_builds_the_report_density_in_place(k):
    # it keeps 2.4 MB: the (K+1, n) report density and a scratch of twice its
    # size; the Beta shapes are built in the scratch, so one more (K+1, n)
    # matrix of 0.8 MB is the only grid-sized temporary
    spec, sim = make_cnar_data(k)
    peak = traced_peak(lambda: Posterior(spec, sim, PriorSpec(), "cnar"))
    assert peak <= 3.5 * 2**20, f"{peak / 2**20:.2f} MB"


@pytest.mark.parametrize("k", [[500], [5, 20, 60, 500]], ids=["uniform-k", "mixed-k"])
def test_cnar_logp_and_grad_allocates_no_grid_sized_temporaries(k):
    # on the full grid one (n, K+1) float temporary is 0.8 MB; the call works in
    # the scratch the Posterior allocated once, and numpy's ufunc buffers take
    # about 0.13 MB
    spec, sim = make_cnar_data(k)
    post = full_grid(Posterior(spec, sim, PriorSpec(), "cnar"))
    phi = pack_params(make_params("cnar"), "cnar")
    peak = traced_peak(lambda: post.logp_and_grad(phi))
    assert peak < 200 * 501 * 8 // 3, f"{peak / 2**20:.2f} MB"


def test_fit_beta_builds_the_divergence_matrix_once_per_k():
    # the (K+1)^2 divergence matrix is 2 MB at K=500; a second fit at that K reuses it
    k = 500
    rng = np.random.default_rng(1)
    vectors = []
    for c in (120.0, 31.5):
        values = kl_membership(c / k, 40.0, np.arange(k + 1) / k) + 0.05 * rng.random(k + 1)
        vectors.append(MembershipVector(values / values.max()))
    fit_beta(vectors[0])
    peak = traced_peak(lambda: fit_beta(vectors[1]))
    assert peak < (k + 1) ** 2 * 8 // 4, f"{peak / 2**20:.2f} MB"


def test_cached_divergence_matrix_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        _divergence_matrix(20)[0, 0] = 1.0
