"""The numpy sampler kernel against an independent pure-Python splitmix64.

The reference below follows the documented rule draw by draw: mix
seed + (i+1)*GAMMA, scale the top 53 bits by 2^-53, and take the first cell
whose cumulative probability is >= the draw. The kernel compares integers
against precomputed bounds in chunks, so the cases aim at where those could
part ways: zero cells, cdf entries equal to an actual draw, extreme seeds and
sizes around the chunk length.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellxtalk import _kernels, sampler
from bellxtalk.bipartite import JointDistribution

MASK = (1 << 64) - 1
CHUNK = _kernels._SAMPLE_CHUNK
# 7046029254386353131 = 2^64 - GAMMA makes draw 0 exactly 0.0;
# 3558559446808474027 makes draw 0 exactly 1 - 2^-53
SEEDS = (0, 2**64 - 1, 7046029254386353131, 3558559446808474027)
SIZES = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1)


@functools.lru_cache(maxsize=8)
def reference_words(seed, n):
    """The mixed 64-bit word of each of the first n draws."""
    words = []
    for i in range(n):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z ^= z >> 31
        words.append(z)
    return tuple(words)


@functools.lru_cache(maxsize=8)
def reference_draws(seed, n):
    return tuple((z >> 11) * 2.0**-53 for z in reference_words(seed, n))


def reference_counts_at(cdf, seed, sizes):
    """Reference counts of the first n draws, for each n in sizes."""
    cdf = [float(c) for c in cdf]
    tallies = [0, 0, 0, 0]
    snapshots = {}
    wanted = set(sizes)
    for i, u in enumerate(reference_draws(seed, max(sizes)), start=1):
        cell = 0
        while cell < 3 and u > cdf[cell]:
            cell += 1
        tallies[cell] += 1
        if i in wanted:
            snapshots[i] = list(tallies)
    return [snapshots[n] for n in sizes]


def kernel_counts(cdf, n, seed):
    return [int(c) for c in _kernels.sample_counts_numpy(np.asarray(cdf, dtype=np.float64), n, np.uint64(seed))]


def sampler_cdf(p):
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf[3] = 1.0
    return cdf


@pytest.mark.parametrize("seed", SEEDS)
def test_sizes_around_the_chunk_length_match_reference(seed):
    draws = reference_draws(seed, max(SIZES))
    low_bits = [z & 2047 for z in reference_words(seed, max(SIZES))[:CHUNK - 1]]
    cdfs = [
        # ties with draws whose discarded low 11 bits are all ones or all zeros,
        # the two ends of the integer bound
        sorted([draws[low_bits.index(2047)], draws[low_bits.index(0)], 0.75]) + [1.0],
        sampler_cdf((0.3, 0.25, 0.25, 0.2)),
        sampler_cdf((0.0, 0.5, 0.5, 0.0)),
        sampler_cdf((0.5, 0.0, 0.25, 0.25)),
        # ties with draws on both sides of each chunk boundary
        sorted([draws[CHUNK - 1], draws[CHUNK], draws[2 * CHUNK - 1]]) + [1.0],
        sorted([draws[0], draws[0], draws[2 * CHUNK]]) + [1.0],
    ]
    for cdf in cdfs:
        expected = reference_counts_at(cdf, seed, SIZES)
        got = [kernel_counts(cdf, n, seed) for n in SIZES]
        assert got == expected, cdf


weights = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
seeds = st.one_of(st.sampled_from(SEEDS), st.integers(min_value=0, max_value=MASK))


@settings(max_examples=150, deadline=None)
@given(p=st.lists(weights, min_size=4, max_size=4).filter(any), seed=seeds,
       n=st.integers(min_value=1, max_value=3000))
def test_random_cdfs_with_zero_cells_match_reference(p, seed, n):
    total = sum(p)
    cdf = sampler_cdf([x / total for x in p])
    assert kernel_counts(cdf, n, seed) == reference_counts_at(cdf, seed, [n])[0]


@settings(max_examples=150, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=3000), data=st.data())
def test_cdf_entries_at_or_next_to_draws_match_reference(seed, n, data):
    draws = reference_draws(seed, n)
    picks = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=3, max_size=3))
    # a draw itself, or the double just below or above it
    towards = data.draw(st.lists(st.sampled_from([None, -np.inf, np.inf]), min_size=3, max_size=3))
    cdf = sorted(draws[i] if to is None else float(np.nextafter(draws[i], to))
                 for i, to in zip(picks, towards)) + [1.0]
    assert kernel_counts(cdf, n, seed) == reference_counts_at(cdf, seed, [n])[0]


def test_cdf_beyond_the_unit_interval_matches_reference():
    # entries < 0 take no draw and entries >= 1 take every draw
    for cdf in ([-0.5, 0.25, 1.0, 1.0], [-1.0, -1.0, 0.75, 2.0], [0.5, 1.5, 1.5, 1.5]):
        for seed in SEEDS:
            assert kernel_counts(cdf, 500, seed) == reference_counts_at(cdf, seed, [500])[0]


def test_sampler_memory_is_bounded_in_n():
    dist = JointDistribution((0.3, 0.2, 0.2, 0.3))

    def peak(n):
        sampler.sample(dist, n, 11)  # warm any first-call allocations
        tracemalloc.start()
        try:
            sampler.sample(dist, n, 11)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4_000_000) < 1.5 * peak(250_000)
