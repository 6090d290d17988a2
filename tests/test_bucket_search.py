"""The bucket table of the long-trial kernels equals np.searchsorted(edges, u,
"right") on every double Generator.random can return."""

import numpy as np
import pytest

import driftlab as dl
from driftlab.processes import _Automaton, _BucketSearch
from helpers import MAX_UNIFORM


def probes(edges: np.ndarray, search: _BucketSearch) -> np.ndarray:
    """Each edge and its neighbours, each bucket's first and last double, 0.0,
    the largest double random() returns and 10^6 random doubles, within [0, 1)."""
    starts = np.arange(int(search.scale)) / search.scale
    u = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        starts, np.nextafter(starts[1:], 0.0), [0.0, MAX_UNIFORM],
        np.random.default_rng(2024).random(1_000_000),
    ])
    return u[(u >= 0.0) & (u < 1.0)]


def assert_equals_searchsorted(search: _BucketSearch) -> None:
    u = probes(search.edges, search)
    assert search(u).tolist() == np.searchsorted(search.edges, u, "right").tolist()
    # a strided view
    assert search(u[1::2]).tolist() == np.searchsorted(search.edges, u[1::2], "right").tolist()


def crafted_edges() -> np.ndarray:
    """Random edges, an edge at a bucket's first double, three edges in one
    bucket, a repeated edge and 0.0, with 2**13 buckets for their 50 edges."""
    width = 2.0**-13
    edges = np.random.default_rng(7).random(42).tolist()
    edges += [0.0, 1000 * width, (2000 + 0.25) * width, (2000 + 0.5) * width, (2000 + 0.75) * width]
    edges += [edges[3], 1.0 - width, MAX_UNIFORM]
    return np.sort(np.array(edges))


def test_crafted_edges():
    search = _BucketSearch(crafted_edges())
    assert search.scale == 2.0**13
    # an edge at a bucket's first double splits nothing; one inside a bucket splits it
    assert search.table[1000] >= 0
    assert search.table[2000] < 0
    assert_equals_searchsorted(search)


def searched_table(search: _BucketSearch) -> np.ndarray:
    """The table by its definition: the search at each bucket's first double
    where it equals the search at the bucket's last double, -1 elsewhere."""
    grid = np.arange(int(search.scale) + 1) / search.scale
    first = np.searchsorted(search.edges, grid[:-1], "right")
    last = np.searchsorted(search.edges, np.nextafter(grid[1:], 0.0), "right")
    return np.where(first == last, first, -1)


def test_the_table_equals_its_definition():
    """Random edge sets, with edges at 0.0, at the largest double random()
    returns, at 1.0 and on buckets' first and last doubles mixed in."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        edges = rng.random(int(rng.integers(0, 80)))
        width = 1.0 / _BucketSearch(edges).scale
        starts = rng.integers(0, int(1 / width), 4) * width
        special = [0.0, MAX_UNIFORM, 1.0, *starts, *np.nextafter(starts[1:], 0.0), starts[0]]
        edges = np.sort(np.concatenate([edges, rng.choice(special, int(rng.integers(0, 6)))]))
        search = _BucketSearch(edges)
        assert search.table.dtype == np.int32
        assert search.table.tolist() == searched_table(search).tolist(), edges.tolist()


@pytest.mark.parametrize("edges", [[], [0.5], [0.0], [MAX_UNIFORM], [1.0]])
def test_few_edges(edges):
    search = _BucketSearch(np.array(edges, dtype=float))
    assert search.table.tolist() == searched_table(search).tolist()
    assert_equals_searchsorted(search)


def test_needle_automaton_cells():
    search = _Automaton(dl.NeedleOneOneEA(50), 0)._cells
    # the automaton's 1,121 cell edges inside (0, 1) at n = 50 get 2^16 buckets of 4 bytes
    assert len(search.edges) == 1121 and search.scale == 2.0**16 and search.table.nbytes == 1 << 18
    assert search.table.tolist() == searched_table(search).tolist()
    assert_equals_searchsorted(search)


@pytest.mark.parametrize("delta", [0.3, 1.0, 3.0])
def test_walk_steps(delta):
    walk = dl.GeometricDriftWalk(0.2, delta)
    steps, search = walk._step_search
    assert search.edges.tolist() == walk._inverse_cdf[1] and steps.tolist() == walk._inverse_cdf[0]
    assert search.table.tolist() == searched_table(search).tolist()
    assert_equals_searchsorted(search)
