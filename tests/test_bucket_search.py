"""The bucket table of the long-trial kernels equals np.searchsorted on every
double Generator.random can return: on the right, and on the left as the
table of the edges' next doubles, since e < u exactly when nextafter(e) <= u."""

import numpy as np
import pytest

import driftlab as dl
from driftlab.processes import _MAX_UNIFORM, _BucketSearch, _NeedleAutomaton


def bucket_search(edges: np.ndarray, side: str) -> _BucketSearch:
    """The table whose lookups equal np.searchsorted(edges, u, side)."""
    return _BucketSearch(edges if side == "right" else np.nextafter(edges, np.inf))


def probes(edges: np.ndarray, search: _BucketSearch) -> np.ndarray:
    """Each edge and its neighbours, each bucket's first and last double, 0.0,
    the largest double random() returns and 10^6 random doubles, within [0, 1)."""
    starts = np.arange(int(search.scale)) / search.scale
    u = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        starts, np.nextafter(starts[1:], 0.0), [0.0, _MAX_UNIFORM],
        np.random.default_rng(2024).random(1_000_000),
    ])
    return u[(u >= 0.0) & (u < 1.0)]


def assert_equals_searchsorted(search: _BucketSearch, edges: np.ndarray, side: str) -> None:
    u = probes(edges, search)
    assert search(u).tolist() == np.searchsorted(edges, u, side).tolist()
    # a strided view, as the walk passes every other double of its block
    assert search(u[1::2]).tolist() == np.searchsorted(edges, u[1::2], side).tolist()


def crafted_edges() -> np.ndarray:
    """Random edges, an edge at a bucket's first double, three edges in one
    bucket, a repeated edge and 0.0, with 2**13 buckets for their 50 edges."""
    width = 2.0**-13
    edges = np.random.default_rng(7).random(42).tolist()
    edges += [0.0, 1000 * width, (2000 + 0.25) * width, (2000 + 0.5) * width, (2000 + 0.75) * width]
    edges += [edges[3], 1.0 - width, _MAX_UNIFORM]
    return np.sort(np.array(edges))


@pytest.mark.parametrize("side", ["left", "right"])
def test_crafted_edges(side):
    edges = crafted_edges()
    search = bucket_search(edges, side)
    assert search.scale == 2.0**13
    # the bucket that starts at an edge holds -1 on the left and a value on the right
    assert (search.table[1000] < 0) == (side == "left")
    assert search.table[2000] < 0
    assert_equals_searchsorted(search, edges, side)


def searched_table(search: _BucketSearch) -> np.ndarray:
    """The table by its definition: the search at each bucket's first double
    where it equals the search at the bucket's last double, -1 elsewhere."""
    grid = np.arange(int(search.scale) + 1) / search.scale
    first = np.searchsorted(search.edges, grid[:-1], "right")
    last = np.searchsorted(search.edges, np.nextafter(grid[1:], 0.0), "right")
    return np.where(first == last, first, -1)


@pytest.mark.parametrize("side", ["left", "right"])
def test_the_table_equals_its_definition(side):
    """Random edge sets, with edges at 0.0, at the largest double random()
    returns, at 1.0 and on buckets' first and last doubles mixed in."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        edges = rng.random(int(rng.integers(0, 80)))
        width = 1.0 / _BucketSearch(edges).scale
        starts = rng.integers(0, int(1 / width), 4) * width
        special = [0.0, _MAX_UNIFORM, 1.0, *starts, *np.nextafter(starts[1:], 0.0), starts[0]]
        edges = np.sort(np.concatenate([edges, rng.choice(special, int(rng.integers(0, 6)))]))
        search = bucket_search(edges, side)
        assert search.table.dtype == np.int32
        assert search.table.tolist() == searched_table(search).tolist(), edges.tolist()


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("edges", [[], [0.5], [0.0], [_MAX_UNIFORM], [1.0]])
def test_few_edges(side, edges):
    edges = np.array(edges, dtype=float)
    search = bucket_search(edges, side)
    assert search.table.tolist() == searched_table(search).tolist()
    assert_equals_searchsorted(search, edges, side)


def test_needle_automaton_cells():
    search = _NeedleAutomaton(dl.NeedleOneOneEA(50), 0)._cells
    # the automaton's 1,829 cell edges at n = 50 get 2^16 buckets of 4 bytes
    assert len(search.edges) == 1829 and search.scale == 2.0**16 and search.table.nbytes == 1 << 18
    assert search.table.tolist() == searched_table(search).tolist()
    assert_equals_searchsorted(search, search.edges, "right")


@pytest.mark.parametrize("delta", [0.5, 1.0, 3.0])
def test_walk_magnitudes(delta):
    walk = dl.GeometricDriftWalk(0.2, delta)
    search = walk._magnitude_search
    assert search.edges.tolist() == np.nextafter(walk._search_cdf, np.inf).tolist()
    assert search.scale <= 2.0**14
    assert search.table.tolist() == searched_table(search).tolist()
    assert_equals_searchsorted(search, walk._search_cdf, "left")
