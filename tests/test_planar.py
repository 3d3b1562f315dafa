import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from rectpas.planar import (
    Box,
    EmbeddedGraph,
    Segment,
    VertexDrawing,
    apply_separator,
    balanced_separator,
    component_cap_for,
    planarity_violations,
    _segment_intersection,
)


def _pt(x, y):
    return VertexDrawing.box(Box(x, y, x, y))


def test_triangle_is_planar():
    g = EmbeddedGraph(
        {0: _pt(0, 0), 1: _pt(4, 0), 2: _pt(2, 3)},
        (
            (0, 1, Segment(0, 0, 4, 0)),
            (1, 2, Segment(4, 0, 2, 3)),
            (0, 2, Segment(0, 0, 2, 3)),
        ),
    )
    assert not planarity_violations(g)
    assert g.validate_drawing_anchors()


def test_crossing_diagonals_rejected():
    g = EmbeddedGraph(
        {0: _pt(0, 0), 1: _pt(4, 4), 2: _pt(0, 4), 3: _pt(4, 0)},
        ((0, 1, Segment(0, 0, 4, 4)), (2, 3, Segment(0, 4, 4, 0))),
    )
    assert planarity_violations(g)


def test_segment_through_foreign_vertex_rejected():
    g = EmbeddedGraph(
        {0: _pt(0, 0), 1: _pt(6, 0), 2: VertexDrawing.box(Box(2, -1, 4, 1))},
        ((0, 1, Segment(0, 0, 6, 0)),),
    )
    assert planarity_violations(g)


def test_touch_at_shared_vertex_allowed():
    g = EmbeddedGraph(
        {0: _pt(0, 0), 1: _pt(4, 0), 2: _pt(0, 4)},
        ((0, 1, Segment(0, 0, 4, 0)), (0, 2, Segment(0, 0, 0, 4))),
    )
    assert not planarity_violations(g)


def test_missing_drawing_raises():
    g = EmbeddedGraph({0: _pt(0, 0), 1: None}, ())
    with pytest.raises(ValueError):
        planarity_violations(g)


def test_graph_validation_rejects_loops_and_parallel_edges():
    with pytest.raises(ValueError):
        EmbeddedGraph({0: _pt(0, 0)}, ((0, 0, Segment(0, 0, 0, 0)),))
    with pytest.raises(ValueError):
        EmbeddedGraph(
            {0: _pt(0, 0), 1: _pt(1, 0)},
            ((0, 1, Segment(0, 0, 1, 0)), (1, 0, Segment(1, 0, 0, 0))),
        )


def test_segment_intersection_cases():
    assert _segment_intersection(Segment(0, 0, 2, 2), Segment(0, 2, 2, 0)) == ("point", 1, 1)
    assert _segment_intersection(Segment(0, 0, 2, 0), Segment(3, 0, 5, 0)) is None
    assert _segment_intersection(Segment(0, 0, 2, 0), Segment(2, 0, 5, 0)) == ("point", 2, 0)
    assert _segment_intersection(Segment(0, 0, 3, 0), Segment(1, 0, 5, 0)) == ("overlap",)
    assert _segment_intersection(Segment(0, 0, 2, 0), Segment(1, 1, 1, 3)) is None
    assert _segment_intersection(Segment(1, 1, 1, 1), Segment(0, 0, 2, 2)) == ("point", 1, 1)


# ---------------------------------------------------------------------------
# Separators


def _path(n):
    return {i: {j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}


def _grid(rows, cols):
    adj = {}
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            adj[v] = set()
            if r > 0:
                adj[v].add(v - cols)
            if r < rows - 1:
                adj[v].add(v + cols)
            if c > 0:
                adj[v].add(v - 1)
            if c < cols - 1:
                adj[v].add(v + 1)
    return adj


def _components_after(adj, removed):
    seen = set(removed)
    comps = []
    for root in adj:
        if root in seen:
            continue
        comp = {root}
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def test_path9_middle_vertex():
    sep = balanced_separator(_path(9))
    assert set(sep) == {4}
    sizes = sorted(len(c) for c in _components_after(_path(9), sep))
    assert sizes == [4, 4]


def test_tiny_graphs_need_no_separator():
    assert not balanced_separator({})
    assert not balanced_separator({0: set()})
    assert not balanced_separator({0: {1}, 1: {0}})


def test_grid3x3_separator_small_and_balanced():
    adj = _grid(3, 3)
    sep = balanced_separator(adj)
    assert len(sep) <= 3
    assert all(len(c) <= 6 for c in _components_after(adj, sep))
    # Exhaustive referee: some separator of size <= 3 with both sides <= 6
    # exists, so the bound asked of the implementation is attainable.
    found = False
    for size in range(1, 4):
        for cand in combinations(range(9), size):
            if all(len(c) <= 6 for c in _components_after(adj, set(cand))):
                found = True
                break
        if found:
            break
    assert found


def test_separator_contract_on_random_graphs():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(3, 40)
        adj = {i: set() for i in range(n)}
        for _ in range(rng.randrange(0, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        sep = balanced_separator(adj)
        bound = -(-2 * n // 3)
        assert all(len(c) <= bound for c in _components_after(adj, sep))


def test_apply_separator_small_graph_untouched():
    adj = _path(10)
    div = apply_separator(adj, 0.5)  # cap 96
    assert not div.removed
    assert len(div.components) == 1


def test_apply_separator_path100():
    adj = _path(100)
    cap = component_cap_for(0.5)
    div = apply_separator(adj, 0.5)
    assert all(len(c) <= cap for c in div.components)
    assert len(div.removed) <= 50
    # partition
    union = set(div.removed)
    for comp in div.components:
        assert not (comp & union)
        union |= comp
    assert union == set(adj)


def test_apply_separator_empty_graph():
    div = apply_separator({}, 0.5)
    assert not div.removed and not div.components


def test_apply_separator_forced_splits():
    adj = _grid(8, 8)
    div = apply_separator(adj, 1)
    assert div.max_component <= component_cap_for(1) == 24
    assert div.removed


def _random_graphs():
    """300 seeded random graphs, n in 3..59, each with an eps' in {1, 1/2, 1/4}."""
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(3, 60)
        adj = {i: set() for i in range(n)}
        for _ in range(rng.randrange(0, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        yield adj, rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 4)])


# sha256 of balanced_separator and apply_separator output on _random_graphs().
SEPARATOR_DIGEST = "0bd048276d2189a3397b3705a3cc5d1d757769ab3be0efe0111d9f1ecfafbea2"


def test_separators_pinned_on_random_graphs():
    rows = []
    for adj, eps in _random_graphs():
        div = apply_separator(adj, eps)
        rows.append((
            len(adj), sorted(balanced_separator(adj)),
            sorted(div.removed), [sorted(c) for c in div.components],
        ))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SEPARATOR_DIGEST


def test_first_third_level_always_separates():
    """Let m be the largest component's size. The first BFS level whose
    cumulative size reaches m/3 leaves components of at most ceil(2n/3), so
    balanced_separator never needs more than one level."""
    for adj, _ in _random_graphs():
        n = len(adj)
        bound = -(-2 * n // 3)
        big = max(_components_after(adj, ()), key=len)
        if len(big) <= bound:
            continue
        levels, seen = [[min(big)]], {min(big)}
        while True:
            nxt = {u for v in levels[-1] for u in adj[v]} - seen
            if not nxt:
                break
            seen |= nxt
            levels.append(sorted(nxt))
        cum = 0
        for level in levels:
            cum += len(level)
            if 3 * cum >= len(big):
                break
        assert all(len(c) <= bound for c in _components_after(adj, level))
        assert len(balanced_separator(adj)) <= len(level)


def test_component_cap_mapping():
    assert component_cap_for(1) >= 1
    assert component_cap_for(0.5) == 4 * component_cap_for(1.0)
    with pytest.raises(ValueError):
        component_cap_for(0)


def test_removed_fraction_statistical_corpus():
    """Random planar corpus: removal stays within the eps' budget.

    Delaunay triangulations of uniform points, n in [50, 500], 200 seeded
    samples; any violation for the shipped constant fails.
    """
    np = pytest.importorskip("numpy")
    spatial = pytest.importorskip("scipy.spatial")
    rng = random.Random(42)
    for sample in range(200):
        n = rng.randrange(50, 501)
        eps = rng.choice([0.25, 0.4, 0.5, 0.75])
        gen = np.random.default_rng(sample)
        pts = gen.random((n, 2))
        tri = spatial.Delaunay(pts)
        adj = {i: set() for i in range(n)}
        for simplex in tri.simplices:
            for a in range(3):
                for b in range(a + 1, 3):
                    u, v = int(simplex[a]), int(simplex[b])
                    adj[u].add(v)
                    adj[v].add(u)
        div = apply_separator(adj, eps)
        assert len(div.removed) <= eps * n, (sample, n, eps, len(div.removed))
