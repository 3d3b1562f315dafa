"""Embedded planar graphs, crossing checks, balanced separators, r-divisions.

Graphs here come with geometric drawings: every vertex is drawn as one or
more closed (possibly degenerate) boxes plus connector segments, and every
edge as a straight segment. Planarity of a drawing is verified exactly with
rational arithmetic, never assumed from a combinatorial test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .geometry import Coord, as_epsilon

# Separator quality constant: a component cap of ceil(C_IMPL / eps'^2) keeps
# the removed fraction below eps' on the calibration corpus of random planar
# graphs (Delaunay triangulations, n in [50, 500], 200 seeds).
C_IMPL = 24


@dataclass(frozen=True, slots=True)
class Box:
    """Closed axis-parallel box; degenerate (segment or point) boxes allowed."""

    x1: Coord
    y1: Coord
    x2: Coord
    y2: Coord

    def __post_init__(self) -> None:
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"inverted box ({self.x1},{self.y1},{self.x2},{self.y2})")

    @property
    def degenerate(self) -> bool:
        return self.x1 == self.x2 or self.y1 == self.y2

    def contains(self, x: Coord, y: Coord) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2


@dataclass(frozen=True, slots=True)
class Segment:
    """Closed straight segment; may degenerate to a single point."""

    x1: Coord
    y1: Coord
    x2: Coord
    y2: Coord

    @property
    def is_point(self) -> bool:
        return self.x1 == self.x2 and self.y1 == self.y2

    def contains_point(self, x: Coord, y: Coord) -> bool:
        if _orient(self.x1, self.y1, self.x2, self.y2, x, y) != 0:
            return False
        return (
            min(self.x1, self.x2) <= x <= max(self.x1, self.x2)
            and min(self.y1, self.y2) <= y <= max(self.y1, self.y2)
        )


@dataclass(frozen=True)
class VertexDrawing:
    """Drawing of one vertex: boxes joined by connector segments."""

    boxes: tuple[Box, ...]
    connectors: tuple[Segment, ...] = ()

    @classmethod
    def box(cls, b: Box) -> "VertexDrawing":
        return cls((b,))

    def contains_point(self, x: Coord, y: Coord) -> bool:
        return any(b.contains(x, y) for b in self.boxes) or any(
            s.contains_point(x, y) for s in self.connectors
        )


@dataclass(frozen=True)
class EmbeddedGraph:
    """Simple graph with a drawing per vertex and a segment per edge."""

    vertices: Mapping[int, VertexDrawing]
    edges: tuple[tuple[int, int, Segment], ...]

    def __post_init__(self) -> None:
        seen = set()
        for u, v, _ in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) references missing vertex")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add(key)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def validate_drawing_anchors(self) -> bool:
        """Every edge segment must start and end on its endpoint drawings."""
        for u, v, seg in self.edges:
            du, dv = self.vertices[u], self.vertices[v]
            a_on = du.contains_point(seg.x1, seg.y1) or dv.contains_point(seg.x1, seg.y1)
            b_on = du.contains_point(seg.x2, seg.y2) or dv.contains_point(seg.x2, seg.y2)
            if not (a_on and b_on):
                return False
        return True


def _orient(ax, ay, bx, by, cx, cy) -> int:
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _segment_intersection(s: Segment, t: Segment):
    """Classify the intersection of two closed segments.

    Returns ``None`` (disjoint), ``("point", x, y)`` for a single common
    point, or ``("overlap",)`` for a collinear overlap of positive length.
    Exact for integer and Fraction coordinates.
    """
    if s.is_point and t.is_point:
        if (s.x1, s.y1) == (t.x1, t.y1):
            return ("point", s.x1, s.y1)
        return None
    if s.is_point:
        return ("point", s.x1, s.y1) if t.contains_point(s.x1, s.y1) else None
    if t.is_point:
        return ("point", t.x1, t.y1) if s.contains_point(t.x1, t.y1) else None

    o1 = _orient(s.x1, s.y1, s.x2, s.y2, t.x1, t.y1)
    o2 = _orient(s.x1, s.y1, s.x2, s.y2, t.x2, t.y2)
    o3 = _orient(t.x1, t.y1, t.x2, t.y2, s.x1, s.y1)
    o4 = _orient(t.x1, t.y1, t.x2, t.y2, s.x2, s.y2)

    if o1 == o2 == 0:
        # Collinear: project on the dominant axis.
        if abs(s.x2 - s.x1) >= abs(s.y2 - s.y1):
            key = lambda p: p[0]
        else:
            key = lambda p: p[1]
        slo, shi = sorted([(s.x1, s.y1), (s.x2, s.y2)], key=key)
        tlo, thi = sorted([(t.x1, t.y1), (t.x2, t.y2)], key=key)
        lo = max(key(slo), key(tlo))
        hi = min(key(shi), key(thi))
        if lo > hi:
            return None
        if lo == hi:
            p = slo if key(slo) == lo else tlo
            return ("point", p[0], p[1])
        return ("overlap",)

    if o1 != o2 and o3 != o4:
        # Proper or endpoint crossing: solve for the single point.
        dsx, dsy = s.x2 - s.x1, s.y2 - s.y1
        dtx, dty = t.x2 - t.x1, t.y2 - t.y1
        den = dsx * dty - dsy * dtx
        num = (t.x1 - s.x1) * dty - (t.y1 - s.y1) * dtx
        u = Fraction(num, den)
        if not (0 <= u <= 1):
            return None
        x = s.x1 + u * dsx
        y = s.y1 + u * dsy
        if not t.contains_point(x, y):
            return None
        return ("point", x, y)
    return None


def _segment_crosses_open_box(seg: Segment, box: Box) -> bool:
    """True iff the segment passes through the open interior of the box."""
    if box.degenerate:
        return False
    if seg.is_point:
        return box.x1 < seg.x1 < box.x2 and box.y1 < seg.y1 < box.y2
    # Liang-Barsky clip of the parameter interval [0, 1] to the closed box.
    t0, t1 = Fraction(0), Fraction(1)
    dx, dy = seg.x2 - seg.x1, seg.y2 - seg.y1
    for p, q in (
        (-dx, seg.x1 - box.x1),
        (dx, box.x2 - seg.x1),
        (-dy, seg.y1 - box.y1),
        (dy, box.y2 - seg.y1),
    ):
        if p == 0:
            if q < 0:
                return False
            continue
        r = Fraction(q, p)
        if p < 0:
            if r > t1:
                return False
            t0 = max(t0, r)
        else:
            if r < t0:
                return False
            t1 = min(t1, r)
    if t0 >= t1:
        return False
    tm = (t0 + t1) / 2
    return box.x1 < seg.x1 + tm * dx < box.x2 and box.y1 < seg.y1 + tm * dy < box.y2


def planarity_violations(g: EmbeddedGraph) -> list[str]:
    """Every reason the drawing is not crossing-free; empty when it is.

    Two edge segments may only meet at a point covered by a drawing of a
    vertex both edges are incident to, and no edge segment may pass through
    the open interior of a box of a non-incident vertex.
    """
    for v in g.vertices:
        if g.vertices[v] is None:
            raise ValueError(f"vertex {v} has no drawing")
    out: list[str] = []
    edges = g.edges
    for i in range(len(edges)):
        u1, v1, s1 = edges[i]
        for j in range(i + 1, len(edges)):
            u2, v2, s2 = edges[j]
            hit = _segment_intersection(s1, s2)
            if hit is None:
                continue
            if hit[0] == "overlap":
                out.append(f"edges ({u1},{v1}) and ({u2},{v2}) overlap collinearly")
                continue
            _, x, y = hit
            shared = {u1, v1} & {u2, v2}
            if any(g.vertices[w].contains_point(x, y) for w in shared):
                continue
            out.append(f"edges ({u1},{v1}) and ({u2},{v2}) cross at ({x},{y})")
    for u, v, seg in edges:
        for w, d in g.vertices.items():
            if w == u or w == v:
                continue
            if any(_segment_crosses_open_box(seg, b) for b in d.boxes):
                out.append(f"edge ({u},{v}) crosses vertex {w}")
    return out


# ---------------------------------------------------------------------------
# Separators and r-divisions


def _adjacency(g: Mapping[int, Iterable[int]]) -> dict[int, set[int]]:
    adj = {v: set(ns) for v, ns in g.items()}
    for v, ns in adj.items():
        ns.discard(v)
        for u in ns:
            if u not in adj:
                raise ValueError(f"edge endpoint {u} missing from vertex set")
    for v, ns in list(adj.items()):
        for u in ns:
            adj[u].add(v)
    return adj


def _components(adj: Mapping[int, set[int]], vertices: Optional[set[int]] = None) -> list[set[int]]:
    verts = set(adj) if vertices is None else set(vertices)
    comps = []
    seen: set[int] = set()
    for root in sorted(verts):
        if root in seen:
            continue
        comp = {root}
        queue = deque([root])
        seen.add(root)
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u in verts and u not in seen:
                    seen.add(u)
                    comp.add(u)
                    queue.append(u)
        comps.append(comp)
    return comps


def _bfs_levels(adj: Mapping[int, set[int]], root: int, within: set[int]) -> list[list[int]]:
    levels = [[root]]
    seen = {root}
    while True:
        nxt = sorted(
            {u for v in levels[-1] for u in adj[v] if u in within and u not in seen}
        )
        if not nxt:
            return levels
        seen.update(nxt)
        levels.append(nxt)


def balanced_separator(g: Mapping[int, Iterable[int]]) -> frozenset[int]:
    """BFS-level separator: removing it leaves components of <= ceil(2n/3).

    Returns the smallest feasible level, breaking ties towards balance. One
    always exists. Let m be the size of the largest component and take the
    first BFS level at which the cumulative size reaches m/3. The levels
    before it are connected through the root and hold fewer than m/3
    vertices; the levels after it hold at most 2m/3 <= ceil(2n/3).
    """
    adj = _adjacency(g)
    n = len(adj)
    if n <= 2:
        return frozenset()
    bound = -(-2 * n // 3)
    comps = _components(adj)
    big = max(comps, key=len)
    if len(big) <= bound:
        return frozenset()
    levels = _bfs_levels(adj, min(big), big)

    def comp_sizes_after(removed: set[int]) -> int:
        rest = big - removed
        sizes = [len(c) for c in _components(adj, rest)] or [0]
        return max(sizes)

    best = None
    for i, level in enumerate(levels):
        rm = set(level)
        worst = comp_sizes_after(rm)
        if worst <= bound:
            key = (len(rm), worst, i)
            if best is None or key < best[0]:
                best = (key, rm)
    return frozenset(best[1])


@dataclass(frozen=True)
class Division:
    """An r-division: removed vertices plus the remaining components."""

    removed: frozenset[int]
    components: tuple[frozenset[int], ...]

    @property
    def max_component(self) -> int:
        return max((len(c) for c in self.components), default=0)

    def component_of(self) -> dict[int, int]:
        where = {}
        for ci, comp in enumerate(self.components):
            for v in comp:
                where[v] = ci
        return where


def component_cap_for(epsilon_prime: Fraction | float) -> int:
    """Map a removal budget eps' to the component size cap c' = C_IMPL/eps'^2."""
    eps = as_epsilon(epsilon_prime)
    return max(1, -(-C_IMPL * eps.denominator**2 // eps.numerator**2))


def apply_separator(g: Mapping[int, Iterable[int]], epsilon_prime: Fraction | float) -> Division:
    """Split a graph into components of bounded size by removing vertices.

    Components larger than the cap are split recursively with
    :func:`balanced_separator`; all separator vertices accumulate into
    ``removed``. The resulting Division always partitions the vertex set and
    never leaves an edge between two distinct components.
    """
    adj = _adjacency(g)
    cap = component_cap_for(epsilon_prime)
    removed: set[int] = set()
    done: list[set[int]] = []
    queue = _components(adj)
    while queue:
        comp = queue.pop()
        if len(comp) <= cap:
            done.append(comp)
            continue
        sub = {v: adj[v] & comp for v in comp}
        # eps' <= 1 keeps the cap at 24 or more, so comp is a connected
        # graph on more than 2 vertices and its separator is never empty.
        sep = balanced_separator(sub)
        removed.update(sep)
        queue.extend(_components(adj, comp - sep))
    components = tuple(
        frozenset(c) for c in sorted(done, key=lambda c: min(c) if c else -1)
    )
    _check_division(adj, removed, components)
    return Division(frozenset(removed), components)


def _check_division(
    adj: Mapping[int, set[int]],
    removed: set[int],
    components: Sequence[frozenset[int]],
) -> None:
    where: dict[int, int] = {}
    for ci, comp in enumerate(components):
        for v in comp:
            if v in where or v in removed:
                raise AssertionError("division does not partition the vertex set")
            where[v] = ci
    if set(where) | set(removed) != set(adj):
        raise AssertionError("division does not cover the vertex set")
    for v, ns in adj.items():
        if v in removed:
            continue
        for u in ns:
            if u in removed:
                continue
            if where[u] != where[v]:
                raise AssertionError(f"edge ({v},{u}) joins two components")
