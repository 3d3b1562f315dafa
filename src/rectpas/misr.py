"""Maximum independent set of rectangles: grid machinery, PAS and kernel.

The pipeline follows the grid dichotomy: either a non-uniform grid whose
half-integral lines cross every rectangle on both axes, or an immediate
independent set of the requested size. On top of the grid it builds two
embedded planar graphs over a feasible solution, shatters them with the
r-division, and turns the resulting cell-disjoint groups into a candidate
family for an exact weighted set-packing search and for the kernel.

Half-integral line coordinates are stored as doubled integers, so a line at
x - 1/2 is the even/odd integer 2x - 1 and all tests stay exact.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import ceil
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .geometry import MisrInstance, KernelReport, Rect, as_epsilon, conflict_masks, validate_misr_solution
from .oracles import DEFAULT_BUDGET, OracleBudget, _overrun
from .planar import (
    Box,
    Division,
    EmbeddedGraph,
    Segment,
    VertexDrawing,
    apply_separator,
)


@dataclass(frozen=True)
class Grid:
    """Non-uniform grid in doubled coordinates.

    ``v_lines`` and ``h_lines`` are sorted and include the boundary lines at
    doubled 0 and doubled (2n - 1); everything strictly between is an
    interior (half-integral, odd) line. Every input rectangle is crossed by
    at least one interior line per axis.
    """

    v_lines: tuple[int, ...]
    h_lines: tuple[int, ...]

    @property
    def interior_v(self) -> tuple[int, ...]:
        return self.v_lines[1:-1]

    @property
    def interior_h(self) -> tuple[int, ...]:
        return self.h_lines[1:-1]

    @property
    def n_cols(self) -> int:
        return len(self.v_lines) - 1

    @property
    def n_rows(self) -> int:
        return len(self.h_lines) - 1

    def cell_box(self, col: int, row: int) -> Box:
        """The closed cell between lines col, col + 1 and row, row + 1."""
        if not (0 <= col < self.n_cols and 0 <= row < self.n_rows):
            raise IndexError(f"cell ({col},{row}) out of range {(self.n_cols, self.n_rows)}")
        return Box(self.v_lines[col], self.h_lines[row], self.v_lines[col + 1], self.h_lines[row + 1])


@dataclass(frozen=True)
class GridDichotomy:
    """Either branch of the grid construction, with its certificate."""

    grid: Optional[Grid] = None
    witness: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if (self.grid is None) == (self.witness is None):
            raise ValueError("exactly one branch must be set")

    @property
    def is_grid(self) -> bool:
        return self.grid is not None


def _axis_sweep(spans: Sequence[tuple[int, int]], k: int) -> tuple[list[int], list[int]]:
    """Greedy half-integral line sweep along one axis.

    Returns (lines, witnesses) where lines are doubled coordinates and the
    witness list holds, per line, the rectangle whose right end defined it.
    The sweep runs until no rectangle starts at or after the last line, or
    until k lines exist (enough witnesses for the solution branch: their
    spans are pairwise disjoint because each starts at or after the
    previous line, which sits left of the previous witness's right end).
    """
    lines: list[int] = []
    witnesses: list[int] = []
    last = 0  # doubled coordinate of the previous line, boundary start
    while len(lines) < k:
        active = [i for i, (lo, _) in enumerate(spans) if 2 * lo >= last]
        if not active:
            break
        pick = min(active, key=lambda i: (spans[i][1], i))
        last = 2 * spans[pick][1] - 1
        lines.append(last)
        witnesses.append(pick)
    return lines, witnesses


def build_grid(inst: MisrInstance, k: int) -> GridDichotomy:
    """Grid dichotomy: a crossing grid or an independent set of size k.

    Per axis, the next line sits half a unit left of the smallest right
    endpoint among rectangles starting at or after the previous line. If an
    axis produces k or more lines, its first k witness rectangles have
    pairwise disjoint spans on that axis and form a feasible solution.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not inst.is_normalized():
        raise ValueError("instance must be normalized first")
    bound = 2 * inst.coord_bound()
    v_lines, v_wit = _axis_sweep([(r.x1, r.x2) for r in inst.rects], k)
    if len(v_lines) > k - 1:
        return GridDichotomy(witness=tuple(v_wit[:k]))
    h_lines, h_wit = _axis_sweep([(r.y1, r.y2) for r in inst.rects], k)
    if len(h_lines) > k - 1:
        return GridDichotomy(witness=tuple(h_wit[:k]))
    grid = Grid(
        v_lines=(0, *v_lines, bound) if bound > 0 else (0, 0),
        h_lines=(0, *h_lines, bound) if bound > 0 else (0, 0),
    )
    return GridDichotomy(grid=grid)


def crossing_lines(grid: Grid, rect: Rect) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Interior vertical and horizontal lines crossing the open rectangle."""
    vs = tuple(v for v in grid.interior_v if 2 * rect.x1 < v < 2 * rect.x2)
    hs = tuple(h for h in grid.interior_h if 2 * rect.y1 < h < 2 * rect.y2)
    return vs, hs


def _span_block(grid: Grid, rect: Rect) -> tuple[int, int, int, int]:
    """(c_lo, c_hi, r_lo, r_hi): the first and last column and row of the
    cells the open rectangle intersects."""
    c_lo = bisect_right(grid.v_lines, 2 * rect.x1) - 1
    c_hi = bisect_left(grid.v_lines, 2 * rect.x2) - 1
    r_lo = bisect_right(grid.h_lines, 2 * rect.y1) - 1
    r_hi = bisect_left(grid.h_lines, 2 * rect.y2) - 1
    return max(c_lo, 0), min(c_hi, grid.n_cols - 1), max(r_lo, 0), min(r_hi, grid.n_rows - 1)


def cells_spanned(grid: Grid, rect: Rect) -> tuple[tuple[int, int], ...]:
    """All cells the open rectangle intersects; always a contiguous block."""
    c_lo, c_hi, r_lo, r_hi = _span_block(grid, rect)
    return tuple((c, r) for c in range(c_lo, c_hi + 1) for r in range(r_lo, r_hi + 1))


def _corner_hull(grid: Grid, block: tuple[int, int, int, int]) -> Box:
    """Convex hull of the grid corners strictly inside a rectangle, from its
    ``_span_block``: the lines inside are vertical lines c_lo + 1 .. c_hi and
    horizontal lines r_lo + 1 .. r_hi. The hull may be degenerate.
    """
    c_lo, c_hi, r_lo, r_hi = block
    if c_lo == c_hi or r_lo == r_hi:
        raise ValueError("rectangle contains no grid corner")
    return Box(grid.v_lines[c_lo + 1], grid.h_lines[r_lo + 1], grid.v_lines[c_hi], grid.h_lines[r_hi])


def _meet(p: tuple[int, int, int, int], q: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The block of cells two span blocks share, empty if c_lo > c_hi or r_lo > r_hi."""
    return max(p[0], q[0]), min(p[1], q[1]), max(p[2], q[2]), min(p[3], q[3])


def _holds(block: tuple[int, int, int, int], a: int, b: int) -> bool:
    """Whether the rectangle of a span block strictly contains grid corner
    (a, b), the crossing of lines ``v_lines[a]`` and ``h_lines[b]``."""
    return block[0] < a <= block[1] and block[2] < b <= block[3]


def _diagonal(grid: Grid, p, q, rising: bool) -> Optional[Segment]:
    """Diagonal of the first shared cell, in (col, row) order, whose two ends
    are corners held one by each of the span blocks p and q: bottom-left to
    top-right if ``rising``, else top-left to bottom-right."""
    c_lo, c_hi, r_lo, r_hi = _meet(p, q)
    for c in range(c_lo, c_hi + 1):
        for r in range(r_lo, r_hi + 1):
            b1, b2 = (r, r + 1) if rising else (r + 1, r)
            if _holds(p, c, b1) and _holds(q, c + 1, b2) or _holds(q, c, b1) and _holds(p, c + 1, b2):
                return Segment(grid.v_lines[c], grid.h_lines[b1], grid.v_lines[c + 1], grid.h_lines[b2])
    return None


# ---------------------------------------------------------------------------
# The two embedded graphs over a feasible solution


def build_G1(
    solution: Iterable[int], grid: Grid, inst: MisrInstance
) -> EmbeddedGraph:
    """First structure graph over a feasible solution, with its drawing.

    Two solution rectangles are joined iff they intersect a common grid cell
    and either share a crossing line or contain the top-left and
    bottom-right corners of a shared cell. The bottom-left/top-right corner
    pair deliberately contributes no edge; those connections are handled one
    level up. Drawings: corner hulls for vertices, segments along shared
    lines, one diagonal per cell.

    Everything is read off the rectangles' ``_span_block``s: two rectangles
    share the cells of the intersection of their blocks, and a vertical
    (horizontal) crossing line iff that intersection spans two or more
    columns (rows). A pair is joined along the first shared vertical line,
    else the first shared horizontal one, else by a ``_diagonal``.
    """
    sol = sorted(set(solution))
    if not validate_misr_solution(inst, sol):
        raise ValueError("solution is not an independent set")
    block = {i: _span_block(grid, inst.rects[i]) for i in sol}
    hull = {i: _corner_hull(grid, block[i]) for i in sol}
    edges = []
    for ai, i in enumerate(sol):
        for j in sol[ai + 1 :]:
            c_lo, c_hi, r_lo, r_hi = _meet(block[i], block[j])
            if c_lo > c_hi or r_lo > r_hi:
                continue
            a, b = hull[i], hull[j]  # apart on the axis across a shared line
            if c_lo < c_hi:
                v = grid.v_lines[c_lo + 1]
                seg = Segment(v, min(a.y2, b.y2), v, max(a.y1, b.y1))
            elif r_lo < r_hi:
                h = grid.h_lines[r_lo + 1]
                seg = Segment(min(a.x2, b.x2), h, max(a.x1, b.x1), h)
            else:
                seg = _diagonal(grid, block[i], block[j], rising=False)
            if seg is not None:
                edges.append((i, j, seg))
    return EmbeddedGraph({i: VertexDrawing.box(hull[i]) for i in sol}, tuple(edges))


def build_G2(
    g1: EmbeddedGraph,
    g1_division: Division,
    grid: Grid,
    inst: MisrInstance,
) -> EmbeddedGraph:
    """Component graph capturing the corner pairs G1 leaves unconnected.

    One vertex per surviving component of ``g1_division``, the division of
    ``g1``; an edge whenever some cell's bottom-left and top-right corners
    lie in rectangles of two different components (a rising ``_diagonal``
    of their shared cells), drawn as that diagonal, once per pair of
    components. Each component is drawn with its members' boxes and the
    segments of the ``g1`` edges among them, taken from ``g1``'s drawing.
    """
    vertices = {}
    for ci, comp in enumerate(g1_division.components):
        boxes = tuple(b for i in sorted(comp) for b in g1.vertices[i].boxes)
        vertices[ci] = VertexDrawing(boxes, tuple(seg for i, j, seg in g1.edges if i in comp and j in comp))
    comp_of = g1_division.component_of()
    survivors = sorted(comp_of)
    block = {i: _span_block(grid, inst.rects[i]) for i in survivors}
    edges: list[tuple[int, int, Segment]] = []
    seen: set[tuple[int, int]] = set()
    for ai, i in enumerate(survivors):
        for j in survivors[ai + 1 :]:
            ci, cj = comp_of[i], comp_of[j]
            key = (min(ci, cj), max(ci, cj))
            if ci == cj or key in seen:
                continue
            seg = _diagonal(grid, block[i], block[j], rising=True)
            if seg is not None:
                seen.add(key)
                edges.append((ci, cj, seg))
    return EmbeddedGraph(vertices, tuple(edges))


# ---------------------------------------------------------------------------
# Structured solution


@dataclass(frozen=True)
class Grouping:
    """Partition of a near-optimal sub-solution into cell-disjoint groups."""

    groups: tuple[frozenset[int], ...]
    dropped: frozenset[int]
    c1: int
    c2: int

    @property
    def kept(self) -> frozenset[int]:
        return frozenset().union(*self.groups) if self.groups else frozenset()

    @property
    def max_group(self) -> int:
        return max((len(g) for g in self.groups), default=0)


def structured_solution(
    solution: Iterable[int],
    grid: Grid,
    inst: MisrInstance,
    epsilon: Fraction | float,
) -> Grouping:
    """Shrink a feasible solution into bounded, cell-disjoint groups.

    Runs the two-level pipeline: divide the first structure graph with
    budget eps/2, build the component graph, divide it with budget
    eps/(2*c1) where c1 is the realized component cap, then read the groups
    off the surviving second-level components. No grid cell is intersected
    by rectangles of two different groups, and each group has at most
    c1 * c2 rectangles.
    """
    eps = as_epsilon(epsilon)
    sol = sorted(set(solution))
    if not sol:
        return Grouping((), frozenset(), 0, 0)
    g1 = build_G1(sol, grid, inst)
    div1 = apply_separator(g1.adjacency(), eps / 2)
    c1 = max(div1.max_component, 1)
    g2 = build_G2(g1, div1, grid, inst)
    div2 = apply_separator(g2.adjacency(), eps / (2 * c1))
    c2 = max(div2.max_component, 1)

    comp_members: dict[int, list[int]] = {ci: sorted(c) for ci, c in enumerate(div1.components)}
    dropped = set(div1.removed)
    groups: list[frozenset[int]] = []
    for comp2 in div2.components:
        members: list[int] = []
        for w in comp2:
            members.extend(comp_members[w])
        if members:
            groups.append(frozenset(members))
    for w in div2.removed:
        dropped.update(comp_members[w])
    groups.sort(key=min)
    return Grouping(tuple(groups), frozenset(dropped), c1, c2)


# ---------------------------------------------------------------------------
# Candidate cell sets, subproblems, PAS and kernel


def cell_mask(grid: Grid, cells: Iterable[tuple[int, int]]) -> int:
    """Cells as an int with bit ``col * n_rows + row`` set per cell.

    Ascending bit indices list the cells in ascending (col, row) order.
    """
    return sum(1 << (col * grid.n_rows + row) for col, row in set(cells))


def cell_index(
    inst: MisrInstance, grid: Grid
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], dict[int, int]]:
    """The span/conflict index of the MISR core over one (inst, grid).

    Per rectangle: its cell-span mask (see ``cell_mask``), and two masks over
    rectangle indices, bit j set when rectangle j shares a cell with it
    (``shares``) or overlaps it (``conflict``, from ``conflict_masks``).
    Overlapping open rectangles meet inside some cell, so every other
    conflict is also a share. A span is a block of cells, so its mask is
    built per column as one run of row bits. The fourth entry starts as an
    empty dict: the capped-MIS memo of ``solve_cellset_subproblem``, whose
    entries depend on the conflict masks only, so they hold for every cell
    set and cap that is asked of this index. The ``shares`` come from one
    pairwise pass over the span masks, as ``conflict_masks`` builds the
    conflict masks: rectangles i < j share a cell iff their spans meet,
    and then each gets the other's bit. ``pas_misr`` and ``kernel_misr``
    build one index per run and drop it when they return.
    """
    rows = grid.n_rows
    spans = []
    for rect in inst.rects:
        c_lo, c_hi, r_lo, r_hi = _span_block(grid, rect)
        run = ((1 << (r_hi - r_lo + 1)) - 1) << r_lo
        spans.append(sum(run << col * rows for col in range(c_lo, c_hi + 1)))
    n = len(spans)
    shares = [0] * n
    for i, span in enumerate(spans):
        for j in range(i + 1, n):
            if span & spans[j]:
                shares[i] |= 1 << j
                shares[j] |= 1 << i
    return tuple(spans), tuple(shares), conflict_masks(inst), {}


def solve_cellset_subproblem(
    index: tuple, cells: int, cap: int, deadline: Optional[float] = None, masks: Optional[int] = None
) -> int:
    """Best feasible subset of size <= cap among rectangles inside the cells,
    as a rectangle mask (bit i set for rectangle i).

    ``index`` is the ``cell_index`` of the instance and grid, and ``cells``
    a cell mask as built by ``cell_mask``. A rectangle lies inside iff its
    span mask has no bit outside the cells. The answer is the
    lexicographically smallest independent subset of the inside rectangles
    of size min(alpha, cap), alpha being their independence number: the set
    an include-first search in index order finds first when it keeps a best
    only on a strict gain.

    ``masks`` is ``inside | clustered << n`` for the n rectangles of the
    index: the inside rectangles, and those of them that overlap another
    inside one. ``_solved_footprints`` hands in the ones ``_footprint_masks``
    builds for the whole family. A lone call leaves it ``None`` and builds
    them the same way, as a family of one footprint.

    ``_capped_best(avail, r, key, conflict, memo, shift, deadline)``
    returns that subset of the rectangle mask ``avail`` under cap r >= 2,
    as a mask, and stores it in the memo under ``key = r << shift | avail``.
    Its smallest member is the first v of avail, ascending, for which v
    plus the answer for ``sub = later & ~conflict[v]`` under cap r - 1,
    later being the bits of avail above v, is largest; a later v replaces
    it only on a strict gain. The loop stops once the size reaches r or the
    bits left cannot beat it, and skips a v whose unblocked later bits
    cannot. A child under cap 1 is ``sub & -sub``, inline, and a child in
    the memo is read there, so ``_capped_best`` is called on memo misses
    only. The recursion depth is at most r. The answer depends on the
    conflict masks alone, so the memo is the index's fourth entry and
    serves every call on the same index; r is clamped to the popcount of
    avail, which changes no answer.

    Under r >= 2 the answer is read from the memo under
    ``r << n | inside`` when it is there; the clustered part is split off
    ``masks`` only after that lookup misses. On a miss, the isolated
    rectangles, ``inside ^ clustered``, overlap no other inside one: each
    is its own conflict component and its own answer. The clustered part
    is answered under cap min(r, |clustered|), read from the memo under
    that key or, on a miss, computed by ``_component_best``. If the
    isolated rectangles and that answer number at most r, their union is
    the answer, stored under the call's key: the clustered answer then has
    fewer than r members, or the isolated set is empty, so it was not
    capped and is the clustered part's lexicographically smallest maximum
    set; the independence number adds up over components, and two sets of
    equal size first differ inside one component. Otherwise the call falls
    back to ``_capped_best`` on the whole inside set.

    ``deadline``, a ``time.monotonic()`` value, is read on each
    ``_capped_best`` call; past it the call raises ``BudgetExceededError``,
    and the memo keeps only finished entries.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    spans, _, conflict, memo = index
    shift = len(spans)
    if masks is None:
        masks = _footprint_masks(index, [cells])[0]
    inside = masks & ((1 << shift) - 1)
    r = inside.bit_count()
    if cap < r:
        r = cap
    if r < 2:
        return inside & -inside if r else 0
    key = r << shift | inside
    found = memo.get(key)
    if found is not None:
        return found
    clustered = masks >> shift
    got = 0
    if clustered:
        size = clustered.bit_count()
        cl_r = size if size < r else r
        cl_key = cl_r << shift | clustered
        got = memo.get(cl_key)
        if got is None:
            got = _component_best(clustered, cl_r, cl_key, conflict, memo, shift, deadline)
    isolated = inside ^ clustered
    if isolated.bit_count() + got.bit_count() <= r:
        memo[key] = found = isolated | got
        return found
    return _capped_best(inside, r, key, conflict, memo, shift, deadline)


def _component_best(
    avail: int,
    r: int,
    key: int,
    conflict: Sequence[int],
    memo: dict[int, int],
    shift: int,
    deadline: Optional[float],
) -> int:
    """The capped-MIS answer for ``avail`` under cap r >= 2, per conflict
    component, stored in ``memo`` under ``key`` as ``_capped_best`` does.

    The components come from a bit BFS over the conflict masks. Component
    C takes the answer for C under cap min(|C|, r), read from or stored in
    the same memo, so no search runs deeper or wider than under cap r. A
    single component is the call itself. With two or more, a capped
    component answer has r members and the others add at least one, so if
    the answer sizes sum to at most r, none was capped, and their union is
    the answer (see ``solve_cellset_subproblem``). Once the sum passes r the
    call falls back to ``_capped_best`` on the whole of ``avail``.
    """
    found = total = 0
    rest = avail
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new = conflict[bit.bit_length() - 1] & rest & ~comp
            comp |= new
            frontier |= new
        size = comp.bit_count()
        comp_r = size if size < r else r
        comp_key = comp_r << shift | comp
        got = memo.get(comp_key)
        if got is None:
            got = _capped_best(comp, comp_r, comp_key, conflict, memo, shift, deadline)
        rest ^= comp
        total += got.bit_count()
        if total > r:
            return _capped_best(avail, r, key, conflict, memo, shift, deadline)
        found |= got
    memo[key] = found
    return found


def _capped_best(
    avail: int,
    r: int,
    key: int,
    conflict: Sequence[int],
    memo: dict[int, int],
    shift: int,
    deadline: Optional[float],
) -> int:
    """The capped-MIS answer for the rectangle mask ``avail`` under cap r >= 2.

    See ``solve_cellset_subproblem``: the answer is returned as a mask and
    stored in ``memo`` under ``key``, which is ``r << shift | avail``.
    A module-level function that reads only its arguments, so a call
    leaves no reference cycle behind for the cyclic collector.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise _overrun("capped MIS")
    memo_get = memo.get
    out = m = 0
    rest = avail
    while rest:
        low = rest & -rest
        rest ^= low
        if rest.bit_count() < m:
            break
        sub = rest & ~conflict[low.bit_length() - 1]
        count = sub.bit_count()
        if count < m:
            continue
        if count < 2 or r == 2:
            got = sub & -sub
        else:
            sub_r = count if count < r else r - 1
            sub_key = sub_r << shift | sub
            got = memo_get(sub_key)
            if got is None:
                got = _capped_best(sub, sub_r, sub_key, conflict, memo, shift, deadline)
        size = got.bit_count() + 1
        if size > m:
            out, m = low | got, size
            if m >= r:
                break
    memo[key] = out
    return out


class _Family(NamedTuple):
    """The candidate family as three parallel lists, position p holding one
    candidate: its cell mask (see ``cell_mask``), its solution, a rectangle
    mask (see ``solve_cellset_subproblem``), and its value, the solution's
    popcount."""

    cells: list[int]
    solutions: list[int]
    values: list[int]


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending: one step per set bit, not per bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# entry j maps a byte to the ASCII digit of its bit j, for bytes.translate
_BIT_DIGITS = tuple(bytes(48 + (b >> j & 1) for b in range(256)) for j in range(8))


def _bit_columns(rows: Sequence[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit p of entry j is bit j of ``rows[p]``.

    ``width`` must cover every row's bit length. The rows are written as
    little-endian bytes, last row first, into one buffer, so the bytes
    holding column j are one strided slice of it, from the last row to the
    first. ``bytes.translate`` turns each into the digit of its bit j, and
    ``int(..., 2)`` reads the digits as the column: a few C calls per
    column, none per row or bit.
    """
    if not rows:
        return [0] * width
    nb = (width + 7) // 8
    buf = b"".join([row.to_bytes(nb, "little") for row in reversed(rows)])
    return [int(buf[j >> 3 :: nb].translate(_BIT_DIGITS[j & 7]), 2) for j in range(width)]


def _or_tables(columns: Sequence[int]) -> list[list[int]]:
    """Byte lookup tables for ORs of ``columns``, one table per 8 of them
    (the "four Russians" table trick).

    Entry x of table q is the OR of the columns 8q + j whose bit j is set in
    x; the last table treats missing columns as 0. Each table is built by
    doubling: 255 ORs per 8 columns.
    """
    tables = []
    for base in range(0, len(columns), 8):
        table = [0]
        for col in columns[base : base + 8]:
            table += [entry | col for entry in table]
        tables.append(table * (256 // len(table)))
    return tables


def _footprint_masks(index: tuple, footprints: Sequence[int]) -> list[int]:
    """Per footprint, ``inside | clustered << n`` for the n rectangles of
    ``index``, a ``cell_index``: the rectangles whose span lies in the
    footprint's cells, and those of them that overlap another such
    rectangle, as ``solve_cellset_subproblem`` takes them.

    One ``_bit_columns`` transpose of the footprints gives, per cell, the
    positions (bit p for ``footprints[p]``) of the footprints holding it,
    up to the widest footprint or span; a cell beyond every footprint holds
    none. The AND of those over a rectangle's span cells is ``inpos[j]``,
    the positions where rectangle j is inside. Rectangle j is clustered
    where it is inside and so is a rectangle overlapping it: ``inpos[j]``
    AND the OR of the ``inpos`` of the others in ``conflict[j]``. A second
    transpose, of the 2n rows ``inpos + clpos``, reads those bits back per
    position. Big-int work of O(P * n) for P footprints, and no Python step
    per footprint and rectangle pair.
    """
    spans, _, conflict, _ = index
    width = max(max(footprints, default=0), max(spans, default=0)).bit_length()
    holders = _bit_columns(footprints, width)
    everywhere = (1 << len(footprints)) - 1
    inpos = []
    for span in spans:
        pos = everywhere
        for cell in _members(span):
            pos &= holders[cell]
        inpos.append(pos)
    clpos = []
    for j, pos in enumerate(inpos):
        near = 0
        for i in _members(conflict[j] & ~(1 << j)):
            near |= inpos[i]
        clpos.append(pos & near)
    return _bit_columns(inpos + clpos, len(footprints))


def _solved_footprints(
    index: tuple, c: int, deadline: Optional[float] = None
) -> dict[int, int]:
    """Footprints of cell-connected independent subsets, solved under cap c.

    Every union of blocks worth value v contains an independent subset of v
    rectangles whose own footprint is a candidate here, so the set-packing
    optimum over this family equals the optimum over the full block-union
    enumeration while staying desk sized. Subsets of up to c >= 1
    rectangles are grown through the shares-a-cell relation of ``index``,
    a ``cell_index``; the footprint and frontier are masks, and one more
    mask, ``shut``, holds the rectangles a subset may not take next: those
    at or below its root, the chosen ones and those overlapping them, and
    the siblings tried before it. A root's subsets start from its own bit
    and below and its conflict mask; a child adds the conflict mask of the
    rectangle it takes, and each child taken shuts its rectangle for the
    siblings after it, so each subset is grown once. Disconnected unions
    split into equivalent separate candidates.
    Each distinct footprint, in order of discovery, is solved once through
    ``solve_cellset_subproblem`` on the same index, so the footprints share
    its memo, with the inside and clustered rectangles that
    ``_footprint_masks`` gives for all of them at once. Returns footprint ->
    solution mask, in discovery order, for the footprints whose solution is
    not empty; their order does not matter to ``kernel_misr``, which takes
    the union of the solutions.

    ``deadline``, if given, bounds the whole family; an overrun raises
    ``BudgetExceededError`` naming the stage, "family growth" or "capped
    MIS". Growth reads it at every frame and the solving loop before every
    footprint, the first time right after ``_footprint_masks``. However
    growth ends, ``grow`` is dropped, so the call leaves no reference cycle
    behind for the cyclic collector.
    """
    spans, shares, conflict, _ = index
    n = len(spans)
    limit = min(c, n)
    footprints: dict[int, None] = {}

    def grow(size: int, cells: int, frontier: int, shut: int) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise _overrun("family growth")
        footprints[cells] = None
        if size >= limit:
            return
        ext = frontier & ~shut
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            grow(size + 1, cells | spans[v], frontier | shares[v], shut | conflict[v])
            shut |= low

    try:
        for root in range(n):
            grow(1, spans[root], shares[root], (2 << root) - 1 | conflict[root])
    finally:
        del grow  # grow holds itself through its closure, and with it footprints

    order = list(footprints)
    solved = {}
    for cells, masks in zip(order, _footprint_masks(index, order)):
        if deadline is not None and time.monotonic() > deadline:
            raise _overrun("capped MIS")
        sol = solve_cellset_subproblem(index, cells, c, deadline, masks)
        if sol:
            solved[cells] = sol
    return solved


def _candidate_family(index: tuple, c: int, deadline: Optional[float] = None) -> _Family:
    """The ``_solved_footprints`` as a ``_Family``, in set-packing order.

    The family is ordered by value, the popcount of the solution mask, from
    the largest down, and within a value in ``_solved_footprints``'
    discovery order: one bucket per value, filled as the footprints come.
    Set packing needs the values non-increasing; its answer does not depend
    on the order within a value (see ``_max_disjoint_collection``). Each
    bucket is appended to the cell list whole, with its value repeated as
    often, and the solutions are read off in the same order: no object is
    built per candidate. ``deadline`` is passed to ``_solved_footprints``.
    """
    solved = _solved_footprints(index, c, deadline)
    buckets: dict[int, list[int]] = {}
    for cells, sol in solved.items():
        buckets.setdefault(sol.bit_count(), []).append(cells)
    cells, values = [], []
    for value in sorted(buckets, reverse=True):
        bucket = buckets[value]
        cells += bucket
        values += [value] * len(bucket)
    return _Family(cells, list(map(solved.__getitem__, cells)), values)


def _max_disjoint_collection(
    family: _Family, k: int, deadline: Optional[float] = None
) -> tuple[int, tuple[int, ...], int]:
    """Exact weighted set packing over cell-disjoint candidates.

    Branch and bound over the ``family``'s positions, whose values must be
    a list sorted in non-increasing order, as ``_candidate_family`` returns
    it; at most k sets may be chosen. The search reads the three lists
    directly. The candidates still disjoint from the chosen ones
    are one int over positions (bit p for candidate p), and the search
    visits only its lowest bit. An include clears the positions whose cells
    meet the candidate's: the OR of per-cell masks over positions (one
    ``_bit_columns`` transpose of the cell masks, a strided byte slice per
    cell, made into ``_or_tables``),
    built on the position's first include by one table lookup per byte of
    its cell mask, written out in ``rec`` so that no helper call adds a
    Python frame to the recursion. A skip clears the position itself. The
    bound on what the remaining picks can add is the sum of the next
    k - picks values, read from prefix sums; that window sum never grows
    with the position, so a blocked position jumped over would prune no
    branch that the next free one keeps. Returns the best total, the union
    of the chosen sub-solutions as a sorted tuple, breaking value ties
    towards the lexicographically smallest rectangle index set, and the
    number of search frames. The union is carried as the OR of the
    solution masks. Solutions of cell-disjoint footprints are disjoint, so
    a total is the popcount of its union, and of two unions of equal total
    the smaller sorted tuple is the one holding the lowest bit of their XOR.
    A (total, union) pair is compared only right after an include makes it:
    a skip child carries its parent's pair, which was compared already, and
    the best only improves, so it can never win there. The search takes one
    recursive frame per free candidate on the skip chain.

    The answer does not depend on the order of candidates of equal value.
    Every collection of at most k disjoint candidates is reached by
    including its members and skipping the others, and the bound at each
    node on that path is at least the collection's total, whatever the
    order within a value, since the window sum takes the largest values
    left. A branch is cut only when its bound is strictly below the best
    total, so every collection whose total reaches the best is compared,
    and a tie of totals keeps the smaller sorted union. A complete search
    thus returns the largest total and, among collections of that total,
    the smallest union. Reordering within a value moves only the frame
    count and the order of the visits.

    ``deadline``, if given, is read at every frame by ``time.monotonic()``,
    a C call that takes no Python frame: the search runs close to the
    recursion limit, and a Python call per frame would lower the depth it
    can reach. An overrun raises ``BudgetExceededError`` naming the "set
    packing" stage. However the search ends, ``rec`` is dropped, so the
    call leaves no reference cycle behind for the cyclic collector.
    """
    masks, sols, values = family
    if sorted(values, reverse=True) != values:
        raise ValueError("candidates must be sorted by non-increasing value")
    n = len(values)
    k = min(k, n)  # more picks than candidates change nothing
    prefix = list(accumulate(values, initial=0))
    prefix += [prefix[-1]] * k  # the bound may look past the last candidate
    # per 8 cells, any cell subset -> positions of the candidates covering it
    cell_tables = _or_tables(_bit_columns(masks, max(masks, default=0).bit_length()))
    n_bytes = len(cell_tables)
    hits = [0] * n  # position -> positions meeting its cells; 0 until built
    best_total = best_sol = nodes = 0

    def rec(free: int, picks: int, total: int, sol: int) -> None:
        nonlocal best_total, best_sol, nodes
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            raise _overrun("set packing")
        if not free or picks >= k:
            return
        low = free & -free
        pos = low.bit_length() - 1
        if total + prefix[pos + k - picks] - prefix[pos] < best_total:
            return
        inc_total, inc_sol = total + values[pos], sol | sols[pos]
        if inc_total >= best_total:
            diff = inc_sol ^ best_sol
            if inc_total > best_total or diff & -diff & inc_sol:
                best_total, best_sol = inc_total, inc_sol
        if not hits[pos]:
            hit = 0  # the tables' OR over the cell mask, inline: a call would cost a frame
            for table, byte in zip(cell_tables, masks[pos].to_bytes(n_bytes, "little")):
                hit |= table[byte]
            hits[pos] = hit
        rec(free & ~hits[pos], picks + 1, inc_total, inc_sol)
        rec(free ^ low, picks, total, sol)

    try:  # adds no frame to the recursion
        rec((1 << n) - 1, 0, 0, 0)
    finally:
        del rec  # rec holds itself through its closure, and with it the tables
    return best_total, _members(best_sol), nodes


def theory_cap(epsilon: Fraction | float) -> int:
    """Default cap c = ceil(eps^-8), computed exactly."""
    return max(1, ceil(1 / as_epsilon(epsilon) ** 8))


@dataclass(frozen=True)
class PasMisrResult:
    """Outcome of the PAS run: a solution or the negative assertion."""

    selected: Optional[tuple[int, ...]]
    best_total: int
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def positive(self) -> bool:
        return self.selected is not None

    @property
    def opt_below_k(self) -> bool:
        return self.selected is None


def _prepare(inst: MisrInstance, k: int, epsilon: Fraction | float, c: Optional[int], budget: OracleBudget):
    """The preamble of ``pas_misr`` and ``kernel_misr``: (eps, c, dichotomy, index, deadline)."""
    eps = as_epsilon(epsilon)
    cap_c = theory_cap(eps) if c is None else c
    if cap_c < 1:
        raise ValueError(f"c must be positive, got {cap_c}")
    outcome = build_grid(inst, k)
    if not outcome.is_grid:
        return eps, cap_c, outcome, None, None
    deadline = budget.deadline()
    return eps, cap_c, outcome, cell_index(inst, outcome.grid), deadline


def pas_misr(
    inst: MisrInstance,
    k: int,
    epsilon: Fraction | float,
    c: Optional[int] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> PasMisrResult:
    """Parameterized approximation run for a target solution size k.

    The grid step may already hand back k rectangles. Otherwise candidate
    cell sets are scored with the capped subproblem solver and combined by
    exact weighted set packing into at most k pairwise cell-disjoint sets.
    A total of at least k yields the positive branch (so the returned
    solution always meets the ceil((1-eps)k) contract with room to spare);
    anything less raises the negative assertion, which is sound exactly
    when the candidate family captures a full structured solution, e.g.
    under the theory knob mapping at desk scale.

    ``budget.time_limit``, if set, is one deadline for the family's
    growth and subproblems and the set packing; an overrun raises
    ``BudgetExceededError``. The budget's size bounds do not apply here.
    A cap c below 1 raises ``ValueError``. The set packing recurses once
    per free candidate on its skip chain; a family too large for the
    recursion limit raises ``RecursionError`` naming set packing and the
    candidate count.
    """
    eps, cap_c, outcome, index, deadline = _prepare(inst, k, epsilon, c, budget)
    meta: dict[str, object] = {"k": k, "epsilon": eps, "c": cap_c}
    if index is None:
        meta["branch"] = "grid-witness"
        return PasMisrResult(outcome.witness, k, meta)
    family = _candidate_family(index, cap_c, deadline)
    try:  # a try block adds no frame to the set packing's recursion
        best_total, best_sol, nodes = _max_disjoint_collection(family, k, deadline)
    except RecursionError:
        raise RecursionError(
            f"set packing over {len(family.cells)} candidates exceeds the recursion limit"
        ) from None
    meta["branch"] = "set-packing"
    meta["candidates"] = len(family.cells)
    meta["set_packing_nodes"] = nodes
    if best_total >= k:
        assert validate_misr_solution(inst, best_sol)
        return PasMisrResult(best_sol, best_total, meta)
    return PasMisrResult(None, best_total, meta)


def kernel_misr(
    inst: MisrInstance,
    k: int,
    epsilon: Fraction | float,
    c: Optional[int] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> KernelReport:
    """Approximate kernel: union of capped solutions over all candidates.

    When the grid step finds k independent rectangles, they are the kernel.
    Otherwise each candidate cell set contributes its capped subproblem
    solution, a rectangle mask; the kernel is the OR of those masks, listed
    as a sorted tuple. The union preserves a (1-eps) fraction of min(k, OPT)
    whenever the family covers the structured groups. The kernel size is
    bounded by c times the candidate count, itself at most k^(4c): a
    footprint is a union of at most c rectangle spans, each a block of the
    grid's fewer than k^2 cells. An epsilon outside (0, 1] or a cap c below
    1 raises ``ValueError``, whether or not c is given.

    ``budget.time_limit``, if set, is one deadline for the family's growth
    and subproblems, as in ``pas_misr``; an overrun raises
    ``BudgetExceededError``.
    """
    _, cap_c, outcome, index, deadline = _prepare(inst, k, epsilon, c, budget)
    if index is None:
        return KernelReport(
            tuple(sorted(outcome.witness)),
            {"c": cap_c, "k": k, "grid_shortcut": True},
        )
    solved = _solved_footprints(index, cap_c, deadline)
    kernel = 0
    for sol in solved.values():
        kernel |= sol
    return KernelReport(
        _members(kernel),
        {"c": cap_c, "k": k, "grid_shortcut": False, "candidates": len(solved)},
    )
