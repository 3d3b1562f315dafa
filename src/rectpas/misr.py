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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from typing import Iterable, Mapping, Optional, Sequence

from .geometry import MisrInstance, KernelReport, Rect, as_epsilon, rects_disjoint, validate_misr_solution
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


@dataclass(frozen=True)
class CellArray:
    """Indexed closed grid cells with corner and point lookups."""

    grid: Grid

    @property
    def shape(self) -> tuple[int, int]:
        return (self.grid.n_cols, self.grid.n_rows)

    def cell_box(self, col: int, row: int) -> Box:
        g = self.grid
        if not (0 <= col < g.n_cols and 0 <= row < g.n_rows):
            raise IndexError(f"cell ({col},{row}) out of range {self.shape}")
        return Box(g.v_lines[col], g.h_lines[row], g.v_lines[col + 1], g.h_lines[row + 1])

    def corners(self, col: int, row: int) -> tuple[tuple[int, int], ...]:
        b = self.cell_box(col, row)
        return ((b.x1, b.y1), (b.x2, b.y1), (b.x1, b.y2), (b.x2, b.y2))

    def cells_at_point(self, x: int, y: int) -> tuple[tuple[int, int], ...]:
        """All closed cells containing the doubled-coordinate point."""
        g = self.grid
        cols = range(
            max(0, bisect_left(g.v_lines, x) - 1),
            min(g.n_cols, bisect_right(g.v_lines, x)),
        )
        rows = range(
            max(0, bisect_left(g.h_lines, y) - 1),
            min(g.n_rows, bisect_right(g.h_lines, y)),
        )
        return tuple(
            (c, r)
            for c in cols
            for r in rows
            if self.cell_box(c, r).contains(x, y)
        )


def grid_cells(grid: Grid) -> CellArray:
    return CellArray(grid)


def cells_spanned(grid: Grid, rect: Rect) -> tuple[tuple[int, int], ...]:
    """All cells the open rectangle intersects; always a contiguous block."""
    c_lo = bisect_right(grid.v_lines, 2 * rect.x1) - 1
    c_hi = bisect_left(grid.v_lines, 2 * rect.x2) - 1
    r_lo = bisect_right(grid.h_lines, 2 * rect.y1) - 1
    r_hi = bisect_left(grid.h_lines, 2 * rect.y2) - 1
    c_lo, r_lo = max(c_lo, 0), max(r_lo, 0)
    c_hi, r_hi = min(c_hi, grid.n_cols - 1), min(r_hi, grid.n_rows - 1)
    return tuple((c, r) for c in range(c_lo, c_hi + 1) for r in range(r_lo, r_hi + 1))


def rect_block(grid: Grid, rect: Rect) -> tuple[int, int, int, int]:
    """The (col_lo, row_lo, col_hi, row_hi) block of cells the rect spans."""
    cells = cells_spanned(grid, rect)
    cols = [c for c, _ in cells]
    rows = [r for _, r in cells]
    return (min(cols), min(rows), max(cols), max(rows))


def contained_corner_hull(grid: Grid, rect: Rect) -> Box:
    """Convex hull of the grid corners strictly inside the rectangle.

    Grid corners are intersections of grid lines; the hull is the box
    spanned by the crossing lines of each axis and may be degenerate.
    """
    vs, hs = crossing_lines(grid, rect)
    if not vs or not hs:
        raise ValueError("rectangle contains no grid corner")
    return Box(min(vs), min(hs), max(vs), max(hs))


# ---------------------------------------------------------------------------
# The two embedded graphs over a feasible solution


def _corner_owner(
    inst: MisrInstance, solution: Sequence[int], x: int, y: int
) -> Optional[int]:
    for i in solution:
        r = inst.rects[i]
        if 2 * r.x1 < x < 2 * r.x2 and 2 * r.y1 < y < 2 * r.y2:
            return i
    return None


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
    """
    sol = sorted(set(solution))
    if not validate_misr_solution(inst, sol):
        raise ValueError("solution is not an independent set")
    cross = {i: crossing_lines(grid, inst.rects[i]) for i in sol}
    cells = {i: set(cells_spanned(grid, inst.rects[i])) for i in sol}
    hull = {i: contained_corner_hull(grid, inst.rects[i]) for i in sol}
    arr = grid_cells(grid)

    edges: list[tuple[int, int, Segment]] = []
    for ai in range(len(sol)):
        for bi in range(ai + 1, len(sol)):
            i, j = sol[ai], sol[bi]
            shared_cells = cells[i] & cells[j]
            if not shared_cells:
                continue
            seg = _shared_line_segment(i, j, cross, hull)
            if seg is None:
                seg = _diagonal_segment(arr, inst, sol, shared_cells, i, j, "tlbr")
            if seg is not None:
                edges.append((i, j, seg))
    vertices = {i: VertexDrawing.box(hull[i]) for i in sol}
    return EmbeddedGraph(vertices, tuple(edges))


def _shared_line_segment(i, j, cross, hull) -> Optional[Segment]:
    vi, hi = cross[i]
    vj, hj = cross[j]
    shared_v = sorted(set(vi) & set(vj))
    if shared_v:
        v = shared_v[0]
        lower, upper = (hull[i], hull[j]) if hull[i].y2 <= hull[j].y1 else (hull[j], hull[i])
        return Segment(v, lower.y2, v, upper.y1)
    shared_h = sorted(set(hi) & set(hj))
    if shared_h:
        h = shared_h[0]
        left, right = (hull[i], hull[j]) if hull[i].x2 <= hull[j].x1 else (hull[j], hull[i])
        return Segment(left.x2, h, right.x1, h)
    return None


def _diagonal_segment(
    arr: CellArray,
    inst: MisrInstance,
    solution: Sequence[int],
    shared_cells: Iterable[tuple[int, int]],
    i: int,
    j: int,
    kind: str,
) -> Optional[Segment]:
    """Diagonal edge for a corner pair inside some shared cell.

    ``kind`` selects which opposite corner pair induces the edge:
    "tlbr" is top-left with bottom-right, "bltr" bottom-left with top-right.
    """
    for cell in sorted(shared_cells):
        b = arr.cell_box(*cell)
        if kind == "tlbr":
            c1, c2 = (b.x1, b.y2), (b.x2, b.y1)
        else:
            c1, c2 = (b.x1, b.y1), (b.x2, b.y2)
        o1 = _corner_owner(inst, (i, j), *c1)
        o2 = _corner_owner(inst, (i, j), *c2)
        if o1 is not None and o2 is not None and o1 != o2:
            return Segment(*c1, *c2)
    return None


def build_G2(
    g1_division: Division,
    solution: Iterable[int],
    grid: Grid,
    inst: MisrInstance,
) -> EmbeddedGraph:
    """Component graph capturing the corner pairs G1 leaves unconnected.

    One vertex per surviving component of the divided first graph; an edge
    whenever some cell's bottom-left and top-right corners lie in
    rectangles of two different components. Each component is drawn as its
    members' corner hulls joined by the in-component segments, and each
    edge as the bottom-left to top-right diagonal of a witness cell.
    """
    sol = sorted(set(solution))
    survivors = [i for i in sol if i not in g1_division.removed]
    comp_of = g1_division.component_of()
    hull = {i: contained_corner_hull(grid, inst.rects[i]) for i in survivors}
    cross = {i: crossing_lines(grid, inst.rects[i]) for i in survivors}
    cells = {i: set(cells_spanned(grid, inst.rects[i])) for i in survivors}
    arr = grid_cells(grid)

    vertices: dict[int, VertexDrawing] = {}
    for ci, comp in enumerate(g1_division.components):
        members = sorted(comp)
        boxes = tuple(hull[i] for i in members)
        connectors: list[Segment] = []
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                i, j = members[ai], members[bi]
                if not cells[i] & cells[j]:
                    continue
                seg = _shared_line_segment(i, j, cross, hull)
                if seg is None:
                    seg = _diagonal_segment(arr, inst, members, cells[i] & cells[j], i, j, "tlbr")
                if seg is not None:
                    connectors.append(seg)
        vertices[ci] = VertexDrawing(boxes, tuple(connectors))

    edges: list[tuple[int, int, Segment]] = []
    seen: set[tuple[int, int]] = set()
    for ai in range(len(survivors)):
        for bi in range(ai + 1, len(survivors)):
            i, j = survivors[ai], survivors[bi]
            ci, cj = comp_of[i], comp_of[j]
            if ci == cj:
                continue
            key = (min(ci, cj), max(ci, cj))
            if key in seen:
                continue
            shared = cells[i] & cells[j]
            if not shared:
                continue
            seg = _diagonal_segment(arr, inst, survivors, shared, i, j, "bltr")
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
    div1 = apply_separator(g1, eps / 2)
    c1 = max(div1.max_component, 1)
    g2 = build_G2(div1, sol, grid, inst)
    div2 = apply_separator(g2, eps / (2 * c1))
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


@dataclass(frozen=True)
class CellSet:
    """A union of cell blocks; blocks are (col_lo, row_lo, col_hi, row_hi)."""

    cells: frozenset[tuple[int, int]]
    blocks: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        union = set()
        for c0, r0, c1, r1 in self.blocks:
            union.update((c, r) for c in range(c0, c1 + 1) for r in range(r0, r1 + 1))
        if union != set(self.cells):
            raise ValueError("cell set does not match its block signatures")


def _block_cells(block: tuple[int, int, int, int]) -> frozenset[tuple[int, int]]:
    c0, r0, c1, r1 = block
    return frozenset((c, r) for c in range(c0, c1 + 1) for r in range(r0, r1 + 1))


def all_blocks(grid: Grid) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(
        (c0, r0, c1, r1)
        for c0 in range(grid.n_cols)
        for r0 in range(grid.n_rows)
        for c1 in range(c0, grid.n_cols)
        for r1 in range(r0, grid.n_rows)
    )


def enumerate_cell_sets(grid: Grid, b: int) -> Iterable[CellSet]:
    """Stream all distinct unions of at most b cell blocks.

    Deduplicated by cell content; the first block combination (in
    lexicographic order) producing a union wins as its signature.
    """
    if b < 1:
        raise ValueError("block budget must be at least 1")
    from itertools import combinations

    blocks = all_blocks(grid)
    seen: set[frozenset[tuple[int, int]]] = set()
    for size in range(1, b + 1):
        for combo in combinations(blocks, size):
            cells = frozenset().union(*(_block_cells(bl) for bl in combo))
            if cells in seen:
                continue
            seen.add(cells)
            yield CellSet(cells, combo)


def rects_inside(
    inst: MisrInstance, grid: Grid, cells: frozenset[tuple[int, int]]
) -> tuple[int, ...]:
    """Indices of rectangles lying entirely inside the cell union."""
    out = []
    for i, r in enumerate(inst.rects):
        if set(cells_spanned(grid, r)) <= cells:
            out.append(i)
    return tuple(out)


def _capped_mis(inst: MisrInstance, candidates: Sequence[int], cap: int) -> tuple[int, ...]:
    """Largest independent subset of the candidates, early-cut at cap.

    Complete enumeration in index order with include-first branching, so
    among equally sized optima the lexicographically smallest wins.
    """
    if cap <= 0 or not candidates:
        return ()
    order = sorted(candidates)
    adj = {
        i: {j for j in order if j != i and not rects_disjoint(inst.rects[i], inst.rects[j])}
        for i in order
    }
    best: tuple[int, ...] = ()

    def rec(pos: int, chosen: list[int]) -> None:
        nonlocal best
        if len(best) >= cap:
            return
        if len(chosen) > len(best):
            best = tuple(chosen)
            if len(best) >= cap:
                return
        if pos == len(order) or len(chosen) + (len(order) - pos) <= len(best):
            return
        v = order[pos]
        if not any(v in adj[c] for c in chosen):
            chosen.append(v)
            rec(pos + 1, chosen)
            chosen.pop()
        rec(pos + 1, chosen)

    rec(0, [])
    return best


def solve_cellset_subproblem(
    inst: MisrInstance, grid: Grid, cells: CellSet | frozenset, cap: int
) -> tuple[int, ...]:
    """Best feasible subset of size <= cap among rectangles inside the cells."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    cell_set = cells.cells if isinstance(cells, CellSet) else frozenset(cells)
    return _capped_mis(inst, rects_inside(inst, grid, cell_set), cap)


@dataclass(frozen=True)
class _Candidate:
    cells: frozenset[tuple[int, int]]
    blocks: tuple[tuple[int, int, int, int], ...]
    solution: tuple[int, ...]

    @property
    def value(self) -> int:
        return len(self.solution)


def _candidate_family(
    inst: MisrInstance, grid: Grid, c: int, b: int
) -> list[_Candidate]:
    """Footprints of cell-connected independent subsets, solved under cap c.

    Every union of blocks worth value v contains an independent subset of v
    rectangles whose own footprint is a candidate here, so the set-packing
    optimum over this family equals the optimum over the full block-union
    enumeration while staying desk sized. Subsets are grown through the
    shares-a-cell relation; disconnected unions split into equivalent
    separate candidates.
    """
    limit = min(c, b, inst.n)
    if limit <= 0:
        return []
    spans = [frozenset(cells_spanned(grid, r)) for r in inst.rects]
    n = inst.n
    shares = [set() for _ in range(n)]
    conflict = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if spans[i] & spans[j]:
                shares[i].add(j)
                shares[j].add(i)
                if not rects_disjoint(inst.rects[i], inst.rects[j]):
                    conflict[i].add(j)
                    conflict[j].add(i)

    footprints: set[frozenset[tuple[int, int]]] = set()
    members: list[tuple[int, ...]] = []

    def grow(root: int, chosen: list[int], frontier: set[int], banned: set[int]) -> None:
        cells = frozenset().union(*(spans[i] for i in chosen))
        if cells not in footprints:
            footprints.add(cells)
            members.append(tuple(chosen))
        if len(chosen) >= limit:
            return
        ext = sorted(v for v in frontier if v > root and v not in banned)
        dead: set[int] = set()
        for v in ext:
            if any(v in conflict[c_] for c_ in chosen):
                continue
            chosen.append(v)
            grow(root, chosen, (frontier | shares[v]) - set(chosen), banned | dead)
            chosen.pop()
            dead.add(v)

    for root in range(n):
        grow(root, [root], set(shares[root]), set())

    out = []
    for mem in members:
        cells = frozenset().union(*(spans[i] for i in mem))
        blocks = tuple(sorted({rect_block(grid, inst.rects[i]) for i in mem}))
        sol = solve_cellset_subproblem(inst, grid, cells, c)
        if sol:
            out.append(_Candidate(cells, blocks, sol))
    # Merge identical footprints (same cells imply the same subproblem).
    uniq: dict[frozenset, _Candidate] = {}
    for cand in out:
        uniq.setdefault(cand.cells, cand)
    return sorted(
        uniq.values(), key=lambda cd: (-cd.value, sorted(cd.cells), cd.solution)
    )


def _max_disjoint_collection(
    cands: Sequence[_Candidate], k: int
) -> tuple[int, tuple[int, ...]]:
    """Exact weighted set packing over cell-disjoint candidates.

    Branch and bound over the value-sorted candidate list; at most k sets
    may be chosen. Returns the best total and the union of the chosen
    sub-solutions, breaking value ties towards the lexicographically
    smallest rectangle index set.
    """
    values = [cd.value for cd in cands]
    suffix_best: list[list[int]] = [[] for _ in range(len(cands) + 1)]
    for i in range(len(cands) - 1, -1, -1):
        merged = sorted(suffix_best[i + 1] + [values[i]], reverse=True)[:k]
        suffix_best[i] = merged

    best_total = 0
    best_sol: tuple[int, ...] = ()

    def rec(pos: int, picks: int, used: frozenset, total: int, sol: list[int]) -> None:
        nonlocal best_total, best_sol
        cand_sol = tuple(sorted(sol))
        if total > best_total or (total == best_total and cand_sol and cand_sol < best_sol):
            best_total, best_sol = total, cand_sol
        if pos >= len(cands) or picks >= k:
            return
        room = sum(suffix_best[pos][: k - picks])
        if total + room < best_total:
            return
        cand = cands[pos]
        if not (cand.cells & used):
            rec(pos + 1, picks + 1, used | cand.cells, total + cand.value, sol + list(cand.solution))
        rec(pos + 1, picks, used, total, sol)

    rec(0, 0, frozenset(), 0, [])
    return best_total, best_sol


def theory_knobs(epsilon: Fraction | float) -> tuple[int, int]:
    """Default cap and block budget: c on the order of eps^-8, b = c."""
    eps = float(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    c = max(1, ceil(1 / eps**8))
    return c, c


@dataclass(frozen=True)
class PasMisrResult:
    """Outcome of the PAS run: a solution or the negative assertion."""

    selected: Optional[tuple[int, ...]]
    opt_below_k: bool
    best_total: int
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def positive(self) -> bool:
        return self.selected is not None


def pas_misr(
    inst: MisrInstance,
    k: int,
    epsilon: Fraction | float,
    c: Optional[int] = None,
    b: Optional[int] = None,
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
    """
    eps = float(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    tc, tb = theory_knobs(epsilon)
    cap_c = tc if c is None else c
    cap_b = tb if b is None else b
    threshold = max(ceil((1 - eps) * k), 0)
    meta: dict[str, object] = {
        "k": k,
        "epsilon": eps,
        "c": cap_c,
        "b": cap_b,
        "threshold": threshold,
        "decision_rule": "positive iff best total >= k",
        "assertion_sound_under": "theory knob mapping",
    }
    outcome = build_grid(inst, k)
    if not outcome.is_grid:
        meta["branch"] = "grid-witness"
        return PasMisrResult(outcome.witness, False, k, meta)
    grid = outcome.grid
    cands = _candidate_family(inst, grid, cap_c, cap_b)
    best_total, best_sol = _max_disjoint_collection(cands, k)
    meta["branch"] = "set-packing"
    meta["candidates"] = len(cands)
    if best_total >= k:
        assert validate_misr_solution(inst, best_sol)
        return PasMisrResult(best_sol, False, best_total, meta)
    return PasMisrResult(None, True, best_total, meta)


def kernel_misr(
    inst: MisrInstance,
    k: int,
    epsilon: Fraction | float,
    c: Optional[int] = None,
    b: Optional[int] = None,
) -> KernelReport:
    """Approximate kernel: union of capped solutions over all candidates.

    When the grid step finds k independent rectangles, they are the kernel.
    Otherwise each candidate cell set contributes its capped subproblem
    solution; the union preserves a (1-eps) fraction of min(k, OPT)
    whenever the family covers the structured groups. The kernel size is
    bounded by c times the candidate count, itself at most k^(4b).
    """
    tc, tb = theory_knobs(epsilon)
    cap_c = tc if c is None else c
    cap_b = tb if b is None else b
    outcome = build_grid(inst, k)
    if not outcome.is_grid:
        return KernelReport(
            tuple(sorted(outcome.witness)),
            {"c": cap_c, "b": cap_b, "k": k, "grid_shortcut": True},
        )
    cands = _candidate_family(inst, outcome.grid, cap_c, cap_b)
    kernel: set[int] = set()
    for cand in cands:
        kernel.update(cand.solution)
    return KernelReport(
        tuple(sorted(kernel)),
        {"c": cap_c, "b": cap_b, "k": k, "grid_shortcut": False, "candidates": len(cands)},
    )
