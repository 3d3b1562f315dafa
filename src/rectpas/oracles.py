"""Exact searches: the 2DKR PAS's packing probe and the referees.

Exact maximum independent set of rectangles, the paper's block-union
family of candidate cell sets, complete rectangle-packing feasibility,
exact cardinality geometric knapsack, and a multi-subset-sum DP with
witness reconstruction. The packing search is the probe the 2DKR PAS
runs on each k'-subset of its kernel (``first_packable_subset``), so it
is tuned for speed: bounds from dual feasible functions reject most
infeasible probes before any coordinate list is built, and an
x-projection with an area cut rejects most of the rest before any 2D
placement. Every search is complete,
ends within its ``OracleBudget`` or raises ``BudgetExceededError``, and
every answer carries a checkable certificate. The ``*_scan`` and
``*_enumerate`` functions are brute-force referees for these searches
and favour transparent completeness over speed.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .geometry import (
    Item,
    MisrInstance,
    Placement,
    conflict_masks,
    validate_misr_solution,
)

if TYPE_CHECKING:
    from .misr import Grid


class BudgetExceededError(RuntimeError):
    """Raised when a search would exceed its declared budget."""


def _overrun(stage: str) -> BudgetExceededError:
    return BudgetExceededError(f"time budget exceeded in {stage}")


@dataclass(frozen=True)
class OracleBudget:
    """Size bounds and an optional time limit in seconds for a search.

    While a time limit is set, every search reads one deadline at each of
    its nodes, so an overrun ends at most one node past it.
    """

    max_items: int = 25
    max_solution_size: int = 8
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_items < 1 or self.max_solution_size < 0:
            raise ValueError("budget bounds must be positive")
        if self.time_limit is not None and not self.time_limit > 0:  # NaN fails too
            raise ValueError("time limit must be positive")

    def deadline(self) -> Optional[float]:
        """The ``time.monotonic()`` value a run started now ends by, if limited."""
        return None if self.time_limit is None else time.monotonic() + self.time_limit


DEFAULT_BUDGET = OracleBudget()


# ---------------------------------------------------------------------------
# Maximum independent set of rectangles


def _clique_cover_bound(conflict: Sequence[int], members: list[int]) -> int:
    """Greedy clique cover size: an upper bound on the independent set.

    Each member, in the given order, joins the first clique it overlaps
    entirely (a clique is a mask of rectangle indices).
    """
    cliques: list[int] = []
    for v in members:
        for i, cl in enumerate(cliques):
            if not cl & ~conflict[v]:
                cliques[i] = cl | 1 << v
                break
        else:
            cliques.append(1 << v)
    return len(cliques)


def mis_rectangles_exact(
    inst: MisrInstance, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[int, ...]:
    """Exact maximum independent set via branch and bound.

    The live subproblem is a mask over rectangle indices, read against
    ``conflict_masks``. Branches on the live rectangle of maximum degree
    (ties to the smaller index), include first, and skips it only when it
    overlaps some other live rectangle; prunes with a greedy clique cover
    bound taken in ascending index order. The certificate is re-validated
    before returning.

    The search runs on an explicit stack of (live mask, chosen) nodes, so
    its depth costs no Python frames: a node pushes its skip child, then its
    include child, which makes the pops visit the nodes in the include-first
    order of a recursion.
    """
    if inst.n > budget.max_items:
        raise BudgetExceededError(f"{inst.n} rectangles exceed budget {budget.max_items}")
    deadline = budget.deadline()
    conflict = conflict_masks(inst)
    best: list[int] = []
    stack: list[tuple[int, tuple[int, ...]]] = [((1 << inst.n) - 1, ())]
    while stack:
        alive, chosen = stack.pop()
        if deadline is not None and time.monotonic() > deadline:
            raise _overrun("exact MIS")
        if not alive:
            if len(chosen) > len(best):
                best = sorted(chosen)
            continue
        members = [u for u in range(alive.bit_length()) if alive >> u & 1]
        if len(chosen) + _clique_cover_bound(conflict, members) <= len(best):
            continue
        v = max(members, key=lambda u: ((conflict[u] & alive).bit_count(), -u))
        rest = alive & ~(1 << v)
        if conflict[v] & rest:
            stack.append((rest, chosen))
        stack.append((alive & ~conflict[v], (*chosen, v)))
    assert validate_misr_solution(inst, best)
    return tuple(best)


def mis_rectangles_scan(inst: MisrInstance) -> tuple[int, ...]:
    """Reference 2^n subset scan (oracle of the oracle, small n only)."""
    best: tuple[int, ...] = ()
    n = inst.n
    for mask in range(1 << n):
        if mask.bit_count() <= len(best):
            continue
        sel = [i for i in range(n) if mask >> i & 1]
        if validate_misr_solution(inst, sel):
            best = tuple(sel)
    return best


# ---------------------------------------------------------------------------
# Candidate cell sets: the block-union family


@dataclass(frozen=True)
class CellSet:
    """A union of cell blocks; blocks are (col_lo, row_lo, col_hi, row_hi)."""

    cells: frozenset[tuple[int, int]]
    blocks: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        if frozenset().union(*map(_block_cells, self.blocks)) != self.cells:
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

    This is the paper's candidate family with its block budget b, the
    referee for the family that ``misr`` grows. Deduplicated by cell
    content; the first block combination (in lexicographic order) producing
    a union wins as its signature.
    """
    if b < 1:
        raise ValueError("block budget must be at least 1")
    blocks = all_blocks(grid)
    seen: set[frozenset[tuple[int, int]]] = set()
    for size in range(1, b + 1):
        for combo in combinations(blocks, size):
            cells = frozenset().union(*(_block_cells(bl) for bl in combo))
            if cells in seen:
                continue
            seen.add(cells)
            yield CellSet(cells, combo)


# ---------------------------------------------------------------------------
# Rectangle packing feasibility


def _orientations(it: Item, rotations: bool) -> tuple[tuple[int, int, bool], ...]:
    outs: list[tuple[int, int, bool]] = [(it.w, it.h, False)]
    if rotations and it.w != it.h:
        outs.append((it.h, it.w, True))
    return tuple(outs)


def packing_feasible_exact(
    items: Sequence[Item],
    W: int,
    H,
    rotations: bool = True,
    budget: OracleBudget = DEFAULT_BUDGET,
    deadline: Optional[float] = None,
) -> Optional[tuple[Placement, ...]]:
    """Complete feasibility search for packing all given items into W x H.

    Places items by decreasing area (ties by index), trying each
    orientation, then canonical x, then canonical y: sums over a subset of
    the other items of one side of each. Completeness follows from sliding
    any feasible packing left and down until every item rests against the
    boundary or another item (normal patterns; Herz 1972, Christofides and
    Whitlock 1977). The first item is confined to the lower-left quadrant
    to break the reflection symmetries.

    Overlap is tested once per x, not once per placement. For a placed
    item spanning [y1, y2], the level's canonical y values that would meet
    it are those in (y1 - h, y2): a contiguous run, held as a bitset over
    the sorted y values. At a given x the free y values are the valid ones
    minus the runs of the placed items whose x-extent meets (x, x + w), so
    only placements that fit are visited, in ascending y. The work per x
    grows with the number of placed items and of canonical y values, not
    with the number of distinct coordinates on both axes at once. All
    comparisons are exact, so this holds for a ``Fraction`` H as well.

    The checks run in this order. First, bounds from dual feasible
    functions (``_dff_rejection``; Fekete and Schepers 2004): the area
    test, then Fekete-Schepers u^(k) for k = 1, 2, 3, then u^(eps). A
    function f on [0, L] is dual feasible when any sizes that sum to at
    most L map to values that sum to at most f(L). In a packing, items
    whose x-extents are pairwise disjoint have widths that sum to at most
    W, and likewise on y; so the packing's packing class (the two graphs
    of overlapping extents) also packs the widths f1(w) into f1(W) and the
    heights f2(h) into f2(H), and the area of that packing gives
    sum f1(w) * f2(h) <= f1(W) * f2(H). A probe that breaks the inequality
    for a member of the fixed family has no packing and gets ``None``
    before any coordinate list is built, after one read of the deadline.
    :func:`first_packable_subset` never builds a probe over the area test.
    Next, the x-projection; last, the 2D search.

    Before the 2D search and at its nodes, the items are projected onto x
    (Clautiaux, Carlier and Moukrim 2007): each unplaced item, in the same
    order, gets an orientation and an x from the same canonical values
    under the same cuts, so that the heights covering every x, the placed
    items' included, sum to at most H. A probe with no such assignment
    gets ``None`` before any y coordinate is built; a node with none is
    cut. An assignment found is a certificate: a child that puts its item
    on it inherits it. Other children check again, once per x-projection
    (nodes that differ only in y share the answer). Any completion of a
    node is a packing, whose items covering an x stack in [0, H), so its
    x-projection passes the check: only subtrees without a packing are
    cut, and the first packing found is that of the 2D search alone. The
    projection's own search keeps the load over x as a step profile and
    hands each child its parent's with one interval added
    (``_add_interval``), so a node costs one pass over the steps rather
    than a rebuild from all placed items.
    It also cuts a node whose unplaced items cannot fill the room the
    profile leaves: over each step, they stack to at most the largest sum
    of their heights that fits under H, and the cut fires when those
    stacks cover less than their total area (``_x_projection_fits``;
    the table of sums, ``_stack_table``, is built once per probe of four or
    more items). Being sound, the cut leaves the first assignment, and so
    every placement, unchanged. On a square board the canonical y values
    are the x values.

    On a probe of four or more items, the root check runs on fewer x,
    after the meet-in-the-middle principle (Cote and Iori, INFORMS J.
    Computing 30(4), 2018). Let T be one more than the first item's
    largest mirror cut, (W - w) // 2 over its orientations. The first item
    keeps its normal patterns up to its cut; every other item, in each
    orientation, takes the normal patterns p < T and the right-aligned
    positions W - w - p >= T (``_position_rows`` with ``meet``). The check
    is exactly as complete as the one on normal patterns. Take any
    feasible x-projection; push every interval that starts below T left,
    and every other one right, until it is blocked. A left interval can
    then be blocked only at 0 or at the end of another left interval (a
    right one ends beyond T), and a right interval only at W or at the
    start of another right interval, so by induction along these chains
    every interval lands in its table; the first item starts below T, so
    it only moves left and keeps its cut. An assignment found is moved onto
    normal patterns (``_left_justified``) and is the root certificate. The
    2D search and its node checks keep the normal patterns: their placed
    items sit at any canonical x, where the argument fails.

    The deadline is ``budget``'s, started here, unless a caller that runs
    many probes under one deadline hands it in.
    """
    m = len(items)
    if m > budget.max_solution_size:
        raise BudgetExceededError(f"{m} items exceed budget {budget.max_solution_size}")
    if m == 0:
        return ()
    if deadline is None:
        deadline = budget.deadline()
    if _dff_rejection(items, W, H, rotations) is not None:
        if deadline is not None and time.monotonic() > deadline:
            raise _overrun("packing search")
        return None
    return _packing_search(items, W, H, rotations, deadline)


# The k of the Fekete-Schepers functions u^(k) that ``_dff_rejection`` tries.
_DFF_KS = (1, 2, 3)


def _dff_rejection(items: Sequence[Item], W: int, H, rotations: bool) -> Optional[str]:
    """The first dual feasible function whose bound ``items`` break, or ``None``.

    Each member f of the fixed family is applied with L = W to widths and
    L = H to heights, and the probe breaks it when the sum over the items
    of f(w) * f(h) exceeds f(W) * f(H) (see :func:`packing_feasible_exact`
    for why no packing does). A rotatable item counts the smaller of its
    two orientations; on a square board they are equal. Members, in the
    order checked, with the name returned:

    * ``"area"``: the identity;
    * ``"u1"``, ``"u2"``, ``"u3"``: k * u^(k), see ``_u_k``, against
      k^2 * W * H;
    * ``"eps"``: u^(eps), see ``_u_eps``, at each threshold e that is an
      item side with 2 * e <= min(W, H), the same e on both axes, in
      ascending order. A threshold is skipped when it maps no more sides
      to L than the last one checked (or than none): every size then maps
      to no more than it did there (or than itself), so the sum cannot
      exceed the sum already found within the bound (or the area).

    All arithmetic is exact, for a ``Fraction`` H too. Without a rotation
    to weigh (``rotations`` false, or a square board), each sum is one loop
    over the items with ``_u_k`` and ``_u_eps`` written out inline; the
    rotation path calls them per side.
    """
    dims = [(it.w, it.h) for it in items]
    if sum(w * h for w, h in dims) > W * H:
        return "area"
    turn = rotations and W != H

    def turned(f, arg):
        return sum(min(f(w, W, arg) * f(h, H, arg), f(h, W, arg) * f(w, H, arg)) for w, h in dims)

    for k in _DFF_KS:
        if turn:
            got = turned(_u_k, k)
        else:  # _u_k of both sides, written out: no call per side
            got = 0
            for w, h in dims:
                qw, rw = divmod((k + 1) * w, W)
                qh, rh = divmod((k + 1) * h, H)
                got += (qw * W if rw else k * w) * (qh * H if rh else k * h)
        if got > k * k * W * H:
            return f"u{k}"
    sides = sorted({s for d in dims for s in d})
    inflated = 0
    for e in sides:
        if 2 * e > min(W, H):
            break
        # The (side, axis) pairs that u^(eps) maps to L; the count only grows with e.
        now = 2 * len(sides) - bisect_right(sides, W - e) - bisect_right(sides, H - e)
        if now > inflated:
            inflated = now
            if turn:
                got = turned(_u_eps, e)
            else:  # _u_eps of both sides, written out
                wl, hl = W - e, H - e
                got = sum((0 if w < e else W if w > wl else w) * (0 if h < e else H if h > hl else h) for w, h in dims)
            if got > W * H:
                return "eps"
    return None


def _u_k(x, L, k):
    """k * u^(k)(x) on [0, L] (Fekete and Schepers): k * x when (k + 1) * x
    is a multiple of L, else floor((k + 1) * x / L) * L. At L it is k * L."""
    q, r = divmod((k + 1) * x, L)
    return q * L if r else k * x


def _u_eps(x, L, e):
    """u^(eps)(x) on [0, L] at the threshold e = eps * L, 0 < 2 * e <= L:
    0 below e, L above L - e, x in between. At L it is L."""
    return 0 if x < e else L if x > L - e else x


def _normal_patterns(pairs: Sequence[tuple[int, int]], limit) -> list[list[int]]:
    """Per item i of ``pairs``, the sorted sums up to ``limit`` of one side
    of each item in a subset of the others: its normal patterns.

    One subset-sum pass over all the items keeps ``must[s]``, the AND of
    the masks of items used (bit i for item i) over every way to reach the
    sum s. Some way reaches s without item i iff bit i of ``must[s]`` is
    clear. Sides are positive, so every partial sum of a way to s is at
    most s, and ``must[s]`` does not depend on ``limit`` once s is within it.
    """
    must = {0: 0}
    for i, (a, b) in enumerate(pairs):
        bit = 1 << i
        for s, used in list(must.items()):
            used |= bit
            for t in (s + a, s + b) if a != b else (s + a,):
                if t <= limit:
                    must[t] = must.get(t, -1) & used
    sums = sorted(must.items())
    return [[s for s, used in sums if not used >> i & 1] for i in range(len(pairs))]


def _packing_search(items, W, H, rotations, deadline):
    """The x-projection root check and the 2D search of
    :func:`packing_feasible_exact`, on a probe that passed the DFF bound.

    Every item's canonical x values, its normal patterns up to W, come from
    one ``_normal_patterns`` pass over the items in search order. The y
    values are built only for a probe that passes the root check: on a
    square board they are the x values, on another board a second pass
    gives them, up to H. However the search ends, ``rec`` is dropped, so
    the call leaves no reference cycle behind for the cyclic collector.
    """
    m = len(items)
    # Large items first prunes earliest; determinism via the index tie-break.
    order = sorted(range(m), key=lambda i: (-items[i].w * items[i].h, i))
    per_item = [_orientations(items[i], rotations) for i in order]
    pairs = [(items[i].w, items[i].h) for i in order]
    xs_all = _normal_patterns(pairs, W)
    # With three items the area cut runs at position 1 alone, where the
    # table costs more than the nodes it cuts.
    stacks = _stack_table(per_item, H) if m > 3 else None
    # From four items on, the root check runs on the meet-in-the-middle
    # positions; its assignment, left-justified, is a certificate on the
    # normal patterns that the 2D search and its node checks keep.
    rows = _position_rows(per_item, xs_all, W, H, meet=m > 3)
    root = _x_projection_fits(rows, stacks, W, H, deadline)
    if root is None:
        return None
    if m > 3:
        rows = _position_rows(per_item, xs_all, W, H)
        root = _left_justified(root, H)
    ys_all = xs_all if H == W else _normal_patterns(pairs, H)
    out: list[tuple[int, int, int, bool, int, int]] = []
    checked: dict[tuple, Optional[tuple]] = {}

    def rec(t: int, cert) -> bool:
        if deadline is not None and time.monotonic() > deadline:
            raise _overrun("packing search")
        if t == m:
            return True
        ys = ys_all[t]
        for w, h, _, xs, rot in rows[t]:
            y_cut = H - h if t else (H - h) // 2
            valid = (1 << bisect_right(ys, y_cut)) - 1
            # Bit i of a run is set when ys[i] < y2 and ys[i] + h > y1,
            # that is when the item at y = ys[i] meets the placed one.
            runs = [
                (x1, x2, (1 << bisect_left(ys, y2)) - (1 << bisect_right(ys, y1 - h)))
                for _, x1, y1, _, x2, y2 in out
            ]
            for x in xs:
                free = valid
                for x1, x2, run in runs:
                    if x < x2 and x1 < x + w:
                        free &= ~run
                if not free:
                    continue
                # cert: this node's x-projection, placed items first. A child
                # on it inherits it; others share one check per x-projection.
                key = (*cert[:t], (x, x + w, h))
                if key not in checked:
                    checked[key] = cert if cert[t] == key[t] else _x_projection_fits(
                        rows, stacks, W, H, deadline, key
                    )
                sub = checked[key]
                if sub is None:
                    continue
                while free:
                    low = free & -free
                    free ^= low
                    y = ys[low.bit_length() - 1]
                    out.append((order[t], x, y, rot, x + w, y + h))
                    if rec(t + 1, sub):
                        return True
                    out.pop()
        return False

    try:
        if rec(0, root):
            return tuple(Placement(*p[:4]) for p in sorted(out))
        return None
    finally:
        del rec  # rec holds itself through its closure, and with it the probe's tables


def _position_rows(per_item, xs_all, W, H, meet=False):
    """Per search position t, one row (w, h, H - h, xs, rot) per orientation
    of item t that fits under H: xs are the sorted x the search tries.

    The first item takes its normal patterns ``xs_all[0]`` up to the mirror
    cut (W - w) // 2. Every other item takes its normal patterns p <= W - w,
    or, with ``meet``, the normal patterns p < T and the right-aligned
    positions W - w - p >= T, where T is one more than the first item's
    largest cut (meet in the middle; Cote and Iori 2018). These are fewer on
    a wide board, and as complete for an x-projection with nothing placed;
    see :func:`packing_feasible_exact`.
    """
    if meet:
        split = (W - min(w for w, _, _ in per_item[0])) // 2 + 1
    rows = []
    for t, (opts, xs) in enumerate(zip(per_item, xs_all)):
        row = []
        for w, h, rot in opts:
            if h > H:
                continue
            if not t:
                pos = xs[: bisect_right(xs, (W - w) // 2)]
            elif not meet:
                pos = xs[: bisect_right(xs, W - w)]
            else:
                r = W - w
                pos = xs[: bisect_left(xs, split if split <= r else r + 1)]
                pos += map(r.__sub__, reversed(xs[: bisect_right(xs, r - split)]))
            row.append((w, h, H - h, pos, rot))
        rows.append(tuple(row))
    return rows


def _left_justified(intervals, H):
    """The x-projection ``intervals`` with every interval moved left onto a
    normal pattern.

    In ascending x, each interval moves to the smallest of 0 and the ends
    of the intervals moved before it where it fits under them: where their
    heights leave room for its own. Such a place is never right of where it
    was, and every x right of where it was meets only intervals that met
    that x before, so the assignment stays within H. Each place is 0 or the
    end of a chain of other intervals, so it is a normal pattern.
    """
    out = list(intervals)
    moved = []
    for i in sorted(range(len(out)), key=out.__getitem__):
        x1, x2, h = out[i]
        w, room = x2 - x1, H - h
        c = 0
        if x1:  # at 0 it stays: 0 is the first place tried
            for c in sorted({0, *[b for _, b, _ in moved if b <= x1]}):
                # Over [c, c + w) the load peaks at c or where an interval starts.
                peaks = [c, *[a for a, _, _ in moved if c < a < c + w]]
                if all(sum(g for a, b, g in moved if a <= p < b) <= room for p in peaks):
                    break
        out[i] = (c, c + w, h)
        moved.append(out[i])
    return tuple(out)


def _add_interval(profile, x1, x2, h):
    """The load profile ``profile`` with h added over [x1, x2).

    A profile is the sorted, contiguous steps (a, b, load) that cover
    [0, W); [x1, x2) must lie in it. Its steps that [x1, x2) overlaps
    split at x1 and x2, and the overlapped parts gain h.
    """
    out = []
    for a, b, load in profile:
        if b <= x1 or x2 <= a:
            out.append((a, b, load))
            continue
        if a < x1:
            out.append((a, x1, load))
        out.append((max(a, x1), min(b, x2), load + h))
        if x2 < b:
            out.append((x2, b, load))
    return out


def _stack_table(per_item, H):
    """Per search position t > 0, the pair (need, fill) of the items t and later.

    ``need`` is their total area (rotation keeps an item's area). ``fill``
    is the sorted sums of at most H that they can stack: each item adds
    nothing or the height of one of its orientations. Built bottom-up, each
    position's sums from the next one's. Position 0 has no entry (``None``):
    the area cut of ``_x_projection_fits`` skips it.
    """
    need, sums = 0, {0}
    table = [None] * len(per_item)
    for t in range(len(per_item) - 1, 0, -1):
        opts = per_item[t]
        sums |= {s + h for _, h, _ in opts for s in sums if s + h <= H}
        need += opts[0][0] * opts[0][1]
        table[t] = (need, sorted(sums))
    return table


def _x_projection_fits(rows, stacks, W, H, deadline, placed=()):
    """An x-projection that completes ``placed``, or ``None``.

    ``placed`` holds the intervals (x, x + w, h) in [0, W) of the first
    items in search order. Each further item t gets a row of ``rows[t]``
    (an orientation, see ``_position_rows``) and an x from that row, such
    that at every x the heights of the intervals [x, x + w) covering it sum
    to at most H. The intervals placed so far cut [0, W) into steps of
    constant load, the profile (see ``_add_interval``); it is built once
    from ``placed`` and each child gets its parent's with its own interval
    added. A step whose
    load leaves less than h forbids the x values in (a - w, b), a
    contiguous run of the sorted xs, so the free x values are one bitset as
    in the 2D search. The answer lists the intervals of all items, in
    search order; ``placed`` that already loads some x above H has none.

    A node t is cut when the items t and later cannot fill the room its
    profile leaves (the wasted-space test of energetic reasoning; Baptiste,
    Le Pape and Nuijten 2001). With ``need, fill = stacks[t]`` (see
    ``_stack_table``), the cut fires when the sum over the steps (a, b,
    load) of (b - a) times the largest value of ``fill`` that is at most
    H - load falls below ``need``. It is sound: in any completion, the load
    the remaining items add at a point x is a sum of their chosen heights,
    so it lies in ``fill`` and is at most H - load; integrating over x
    bounds their area by that sum. The cut removes only subtrees without a
    completion, so the nodes left are visited in the same order and the
    answer is the same. It is skipped when ``stacks`` is ``None`` (probes
    of three items or fewer), at the last item, whose own x loop makes the
    same test, and at position 0. Only a root call reaches
    position 0, with nothing placed, where the cut compares W times the
    tallest stack of all items with their area; on the PAS's probes,
    tabulating the table's largest entry for that one test costs more
    time than the nodes it cuts. However the search ends, ``rec`` is
    dropped, as in ``_packing_search``.
    """
    m = len(rows)
    placed = list(placed)
    root = [(0, W, 0)]
    for x1, x2, h in placed:
        root = _add_interval(root, x1, x2, h)
    if any(load > H for _, _, load in root):
        return None

    def rec(t: int, profile) -> bool:
        if deadline is not None and time.monotonic() > deadline:
            raise _overrun("x-projection")
        if t == m:
            return True
        if stacks is not None and 0 < t < m - 1:
            need, fill = stacks[t]
            area = 0
            for a, b, load in profile:
                area += (b - a) * fill[bisect_right(fill, H - load) - 1]
            if area < need:
                return False
        for w, h, room, xs, _ in rows[t]:
            free = (1 << len(xs)) - 1
            for a, b, load in profile:
                if load > room:
                    free &= ~((1 << bisect_left(xs, b)) - (1 << bisect_right(xs, a - w)))
            while free:
                low = free & -free
                free ^= low
                x = xs[low.bit_length() - 1]
                placed.append((x, x + w, h))
                if rec(t + 1, _add_interval(profile, x, x + w, h)):
                    return True
                placed.pop()
        return False

    try:
        return tuple(placed) if rec(len(placed), root) else None
    finally:
        del rec  # rec holds itself through its closure, and with it the rows


def packing_feasible_scan(
    items: Sequence[Item], W: int, H: int, rotations: bool = True
) -> Optional[tuple[Placement, ...]]:
    """Exhaustive placement scan over all integer coordinates.

    Independent referee for :func:`packing_feasible_exact`; only usable for
    very small boards since it enumerates every placement cell by cell.
    """
    m = len(items)
    if m == 0:
        return ()
    if sum(it.w * it.h for it in items) > W * H:
        return None
    order = sorted(range(m), key=lambda i: (-items[i].w * items[i].h, i))
    masks: list[list[tuple[int, Placement]]] = []
    for i in order:
        opts = []
        for w, h, rot in _orientations(items[i], rotations):
            for x in range(W - w + 1):
                for y in range(H - h + 1):
                    mask = 0
                    for cx in range(x, x + w):
                        for cy in range(y, y + h):
                            mask |= 1 << (cy * W + cx)
                    opts.append((mask, Placement(i, x, y, rot)))
        if not opts:
            return None
        masks.append(opts)

    chosen: list[Placement] = []

    def rec(t: int, used: int) -> bool:
        if t == m:
            return True
        for mask, pl in masks[t]:
            if used & mask:
                continue
            chosen.append(pl)
            if rec(t + 1, used | mask):
                return True
            chosen.pop()
        return False

    if rec(0, 0):
        return tuple(sorted(chosen, key=lambda p: p.item))
    return None


# ---------------------------------------------------------------------------
# Exact cardinality geometric knapsack


def knapsack_exact(
    items: Sequence[Item],
    W: int,
    H,
    k: int,
    rotations: bool = True,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[tuple[int, ...], tuple[Placement, ...]]:
    """Maximum-cardinality packable subset of size <= k, with its packing.

    Probes subsets by decreasing size, from the most items whose smallest
    areas fit the board; see :func:`first_packable_subset`.
    """
    cap = bisect_right(list(accumulate(sorted(it.w * it.h for it in items))), W * H)
    sizes = range(min(k, cap), 0, -1)
    return first_packable_subset(items, range(len(items)), sizes, W, H, rotations, budget) or ((), ())


def first_packable_subset(
    items: Sequence[Item], indices: Sequence[int], sizes: Iterable[int], W: int, H,
    rotations: bool, budget: OracleBudget,
) -> Optional[tuple[tuple[int, ...], tuple[Placement, ...]]]:
    """The first subset of ``indices`` that packs into W x H, with its packing.

    Sizes come in the given order, subsets of a size in lexicographic
    order, each probed with :func:`packing_feasible_exact`. Subsets whose
    area exceeds W * H are skipped without being built (see
    ``_combinations_within``); the probe would answer ``None`` for each, so
    the first packable subset is the same. A size above
    ``budget.max_solution_size`` raises before the first probe. The
    enumeration reads one deadline at each prefix it visits and hands it to
    every probe, so ``budget.time_limit`` bounds the whole run.
    Placements name the original indices.
    """
    sizes = tuple(sizes)
    largest = max(sizes, default=0)
    if largest > budget.max_solution_size:
        raise BudgetExceededError(f"{largest} items exceed budget {budget.max_solution_size}")
    deadline = budget.deadline()
    areas = [items[i].w * items[i].h for i in indices]
    for size in sizes:
        for picks in _combinations_within(areas, size, W * H, deadline):
            subset = tuple(indices[p] for p in picks)
            placed = packing_feasible_exact([items[i] for i in subset], W, H, rotations, budget, deadline)
            if placed is not None:
                return subset, tuple(Placement(subset[p.item], p.x, p.y, p.rotated) for p in placed)
    return None


def _combinations_within(areas: Sequence[int], size: int, limit, deadline: Optional[float]) -> Iterable[tuple[int, ...]]:
    """The ``size``-combinations of positions into ``areas`` whose areas sum
    to at most ``limit``, in the lexicographic order of ``combinations``.

    A prefix is dropped, with every combination that extends it, when its
    sum plus the least sum its remaining picks can add, the smallest areas
    after its last position, exceeds ``limit``. The deadline is read once
    per prefix visited, the combinations themselves included. However the
    enumeration ends, a caller dropping it unfinished included, ``rec`` is
    dropped, as in ``_packing_search``.
    """
    n = len(areas)
    # least[p][r]: the sum of the r smallest areas at positions p and later.
    least = [list(accumulate(sorted(areas[p:]), initial=0)) for p in range(n + 1)]
    picks: list[int] = []

    def rec(start: int, total) -> Iterable[tuple[int, ...]]:
        if deadline is not None and time.monotonic() > deadline:
            raise _overrun("subset enumeration")
        rest = size - len(picks)
        if not rest:
            yield tuple(picks)
            return
        for p in range(start, n - rest + 1):
            if total + areas[p] + least[p + 1][rest - 1] <= limit:
                picks.append(p)
                yield from rec(p + 1, total + areas[p])
                picks.pop()

    try:
        yield from rec(0, 0)
    finally:
        del rec  # rec holds itself through its closure, and with it the sums


# ---------------------------------------------------------------------------
# Multi-subset sum


def mss_exact(xs: Sequence[int], t: int, k: int) -> Optional[tuple[int, ...]]:
    """Find k values from xs (repetition allowed) summing exactly to t.

    Reachability DP over (number of picks, partial sum) with parent
    pointers; returns a sorted witness multiset or None.
    """
    if t < 0 or k < 0:
        raise ValueError("target and count must be non-negative")
    if any(x <= 0 for x in xs):
        raise ValueError("values must be positive integers")
    parent: list[dict[int, int]] = [dict() for _ in range(k + 1)]
    parent[0][0] = -1
    for j in range(k):
        layer = parent[j]
        nxt = parent[j + 1]
        for s in layer:
            for x in sorted(set(xs)):
                s2 = s + x
                if s2 <= t and s2 not in nxt:
                    nxt[s2] = x
    if t not in parent[k]:
        return None
    witness = []
    s = t
    for j in range(k, 0, -1):
        x = parent[j][s]
        witness.append(x)
        s -= x
    assert s == 0 and len(witness) == k and sum(witness) == t
    return tuple(sorted(witness))


def mss_enumerate(xs: Sequence[int], t: int, k: int) -> Optional[tuple[int, ...]]:
    """Brute-force multiset enumeration referee for :func:`mss_exact`."""
    from itertools import combinations_with_replacement

    for combo in combinations_with_replacement(sorted(set(xs)), k):
        if sum(combo) == t:
            return tuple(combo)
    return None
