"""Geometric knapsack with rotations: strip freeing, rounding, PAS, kernel.

The pipeline classifies items by height bands, sparsifies the large items
through the visibility graph and the r-division, pushes everything up, and
if needed cuts the packing along a separating path guarded by deletion
rectangles. A strip-avoiding packing can then be inflated onto a rounded
grid, which justifies the group-and-prune kernel and the restricted
enumeration behind the PAS.

All thresholds (N/k^B and friends) and all transformed coordinates are
exact ``Fraction`` values; item dimensions stay integers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Mapping, Optional, Sequence

from .geometry import (
    Coord,
    GknapInstance,
    Item,
    KernelReport,
    Packing,
    Placement,
    as_epsilon,
    boxes_overlap,
    open_overlap,
    validate_packing,
)
# The benchmark's tracer wraps ``gknap.packing_feasible_exact`` by name.
from .oracles import DEFAULT_BUDGET, OracleBudget, first_packable_subset, packing_feasible_exact
from .planar import Box, EmbeddedGraph, Segment, VertexDrawing, apply_separator


class StripNotFreedError(RuntimeError):
    """A strip-freeing post-condition failed; never silently accepted."""


# ---------------------------------------------------------------------------
# Height-band classification


@dataclass(frozen=True)
class Classification:
    """Partition of items into large, thin and one discarded height band."""

    B: int
    large: frozenset[int]
    thin: frozenset[int]
    discarded: frozenset[int]


def _classify_for_band(instance: GknapInstance, k: int, B: int) -> Classification:
    lo = Fraction(instance.N, k ** (B + 2))
    hi = Fraction(instance.N, k**B)
    large, thin, band = set(), set(), set()
    for i, it in enumerate(instance.items):
        if it.h >= hi:
            large.add(i)
        elif it.h < lo:
            thin.add(i)
        else:
            band.add(i)
    return Classification(B, frozenset(large), frozenset(thin), frozenset(band))


def classify_items(
    instance: GknapInstance,
    k: int,
    epsilon: Fraction | float,
    reference: Optional[Packing] = None,
):
    """Classify items into large/thin/discarded height bands.

    Items must be in canonical w >= h orientation. With a reference packing
    the band B in {1, ..., ceil(8/eps)} minimizing the overlap between the
    discarded band and the packed items is chosen (ties to the smallest B);
    without one, the classification for every candidate B is returned so
    the caller can iterate.
    """
    eps = as_epsilon(epsilon)
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if any(it.w < it.h for it in instance.items):
        raise ValueError("items must be canonical (w >= h); see canonicalize_items")
    b_max = ceil(8 / eps)
    classifications = [_classify_for_band(instance, k, B) for B in range(1, b_max + 1)]
    if reference is None:
        return tuple(classifications)
    packed = {pl.item for pl in reference.placements}
    return min(classifications, key=lambda cl: (len(cl.discarded & packed), cl.B))


# ---------------------------------------------------------------------------
# Visibility graph over placed large items


def _candidate_xs(lo: Coord, hi: Coord, cuts: Iterable[Coord]) -> list[Coord]:
    """Interior cut points plus one representative per elementary interval.

    Candidates stay strictly inside (lo, hi): a witness on the projection
    boundary would degenerate to a corner touch, and two such touches can
    cross at a four-corner meeting point.
    """
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    mids = [Fraction(pts[i] + pts[i + 1], 2) for i in range(len(pts) - 1)]
    return sorted({*pts[1:-1], *mids})


def build_visibility_graph(packing: Packing, items: Sequence[Item], gap: Fraction) -> EmbeddedGraph:
    """Connect placements whose vertical distance is at most ``gap``.

    Vertices are placement indices, each drawn as its item's box. An edge
    (src, dst, witness) points upward: the witness is the vertical segment
    at some x from src's top to dst's bottom. The x lies strictly inside
    both horizontal projections, and the open witness meets no other placed
    item's interior. Projections that share only a boundary point give no
    edge; a corner touch neither blocks an upward slide nor supports a
    crossing-free witness. Candidate x values come from the elementary
    intervals induced by all items' left and right edges, since blocker
    status is constant on each open interval. The first valid candidate is
    the witness. Items have positive height, so no pair gets edges both ways.
    """
    verts = range(len(packing.placements))
    boxes = [pl.box(items[pl.item]) for pl in packing.placements]
    edges_x = sorted({c for b in boxes for c in (b[0], b[2])})
    edges: list[tuple[int, int, Segment]] = []
    for src in verts:
        sx1, _, sx2, stop = boxes[src]
        for dst in verts:
            if dst == src:
                continue
            dx1, dbot, dx2, _ = boxes[dst]
            if dbot < stop:
                continue
            d = dbot - stop
            if d > gap:
                continue
            lo, hi = max(sx1, dx1), min(sx2, dx2)
            if lo >= hi:
                continue
            for x in _candidate_xs(lo, hi, edges_x):
                if d == 0 or not _segment_blocked(boxes, verts, (src, dst), x, stop, dbot):
                    edges.append((src, dst, Segment(x, stop, x, dbot)))
                    break
    drawings = {v: VertexDrawing.box(Box(*boxes[v])) for v in verts}
    return EmbeddedGraph(drawings, tuple(edges))


def _segment_blocked(boxes, verts, endpoints, x, y_lo, y_hi) -> bool:
    for v in verts:
        if v in endpoints:
            continue
        bx1, by1, bx2, by2 = boxes[v]
        if bx1 < x < bx2 and open_overlap(by1, by2, y_lo, y_hi):
            return True
    return False


# ---------------------------------------------------------------------------
# Push-up and the separating path


def push_up(packing: Packing, items: Sequence[Item]) -> Packing:
    """Slide every item as far up as possible, to a fixpoint.

    Passes process items by decreasing top edge (ties by index) and repeat
    until nothing moves. No y ever decreases, feasibility is preserved, and
    re-running the result changes nothing.
    """
    placements = list(packing.placements)
    moved = True
    while moved:
        moved = False
        order = sorted(
            range(len(placements)),
            key=lambda i: (-(placements[i].y + placements[i].dims(items[placements[i].item])[1]), i),
        )
        for i in order:
            pl = placements[i]
            w, h = pl.dims(items[pl.item])
            top = pl.y + h
            ceiling = packing.N
            for j, other in enumerate(placements):
                if j == i:
                    continue
                ow, oh = other.dims(items[other.item])
                if not open_overlap(pl.x, pl.x + w, other.x, other.x + ow):
                    continue
                if other.y >= top:
                    ceiling = min(ceiling, other.y)
            if ceiling > top:
                placements[i] = Placement(pl.item, pl.x, pl.y + (ceiling - top), pl.rotated)
                moved = True
    return Packing(packing.N, tuple(placements))


def find_separating_path(
    vg: EmbeddedGraph, N: int, strip_height: Fraction
) -> Optional[tuple[int, ...]]:
    """BFS path from a bottom-strip item to an item near the top edge.

    ``vg`` is the ``build_visibility_graph`` of a packing in the N x N
    square, so each vertex is drawn as its placed item's box. Returns None
    iff no item intersects the open bottom strip. On a pushed-up packing
    the walk always terminates within distance ``strip_height`` of the top
    edge, because any item that can still move up would contradict the
    fixpoint.
    """
    boxes = {v: drawing.boxes[0] for v, drawing in vg.vertices.items()}
    starts = sorted(v for v in vg.vertices if boxes[v].y1 < strip_height)
    if not starts:
        return None
    succ: dict[int, list[int]] = {v: [] for v in vg.vertices}
    for src, dst, _ in vg.edges:
        succ[src].append(dst)
    start = starts[0]
    parent: dict[int, Optional[int]] = {start: None}
    queue = deque([start])
    goal = None
    while queue:
        v = queue.popleft()
        if N - boxes[v].y2 < strip_height:
            goal = v
            break
        for u in sorted(succ[v]):
            if u not in parent:
                parent[u] = v
                queue.append(u)
    if goal is None:
        raise StripNotFreedError("no path reaches the top; packing is not a push-up fixpoint")
    path = []
    cur: Optional[int] = goal
    while cur is not None:
        path.append(cur)
        cur = parent[cur]
    return tuple(reversed(path))


# ---------------------------------------------------------------------------
# Strip freeing


@dataclass(frozen=True)
class FreeStripReport:
    """Accounting for one strip-freeing run; every term is re-countable."""

    branch: str
    B: int
    strip_height: Fraction
    input_size: int
    output_size: int
    band_removed: tuple[int, ...] = ()
    separator_removed: tuple[int, ...] = ()
    path: tuple[int, ...] = ()
    deletion_casualties: tuple[tuple[int, ...], ...] = ()

    @property
    def loss(self) -> int:
        return self.input_size - self.output_size


@dataclass(frozen=True)
class FreeStripResult:
    packing: Packing
    report: FreeStripReport


def default_k_floor(epsilon: Fraction | float) -> int:
    """Smallest k the strip-freeing transformation accepts for this eps."""
    return max(2, ceil(1 / as_epsilon(epsilon) ** 3))


def _stack_band(
    placements: list[Placement],
    thin_items: Sequence[tuple[int, Item]],
    y0: Fraction,
) -> None:
    y = y0
    for idx, it in thin_items:
        placements.append(Placement(idx, 0, y, False))
        y += it.h


def free_strip(
    instance: GknapInstance,
    packing: Packing,
    epsilon: Fraction | float,
) -> FreeStripResult:
    """Rearrange a feasible k-item packing to clear the bottom strip.

    The output packing is feasible, avoids (0, N) x (0, floor(N/k^(B+1)))
    and loses only the discarded band, the separator removals, the
    separating path and the items caught by its deletion rectangles. Every
    post-condition is checked; failures raise StripNotFreedError.
    """
    N = instance.N
    items = instance.items
    k = packing.size
    floor_k = default_k_floor(epsilon)
    if k < floor_k:
        raise ValueError(
            f"packing of size {k} is below the k floor {floor_k}; solve exactly instead"
        )
    report_ok = validate_packing(packing, items)
    if not report_ok.ok:
        raise ValueError(f"input packing invalid: {report_ok.violations[0].message}")

    cl = classify_items(instance, k, epsilon, reference=packing)
    B = cl.B
    gap = Fraction(N, k**B)
    strip = Fraction(N, k ** (B + 1))

    by_index = {pl.item: pl for pl in packing.placements}
    packed = sorted(by_index)
    thin_packed = [(i, items[i]) for i in packed if i in cl.thin]

    # Enough thin items: a fresh stack above the strip already satisfies
    # the contract, total height at most k * N/k^(B+2) = strip.
    if len(thin_packed) >= k:
        placements: list[Placement] = []
        _stack_band(placements, thin_packed[:k], strip)
        return _finish(
            instance,
            FreeStripReport("thin-stack", B, strip, k, k),
            placements,
        )

    band_removed = tuple(i for i in packed if i in cl.discarded)
    large_pl = [by_index[i] for i in packed if i in cl.large]
    working = Packing(N, tuple(large_pl))

    division = apply_separator(build_visibility_graph(working, items, gap).adjacency(), epsilon)
    sep_removed = tuple(
        sorted(working.placements[v].item for v in division.removed)
    )
    survivors = [v for v in range(len(working.placements)) if v not in division.removed]
    working = Packing(N, tuple(working.placements[v] for v in survivors))

    pushed = push_up(working, items)
    boxes = [pl.box(items[pl.item]) for pl in pushed.placements]

    if all(b[1] >= gap for b in boxes):
        placements = list(pushed.placements)
        _stack_band(placements, thin_packed, strip)
        return _finish(
            instance,
            FreeStripReport(
                "push-up", B, strip, k, len(placements),
                band_removed=band_removed, separator_removed=sep_removed,
            ),
            placements,
        )

    vg1 = build_visibility_graph(pushed, items, gap)
    path = find_separating_path(vg1, N, gap)
    assert path is not None
    witness_x = {(src, dst): seg.x1 for src, dst, seg in vg1.edges}

    deletion_boxes: list[tuple[Fraction, Fraction, Fraction, Fraction]] = []
    for a, b in zip(path, path[1:]):
        y_lo, y_hi = boxes[a][3], boxes[b][1]
        x_left = max(Fraction(0), witness_x[(a, b)] - gap)
        deletion_boxes.append((x_left, y_lo, x_left + gap, y_hi))
    first_box, last_box = boxes[path[0]], boxes[path[-1]]
    x_left = min(first_box[0], N - gap)
    deletion_boxes.append((x_left, Fraction(0), x_left + gap, first_box[1]))
    x_left = min(last_box[0], N - gap)
    deletion_boxes.append((x_left, last_box[3], x_left + gap, Fraction(N)))

    path_set = set(path)
    casualties: list[tuple[int, ...]] = []
    doomed = set(path)
    for box in deletion_boxes:
        hit = tuple(
            v
            for v in range(len(pushed.placements))
            if v not in path_set and boxes_overlap(boxes[v], box)
        )
        casualties.append(tuple(pushed.placements[v].item for v in hit))
        doomed.update(hit)

    pieces = [boxes[v] for v in path] + deletion_boxes
    keep = [v for v in range(len(pushed.placements)) if v not in doomed]
    shifted: list[Placement] = []
    for v in keep:
        side = _side_of_pieces(boxes[v], pieces)
        pl = pushed.placements[v]
        shifted.append(Placement(pl.item, pl.x + gap, pl.y, pl.rotated) if side < 0 else pl)

    rotated: list[Placement] = []
    for pl in shifted:
        w, h = pl.dims(items[pl.item])
        rotated.append(Placement(pl.item, N - (pl.y + h), pl.x, not pl.rotated))
    _stack_band(rotated, thin_packed, strip)
    return _finish(
        instance,
        FreeStripReport(
            "separating-path", B, strip, k, len(rotated),
            band_removed=band_removed,
            separator_removed=sep_removed,
            path=tuple(pushed.placements[v].item for v in path),
            deletion_casualties=tuple(casualties),
        ),
        rotated,
    )


def _side_of_pieces(box, pieces) -> int:
    """-1 if the box lies left of every y-overlapping piece, +1 if right."""
    side = 0
    for px1, py1, px2, py2 in pieces:
        if py1 >= py2 or not open_overlap(box[1], box[3], py1, py2):
            continue
        if box[2] <= px1:
            this = -1
        elif box[0] >= px2:
            this = 1
        else:
            raise StripNotFreedError("surviving item intersects the separating corridor")
        if side and this != side:
            raise StripNotFreedError("item is on both sides of the corridor")
        side = this
    if side == 0:
        raise StripNotFreedError("item overlaps no corridor piece")
    return side


def _finish(
    instance: GknapInstance, report: FreeStripReport, placements: list[Placement]
) -> FreeStripResult:
    packing = Packing(instance.N, tuple(placements))
    check = validate_packing(packing, instance.items)
    if not check.ok:
        raise StripNotFreedError(f"output infeasible: {check.violations[0].message}")
    limit = floor(report.strip_height)
    for pl in packing.placements:
        if pl.y < limit:
            raise StripNotFreedError(f"item {pl.item} still intersects the bottom strip")
    return FreeStripResult(packing, report)


# ---------------------------------------------------------------------------
# Rounding and inflation


@dataclass(frozen=True, slots=True)
class RoundedItem:
    """Original item with both dimensions rounded up to unit multiples."""

    index: int
    w_hat: Fraction
    h_hat: Fraction


def _units(v: int, N: int, q: int) -> int:
    """How many units N/q a side of length v rounds up to: ceil(v*q/N)."""
    return -(-v * q // N)


def rounded_dims(it: Item, N: int, q: int) -> tuple[Fraction, Fraction]:
    """Both sides rounded up to multiples of the unit N/q."""
    return Fraction(_units(it.w, N, q) * N, q), Fraction(_units(it.h, N, q) * N, q)


@dataclass(frozen=True)
class InflatedPacking:
    """Packing of rounded items; the placed height is the rounded dimension."""

    N: int
    unit: Fraction
    rounded: tuple[RoundedItem, ...]
    placements: tuple[Placement, ...]


def _inflated_box(pl: Placement, ri: RoundedItem, it: Item):
    if pl.rotated:
        w, h = it.h, ri.w_hat
    else:
        w, h = it.w, ri.h_hat
    return (pl.x, pl.y, pl.x + w, pl.y + h)


def inflate_packing(
    instance: GknapInstance,
    packing: Packing,
    k_prime: int,
    k_tilde: int,
) -> InflatedPacking:
    """Round every placed vertical dimension up, keeping the packing feasible.

    Requires the input to avoid the bottom strip of height N/k_tilde and to
    hold at most k_prime items. Processing an item first shifts everything
    strictly below it down by one unit N/(k_prime * k_tilde), then extends
    the item downward by its rounding slab; the freed strip absorbs the
    total downward drift.
    """
    N = instance.N
    items = instance.items
    if packing.size > k_prime:
        raise ValueError(f"packing has {packing.size} items, more than k'={k_prime}")
    q = k_prime * k_tilde
    unit = Fraction(N, q)
    strip = Fraction(N, k_tilde)
    for pl in packing.placements:
        if pl.y < strip:
            raise ValueError(f"item {pl.item} intersects the reserved bottom strip")

    placed = [[pl.item, Fraction(pl.x), Fraction(pl.y), pl.rotated] for pl in packing.placements]
    heights: list[Fraction] = []
    for rec in placed:
        it = items[rec[0]]
        heights.append(Fraction(it.w if rec[3] else it.h))

    for i in range(len(placed)):
        vert = heights[i]
        target = Fraction(_units(vert, N, q) * N, q)
        delta = target - vert
        if delta == 0:
            continue
        bottom_i = placed[i][2]
        for j in range(len(placed)):
            if j != i and placed[j][2] + heights[j] <= bottom_i:
                placed[j][2] -= unit
        placed[i][2] -= delta
        heights[i] = target

    rounded = []
    out = []
    for rec, h in zip(placed, heights):
        it = items[rec[0]]
        w_hat, h_hat = rounded_dims(it, N, q)
        rounded.append(RoundedItem(rec[0], w_hat, h_hat))
        out.append(Placement(rec[0], rec[1], rec[2], rec[3]))
    result = InflatedPacking(N, unit, tuple(rounded), tuple(out))
    _check_inflated(result, items)
    return result


def _check_inflated(p: InflatedPacking, items: Sequence[Item]) -> None:
    boxes = []
    for pl, ri in zip(p.placements, p.rounded):
        box = _inflated_box(pl, ri, items[ri.index])
        if box[0] < 0 or box[1] < 0 or box[2] > p.N or box[3] > p.N:
            raise AssertionError(f"rounded item {ri.index} leaves the knapsack")
        boxes.append(box)
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            if boxes_overlap(boxes[a], boxes[b]):
                raise AssertionError("rounded items overlap")


# ---------------------------------------------------------------------------
# Group-and-prune kernel and the restricted enumeration


def prune_to_kernel(
    instance: GknapInstance, k_prime: int, k_tilde: int
) -> KernelReport:
    """Keep, per rounded height class, the k' narrowest items, and per
    rounded width class the k' shortest; the kernel is the union.

    Ties break towards the smaller original index. The kernel size is at
    most 2 k' * k' k_tilde.
    """
    if k_prime < 1 or k_tilde < 1:
        raise ValueError("k' and k_tilde must be positive")
    N, q = instance.N, k_prime * k_tilde
    # A class is a rounded side, keyed by its count of units N/q.
    by_h: dict[int, list[int]] = {}
    by_w: dict[int, list[int]] = {}
    for i, it in enumerate(instance.items):
        by_h.setdefault(_units(it.h, N, q), []).append(i)
        by_w.setdefault(_units(it.w, N, q), []).append(i)
    keep: set[int] = set()
    for cls in by_h.values():
        cls.sort(key=lambda i: (instance.items[i].w, i))
        keep.update(cls[:k_prime])
    for cls in by_w.values():
        cls.sort(key=lambda i: (instance.items[i].h, i))
        keep.update(cls[:k_prime])
    return KernelReport(
        tuple(sorted(keep)),
        {"k_prime": k_prime, "k_tilde": k_tilde, "unit": Fraction(N, q)},
    )


@dataclass(frozen=True)
class RestrictedResult:
    """Dichotomy of the restricted enumeration.

    Either a packing of exactly k' items in the full knapsack, or the sound
    assertion that no k'-packing fits the restricted knapsack
    [0, N] x [0, (1 - 1/k_tilde) N].
    """

    packing: Optional[Packing]
    kernel: KernelReport

    @property
    def feasible(self) -> bool:
        return self.packing is not None


def solve_restricted(
    instance: GknapInstance,
    k_prime: int,
    k_tilde: int,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> RestrictedResult:
    """Prune to the kernel, then enumerate k'-subsets for exact packability.

    Subsets are probed in lexicographic order against the full square
    knapsack; exhausting them proves that not even the restricted knapsack
    admits k' items, because a restricted packing could be rounded into the
    full square using only kernel items. A k' above
    ``budget.max_solution_size`` raises ``BudgetExceededError`` before the
    first probe.
    """
    kernel = prune_to_kernel(instance, max(k_prime, 1), k_tilde)
    N = instance.N
    found = first_packable_subset(
        instance.items, kernel.indices, (k_prime,), N, N, instance.rotations, budget
    )
    return RestrictedResult(None if found is None else Packing(N, found[1]), kernel)


# ---------------------------------------------------------------------------
# PAS driver and kernel


def theory_k_tilde(k: int, epsilon: Fraction | float) -> int:
    """Default second parameter: k to the power ceil(8/eps) + 1."""
    if k < 1:
        raise ValueError("k must be positive")
    return max(2, k ** (ceil(8 / as_epsilon(epsilon)) + 1))


def _prepare(k: int, epsilon: Fraction | float, k_tilde: Optional[int]) -> tuple[Fraction, int, int]:
    """The preamble of ``pas_2dkr`` and ``kernel_2dkr``: (eps, k_tilde, ceil((1 - eps) k))."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    eps = as_epsilon(epsilon)
    return eps, theory_k_tilde(k, eps) if k_tilde is None else k_tilde, ceil((1 - eps) * k)


@dataclass(frozen=True)
class Pas2dkrResult:
    packing: Optional[Packing]
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def positive(self) -> bool:
        return self.packing is not None

    @property
    def opt_below_k(self) -> bool:
        return self.packing is None


def pas_2dkr(
    instance: GknapInstance,
    k: int,
    epsilon: Fraction | float,
    k_tilde: Optional[int] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> Pas2dkrResult:
    """PAS for the rotating knapsack: pack ceil((1-eps)k) items or assert.

    Fewer than k items in the instance settles the assertion immediately.
    Otherwise the restricted enumeration either returns a packing of
    k' = ceil((1-eps)k) items, or certifies that no k'-packing fits the
    restricted knapsack, which under the theory k_tilde mapping implies the
    optimum is below k.
    """
    eps, kt, k_prime = _prepare(k, epsilon, k_tilde)
    meta: dict[str, object] = {
        "k": k,
        "epsilon": eps,
        "k_prime": k_prime,
        "k_tilde": kt,
    }
    if instance.n < k:
        meta["branch"] = "too-few-items"
        return Pas2dkrResult(None, meta)
    res = solve_restricted(instance, k_prime, kt, budget)
    meta["branch"] = "restricted-enumeration"
    meta["kernel_size"] = res.kernel.size
    if res.feasible:
        return Pas2dkrResult(res.packing, meta)
    return Pas2dkrResult(None, meta)


def kernel_2dkr(
    instance: GknapInstance,
    k: int,
    epsilon: Fraction | float,
    k_tilde: Optional[int] = None,
) -> KernelReport:
    """Approximate kernel: the group-and-prune survivors for k' and k_tilde."""
    _, kt, k_prime = _prepare(k, epsilon, k_tilde)
    return prune_to_kernel(instance, max(1, k_prime), kt)
