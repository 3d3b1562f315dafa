"""Multi-subset-sum to rotating-knapsack reduction and its validators.

The generated instance packs k^2 near-square tiles (one family per input
number, with height growing and width shrinking in the number), thin and
flat filler items, and one full-width bar whose role is to forbid useful
rotations. A yes certificate for the sum problem turns into a closed-form
packing of exactly k' = k^2 + 2p + 1 items; the interval validator and the
pair-category case analysis re-prove that packing collision-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .geometry import (
    GknapInstance,
    Item,
    Packing,
    Placement,
    boxes_overlap,
)


@dataclass(frozen=True)
class ReductionConstants:
    k: int
    t: int
    S: int
    L: int
    N: int
    p: int
    k_prime: int


@dataclass(frozen=True)
class ReductionOutput:
    """Instance, target size, constants and the role of every item index."""

    instance: GknapInstance
    k_prime: int
    constants: ReductionConstants
    roles: Mapping[int, tuple]
    tile_index: Mapping[tuple[int, int], int]  # (value position, copy) -> item


def reduction_constants(xs: Sequence[int], t: int, k: int) -> ReductionConstants:
    S = k**2 * t
    L = k**2 * S
    N = k * L + (2 * k - 1) * S + (2 * k - 1) * t
    p = k * (k - 1)
    return ReductionConstants(k, t, S, L, N, p, k**2 + 2 * p + 1)


def reduce_mss_to_2dkr(xs: Sequence[int], t: int, k: int) -> ReductionOutput:
    """Build the knapsack instance whose k'-packings encode k-sums equal to t.

    Item order is deterministic: tiles grouped by input value then copy,
    then the thin items, the flat items, and finally the bar.
    """
    problems = []
    if k < 4:
        problems.append(f"k must be at least 4, got {k}")
    if len(xs) < k:
        problems.append(f"need at least k={k} values, got {len(xs)}")
    if any(x <= 0 for x in xs):
        problems.append("all values must be positive")
    if any(x >= t for x in xs):
        problems.append(f"all values must be smaller than t={t}")
    if len(set(xs)) != len(xs):
        problems.append("values must be pairwise distinct")
    if problems:
        raise ValueError("; ".join(problems))

    c = reduction_constants(xs, t, k)
    items: list[Item] = []
    roles: dict[int, tuple] = {}
    tile_index: dict[tuple[int, int], int] = {}
    for pos, x in enumerate(xs):
        for copy in range(k**2):
            tile_index[(pos, copy)] = len(items)
            roles[len(items)] = ("tile", pos, copy)
            items.append(Item(w=c.L + c.S + 2 * t - x, h=c.L + c.S + x))
    for j in range(c.p):
        roles[len(items)] = ("thin", j)
        items.append(Item(w=c.S, h=c.L))
    for j in range(c.p):
        roles[len(items)] = ("flat", j)
        items.append(Item(w=c.L, h=c.S))
    roles[len(items)] = ("bar",)
    items.append(Item(w=c.N, h=(2 * k - 2) * t))
    instance = GknapInstance(c.N, tuple(items), rotations=True)
    return ReductionOutput(instance, c.k_prime, c, roles, tile_index)


def build_yes_packing(
    red: ReductionOutput, ys: Sequence[int], xs: Sequence[int]
) -> Packing:
    """Closed-form packing certifying a yes instance, no rotations used.

    ``ys`` are the k chosen values (repetition allowed, all present in xs)
    summing to t. Tile grid position (a, b) holds a copy of value
    y[1 + ((a - b) mod k)]; thin items sit between horizontal neighbours,
    flat items between vertical neighbours, and the bar spans the top.
    """
    c = red.constants
    k, S, L, N, t = c.k, c.S, c.L, c.N, c.t
    if len(ys) != k:
        raise ValueError(f"need exactly k={k} chosen values, got {len(ys)}")
    if sum(ys) != t:
        raise ValueError(f"chosen values sum to {sum(ys)}, not t={t}")
    pos_of = {x: i for i, x in enumerate(xs)}
    if any(y not in pos_of for y in ys):
        raise ValueError("every chosen value must appear in xs")

    def val(a: int, b: int) -> int:
        return ys[(a - b) % k]

    def width(a: int, b: int) -> int:
        return L + S + 2 * t - val(a, b)

    def height(a: int, b: int) -> int:
        return L + S + val(a, b)

    def left(a: int, b: int) -> int:
        return (a - 1) * S + sum(width(i, b) for i in range(1, a))

    def bottom(a: int, b: int) -> int:
        return (b - 1) * S + sum(height(a, i) for i in range(1, b))

    placements: list[Placement] = []
    copies: dict[int, int] = {}
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            pos = pos_of[val(a, b)]
            copy = copies.get(pos, 0)
            copies[pos] = copy + 1
            placements.append(
                Placement(red.tile_index[(pos, copy)], left(a, b), bottom(a, b), False)
            )

    thin_base = min(i for i, r in red.roles.items() if r[0] == "thin")
    flat_base = min(i for i, r in red.roles.items() if r[0] == "flat")
    bar_index = max(red.roles)

    j = 0
    for a in range(1, k):
        for b in range(1, k + 1):
            placements.append(
                Placement(
                    thin_base + j,
                    left(a, b) + width(a, b),
                    (b - 1) * L + (2 * b - 1) * S,
                    False,
                )
            )
            j += 1
    j = 0
    for a in range(1, k + 1):
        for b in range(1, k):
            placements.append(
                Placement(
                    flat_base + j,
                    (a - 1) * L + (2 * a - 1) * S,
                    bottom(a, b) + height(a, b),
                    False,
                )
            )
            j += 1
    placements.append(Placement(bar_index, 0, N - (2 * k - 2) * t, False))
    assert len(placements) == c.k_prime
    return Packing(N, tuple(placements))


@dataclass(frozen=True)
class IntervalReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_interval_bounds(red: ReductionOutput, packing: Packing) -> IntervalReport:
    """Check the strict coordinate windows of every tile in a yes packing.

    left(R[a,b]) must lie in ((a-1)L + (2a-2)S, (a-1)L + (2a-1)S), right in
    (aL + (2a-1)S, aL + 2aS), and symmetrically for bottom and top in b.
    At a = 1 and b = 1 the lower bounds start from an empty sum, so they
    are checked as >= 0 instead of strict.
    """
    c = red.constants
    k, S, L = c.k, c.S, c.L
    out: list[str] = []
    slots = _tiles_by_grid_position(red, packing)
    tiles: dict[tuple[int, int], Placement] = {}
    for (a, b), pls in slots.items():
        if len(pls) > 1:
            out.append(f"{len(pls)} tiles share the coordinate window ({a},{b})")
        tiles[(a, b)] = pls[0]
    if len(tiles) != k * k:
        out.append(f"{len(tiles)} of {k * k} tile windows occupied")
    for (a, b), pl in tiles.items():
        it = red.instance.items[pl.item]
        left, bottom = pl.x, pl.y
        right, top = left + it.w, bottom + it.h
        windows = (
            ("left", left, (a - 1) * L + (2 * a - 2) * S, (a - 1) * L + (2 * a - 1) * S, a == 1),
            ("right", right, a * L + (2 * a - 1) * S, a * L + 2 * a * S, False),
            ("bottom", bottom, (b - 1) * L + (2 * b - 2) * S, (b - 1) * L + (2 * b - 1) * S, b == 1),
            ("top", top, b * L + (2 * b - 1) * S, b * L + 2 * b * S, False),
        )
        for name, value, lo, hi, boundary in windows:
            lo_ok = value >= 0 if boundary else value > lo
            if not (lo_ok and value < hi):
                out.append(
                    f"tile ({a},{b}) {name}={value} outside "
                    f"{'[0' if boundary else '(' + str(lo)}, {hi})"
                )
    return IntervalReport(tuple(out))


def _tiles_by_grid_position(
    red: ReductionOutput, packing: Packing
) -> dict[tuple[int, int], list[Placement]]:
    """Recover each tile's (a, b) grid slot from its coordinate windows."""
    c = red.constants
    k, S, L = c.k, c.S, c.L
    out: dict[tuple[int, int], list[Placement]] = {}
    for pl in packing.placements:
        role = red.roles[pl.item]
        if role[0] != "tile":
            continue
        a = _window_slot(pl.x, L, S, k)
        b = _window_slot(pl.y, L, S, k)
        out.setdefault((a, b), []).append(pl)
    return out


def _window_slot(value: int, L: int, S: int, k: int) -> int:
    """Smallest a with value < (a-1)L + (2a-1)S, i.e. the column window."""
    for a in range(1, k + 1):
        if value < (a - 1) * L + (2 * a - 1) * S:
            return a
    return k


def _grid_slot(red: ReductionOutput, pl: Placement) -> tuple[str, int, int]:
    """Role and (a, b) grid slot of a yes-packing placement."""
    c = red.constants
    role = red.roles[pl.item]
    if role[0] == "tile":
        return ("tile", _window_slot(pl.x, c.L, c.S, c.k), _window_slot(pl.y, c.L, c.S, c.k))
    if role[0] == "thin":
        return ("thin", role[1] // c.k + 1, role[1] % c.k + 1)
    if role[0] == "flat":
        return ("flat", role[1] // (c.k - 1) + 1, role[1] % (c.k - 1) + 1)
    return ("bar", 0, 0)


def verify_construction_cases(red: ReductionOutput, packing: Packing) -> IntervalReport:
    """Re-prove pairwise disjointness by the pair-category case analysis.

    Each pair of placed items is assigned its separating direction from
    the construction alone: grid slots order tiles horizontally when their
    columns differ and vertically otherwise, fillers separate from tiles
    and from each other through their closed-form coordinates, and the bar
    clears everything below it. The predicted separation must hold
    numerically and must agree with the generic overlap check.
    """
    items = red.instance.items
    boxes = [pl.box(items[pl.item]) for pl in packing.placements]
    slots = [_grid_slot(red, pl) for pl in packing.placements]
    out: list[str] = []
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            (kind1, a1, b1), (kind2, a2, b2) = slots[i], slots[j]
            axis = _predicted_separation(slots[i], slots[j])
            if axis == "x":
                left_box, right_box = (
                    (boxes[i], boxes[j]) if _before(slots[i], slots[j], "x") else (boxes[j], boxes[i])
                )
                holds = left_box[2] <= right_box[0]
            else:
                low_box, high_box = (
                    (boxes[i], boxes[j]) if _before(slots[i], slots[j], "y") else (boxes[j], boxes[i])
                )
                holds = low_box[3] <= high_box[1]
            generic = not boxes_overlap(boxes[i], boxes[j])
            if not holds or not generic:
                out.append(
                    f"{kind1}({a1},{b1}) vs {kind2}({a2},{b2}): "
                    f"predicted {axis}-separation {'holds' if holds else 'fails'}, "
                    f"generic check says {'disjoint' if generic else 'overlap'}"
                )
    return IntervalReport(tuple(out))


def _predicted_separation(s1: tuple[str, int, int], s2: tuple[str, int, int]) -> str:
    """Axis along which the construction separates the two items."""
    (k1, a1, b1), (k2, a2, b2) = s1, s2
    if "bar" in (k1, k2):
        return "y"
    pair = frozenset((k1, k2))
    if pair == {"tile"}:
        return "x" if a1 != a2 else "y"
    if pair == {"tile", "flat"}:
        return "x" if a1 != a2 else "y"
    if pair == {"tile", "thin"}:
        return "y" if b1 != b2 else "x"
    if pair == {"flat"}:
        return "x" if a1 != a2 else "y"
    if pair == {"thin"}:
        return "y" if b1 != b2 else "x"
    return "x"  # flat vs thin always separates horizontally


def _before(s1, s2, axis: str) -> bool:
    """True iff s1 comes first along the axis in the constructed layout."""
    (k1, a1, b1), (k2, a2, b2) = s1, s2
    if k1 == "bar":
        return False
    if k2 == "bar":
        return True
    if axis == "x":
        if a1 != a2:
            return a1 < a2
        # Same column window: a thin item sits right of its tile, a flat
        # item left of the next tile column; tile before thin, flat after
        # neither occurs with equal a except tile/thin and flat/thin.
        if k1 == "tile" and k2 == "thin":
            return True
        if k1 == "thin" and k2 == "tile":
            return False
        if k1 == "flat" and k2 == "thin":
            return True
        if k1 == "thin" and k2 == "flat":
            return False
        return (k1, b1) <= (k2, b2)
    if b1 != b2:
        return b1 < b2
    if k1 == "tile" and k2 == "flat":
        return True
    if k1 == "flat" and k2 == "tile":
        return False
    return (k1, a1) <= (k2, a2)
