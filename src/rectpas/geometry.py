"""Exact geometric primitives shared by the rectangle solvers.

All coordinates are exact integers or ``fractions.Fraction`` values; there is
no floating point anywhere. Rectangles and placed items are open point sets,
so two shapes that meet only along an edge or at a corner do not overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Coord = Union[int, Fraction]


def as_epsilon(epsilon: Union[Fraction, float]) -> Fraction:
    """The accuracy parameter as an exact fraction in (0, 1].

    A float is read as the closest fraction with denominator at most 10^9,
    so 0.7 means 7/10 and not the binary value just below it.
    """
    eps = Fraction(epsilon).limit_denominator(10**9) if isinstance(epsilon, float) else Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return eps


@dataclass(frozen=True, slots=True)
class Rect:
    """Open axis-parallel rectangle (x1, x2) x (y1, y2) with integer corners."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if self.x1 >= self.x2 or self.y1 >= self.y2:
            raise ValueError(
                f"degenerate rectangle ({self.x1},{self.y1},{self.x2},{self.y2})"
            )

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1


def open_overlap(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> bool:
    """True iff the open intervals (a1, a2) and (b1, b2) intersect."""
    return a1 < b2 and b1 < a2


def boxes_overlap(a: Sequence[Coord], b: Sequence[Coord]) -> bool:
    """True iff the open boxes a and b, each (x1, y1, x2, y2), intersect."""
    return open_overlap(a[0], a[2], b[0], b[2]) and open_overlap(a[1], a[3], b[1], b[3])


def rects_disjoint(a: Rect, b: Rect) -> bool:
    """True iff the open interiors of two rectangles are disjoint.

    Shared boundaries do not count as overlap.
    """
    return not boxes_overlap((a.x1, a.y1, a.x2, a.y2), (b.x1, b.y1, b.x2, b.y2))


@dataclass(frozen=True)
class MisrInstance:
    """An ordered collection of open rectangles.

    Indices into ``rects`` are the stable identities used by solutions,
    kernels and solution files.
    """

    rects: tuple[Rect, ...]

    @classmethod
    def from_coords(cls, coords: Iterable[Sequence[int]]) -> "MisrInstance":
        return cls(tuple(Rect(*c) for c in coords))

    @property
    def n(self) -> int:
        return len(self.rects)

    def coord_bound(self) -> int:
        """Upper end of the normalized coordinate range {0, ..., 2n-1}."""
        return max(2 * self.n - 1, 0)

    def is_normalized(self) -> bool:
        bound = self.coord_bound()
        return all(
            0 <= r.x1 and 0 <= r.y1 and r.x2 <= bound and r.y2 <= bound
            for r in self.rects
        )


def _rank_map(values: Iterable[int]) -> dict[int, int]:
    return {v: i for i, v in enumerate(sorted(set(values)))}


def normalize_instance(inst: MisrInstance) -> MisrInstance:
    """Rank-compress both axes onto {0, ..., 2n-1}.

    Each axis is compressed independently; strict order relations and
    equalities between endpoint coordinates are preserved exactly, so the
    pairwise disjointness matrix of the instance is unchanged. Idempotent.
    """
    xs = _rank_map(c for r in inst.rects for c in (r.x1, r.x2))
    ys = _rank_map(c for r in inst.rects for c in (r.y1, r.y2))
    return MisrInstance(
        tuple(Rect(xs[r.x1], ys[r.y1], xs[r.x2], ys[r.y2]) for r in inst.rects)
    )


def conflict_masks(inst: MisrInstance) -> tuple[int, ...]:
    """The conflict index: bit j of entry i is set iff rectangle j overlaps i.

    Each entry holds its own rectangle, so ``alive & ~conflict[v]`` drops v
    together with every rectangle it overlaps.
    """
    masks = [1 << i for i in range(inst.n)]
    for i, a in enumerate(inst.rects):
        for j in range(i + 1, inst.n):
            if not rects_disjoint(a, inst.rects[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


def validate_misr_solution(inst: MisrInstance, selected: Iterable[int]) -> bool:
    """True iff all selected rectangles are pairwise disjoint."""
    idx = sorted(set(selected))
    for i in idx:
        if not 0 <= i < inst.n:
            raise IndexError(f"rectangle index {i} out of range")
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if not rects_disjoint(inst.rects[idx[a]], inst.rects[idx[b]]):
                return False
    return True


@dataclass(frozen=True, slots=True)
class Item:
    """A knapsack item of positive integer width and height.

    The 2DKR pipeline requires the canonical orientation w >= h; use
    :func:`canonicalize_items` to obtain it together with the swap flags.
    Instances constructed elsewhere (e.g. the hardness reduction) may store
    items in either orientation.
    """

    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w < 1 or self.h < 1:
            raise ValueError(f"non-positive item dimensions ({self.w},{self.h})")


def canonicalize_items(items: Sequence[Item]) -> tuple[tuple[Item, ...], tuple[bool, ...]]:
    """Return items rotated into w >= h orientation plus per-item swap flags."""
    canon = []
    swapped = []
    for it in items:
        if it.w >= it.h:
            canon.append(it)
            swapped.append(False)
        else:
            canon.append(Item(it.h, it.w))
            swapped.append(True)
    return tuple(canon), tuple(swapped)


@dataclass(frozen=True, slots=True)
class Placement:
    """A positioned, possibly rotated item.

    ``x`` and ``y`` are offsets of the item's lower-left corner. They are
    integers in instance and solution files; intermediate pipeline
    transformations may produce exact rational offsets.
    """

    item: int
    x: Coord
    y: Coord
    rotated: bool = False

    def dims(self, it: Item) -> tuple[Coord, Coord]:
        """Effective (width, height) of the placed item."""
        return (it.h, it.w) if self.rotated else (it.w, it.h)

    def box(self, it: Item) -> tuple[Coord, Coord, Coord, Coord]:
        w, h = self.dims(it)
        return (self.x, self.y, self.x + w, self.y + h)


@dataclass(frozen=True)
class Packing:
    """A set of placements inside the square knapsack [0, N]^2."""

    N: int
    placements: tuple[Placement, ...]

    @property
    def size(self) -> int:
        return len(self.placements)


@dataclass(frozen=True)
class GknapInstance:
    """Geometric knapsack input: a square side length and the item list."""

    N: int
    items: tuple[Item, ...]
    rotations: bool = True

    def __post_init__(self) -> None:
        for i, it in enumerate(self.items):
            if it.w > self.N or it.h > self.N:
                raise ValueError(f"item {i} exceeds knapsack side {self.N}")

    @property
    def n(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True)
class Violation:
    """A single packing defect; violations are data, not exceptions."""

    kind: str
    where: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_packing(p: Packing, items: Sequence[Item]) -> ValidationResult:
    """Check containment, dimension sanity and pairwise interior disjointness.

    Every defect is reported with the placement indices involved; an unknown
    item index is itself a violation so that the remaining checks still run.
    """
    out: list[Violation] = []
    seen: dict[int, int] = {}
    boxes: list[Optional[tuple[Coord, Coord, Coord, Coord]]] = []
    for pi, pl in enumerate(p.placements):
        if not 0 <= pl.item < len(items):
            out.append(Violation("bad-item-index", (pi,), f"placement {pi} references item {pl.item}"))
            boxes.append(None)
            continue
        if pl.item in seen:
            out.append(
                Violation(
                    "duplicate-item",
                    (seen[pl.item], pi),
                    f"item {pl.item} placed twice (placements {seen[pl.item]} and {pi})",
                )
            )
        seen.setdefault(pl.item, pi)
        x1, y1, x2, y2 = pl.box(items[pl.item])
        boxes.append((x1, y1, x2, y2))
        if x1 < 0 or y1 < 0 or x2 > p.N or y2 > p.N:
            out.append(
                Violation(
                    "out-of-bounds",
                    (pi,),
                    f"placement {pi} box ({x1},{y1},{x2},{y2}) leaves [0,{p.N}]^2",
                )
            )
    for a in range(len(boxes)):
        if boxes[a] is None:
            continue
        for b in range(a + 1, len(boxes)):
            if boxes[b] is not None and boxes_overlap(boxes[a], boxes[b]):
                out.append(
                    Violation("overlap", (a, b), f"placements {a} and {b} overlap")
                )
    return ValidationResult(tuple(out))


@dataclass(frozen=True)
class KernelReport:
    """Surviving object indices plus the parameters that produced them."""

    indices: tuple[int, ...]
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.indices)
