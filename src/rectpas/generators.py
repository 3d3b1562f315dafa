"""Seeded, reproducible instance generators.

Same seed, same bytes: every generator drives its own ``random.Random``
and the emitted payload is a pure function of the parameters.
"""

from __future__ import annotations

import random

from .fileio import InstanceFile
from .geometry import (
    GknapInstance,
    Item,
    MisrInstance,
    Packing,
    Placement,
    Rect,
    boxes_overlap,
)


def gen_misr(
    n: int,
    seed: int,
    span: int = 60,
    max_side: int = 18,
    planted: int = 0,
) -> InstanceFile:
    """Random rectangles, optionally with a planted independent set.

    Planting places pairwise disjoint rectangles on a coarse grid first, so
    the optimum is at least ``planted``; the rest are sampled freely.
    """
    if n < 0 or planted < 0 or planted > n:
        raise ValueError("need 0 <= planted <= n")
    rng = random.Random(seed)
    rects: list[Rect] = []
    if planted:
        cols = max(1, int(planted**0.5 + 0.999))
        rows = -(-planted // cols)
        cw, ch = span // cols, span // rows
        if cw < 2 or ch < 2:
            raise ValueError("span too small for the planted set")
        slots = [(c, r) for c in range(cols) for r in range(rows)]
        rng.shuffle(slots)
        for c, r in slots[:planted]:
            x1 = c * cw + rng.randrange(0, max(1, cw // 3))
            y1 = r * ch + rng.randrange(0, max(1, ch // 3))
            x2 = min((c + 1) * cw - 1, x1 + 1 + rng.randrange(1, max(2, cw // 2)))
            y2 = min((r + 1) * ch - 1, y1 + 1 + rng.randrange(1, max(2, ch // 2)))
            rects.append(Rect(x1, y1, max(x2, x1 + 1), max(y2, y1 + 1)))
    while len(rects) < n:
        x1 = rng.randrange(0, span - 1)
        y1 = rng.randrange(0, span - 1)
        w = rng.randrange(1, max_side + 1)
        h = rng.randrange(1, max_side + 1)
        rects.append(Rect(x1, y1, min(x1 + w, span), min(y1 + h, span)))
    meta = {
        "generator": "misr-random",
        "seed": seed,
        "params": {"n": n, "span": span, "max_side": max_side, "planted": planted},
    }
    return InstanceFile("misr", MisrInstance(tuple(rects)), meta)


def gen_gknap_packed(
    k: int,
    seed: int,
    N: int = 1000,
    max_frac: int = 8,
    extra: int = 0,
    column: int = 0,
) -> tuple[InstanceFile, Packing]:
    """A knapsack instance built around a known-feasible reference packing.

    ``k`` items are placed greedily without overlap (dimensions at most
    N/max_frac each, canonical w >= h); ``column`` of them are instead
    stacked full-height at the left wall to exercise the separating-path
    machinery. ``extra`` unplaced distractor items are appended after the
    packed ones. The reference packing is returned alongside the instance
    and recorded in the metadata.
    """
    if k < 1 or N < 4 or extra < 0 or not 0 <= column <= k:
        raise ValueError("bad generator parameters")
    rng = random.Random(seed)
    items: list[Item] = []
    placements: list[Placement] = []

    if column:
        h = N // column
        w = max(h, N // max_frac)
        for j in range(column):
            items.append(Item(w, h))
            placements.append(Placement(len(items) - 1, 0, j * h, True))
    boxes = [pl.box(items[pl.item]) for pl in placements]
    attempts = 0
    while len(items) < k and attempts < 20000:
        attempts += 1
        w = rng.randrange(max(2, N // (3 * max_frac)), N // max_frac + 1)
        h = rng.randrange(max(1, N // (6 * max_frac)), w + 1)
        x = rng.randrange(0, N - w + 1)
        y = rng.randrange(0, N - h + 1)
        if any(boxes_overlap((x, y, x + w, y + h), b) for b in boxes):
            continue
        items.append(Item(w, h))
        placements.append(Placement(len(items) - 1, x, y, False))
        boxes.append((x, y, x + w, y + h))
    if len(items) < k:
        raise RuntimeError(f"could not place {k} items with seed {seed}")
    for _ in range(extra):
        w = rng.randrange(2, N // max_frac + 1)
        h = rng.randrange(1, w + 1)
        items.append(Item(w, h))
    meta = {
        "generator": "gknap-packed",
        "seed": seed,
        "params": {"k": k, "N": N, "max_frac": max_frac, "extra": extra, "column": column},
        "reference_packing": [
            [pl.item, pl.x, pl.y, pl.rotated] for pl in placements
        ],
    }
    inst = GknapInstance(N, tuple(items), rotations=True)
    return InstanceFile("gknap", inst, meta), Packing(N, tuple(placements))


def gen_gknap_random(n: int, seed: int, N: int = 64, max_frac: int = 2) -> InstanceFile:
    """Plain random items, no planted structure."""
    rng = random.Random(seed)
    items = []
    for _ in range(n):
        w = rng.randrange(1, N // max_frac + 1)
        h = rng.randrange(1, N // max_frac + 1)
        items.append(Item(w, h))
    meta = {
        "generator": "gknap-random",
        "seed": seed,
        "params": {"n": n, "N": N, "max_frac": max_frac},
    }
    return InstanceFile("gknap", GknapInstance(N, tuple(items)), meta)


def gen_figure_counterexample(k: int, N: int = 0, flat_height: int = 1) -> tuple[InstanceFile, Packing]:
    """The no-rotation counterexample family: k/2 flat full-width items at
    the bottom, k/2 tall near-full-height items side by side above them.

    The flat items' total height can be made arbitrarily small relative to
    N, which is what rules out freeing a fixed-fraction strip without
    rotations. Returns the instance and its natural packing.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be even and at least 2")
    half = k // 2
    if N == 0:
        N = half * max(20, 4 * flat_height * half)
    if N % half or flat_height * half >= N:
        raise ValueError("N must be a multiple of k/2 and leave room for the tall items")
    flat = Item(w=N, h=flat_height)
    tall = Item(w=N // half, h=N - half * flat_height)
    items = tuple([flat] * half + [tall] * half)
    placements = []
    for j in range(half):
        placements.append(Placement(j, 0, j * flat_height, False))
    for j in range(half):
        placements.append(Placement(half + j, j * (N // half), half * flat_height, False))
    meta = {
        "generator": "figure-counterexample",
        "seed": 0,
        "params": {"k": k, "N": N, "flat_height": flat_height},
        "reference_packing": [[pl.item, pl.x, pl.y, pl.rotated] for pl in placements],
    }
    inst = GknapInstance(N, items, rotations=False)
    return InstanceFile("gknap", inst, meta), Packing(N, tuple(placements))

