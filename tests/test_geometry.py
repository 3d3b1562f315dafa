import random

import pytest

from rectpas.geometry import (
    Item,
    MisrInstance,
    Packing,
    Placement,
    Rect,
    canonicalize_items,
    conflict_masks,
    normalize_instance,
    open_overlap,
    rects_disjoint,
    validate_misr_solution,
    validate_packing,
)


def test_disjoint_shared_edge():
    assert rects_disjoint(Rect(0, 0, 2, 2), Rect(2, 0, 4, 2))


def test_disjoint_overlapping_interiors():
    assert not rects_disjoint(Rect(0, 0, 3, 3), Rect(2, 2, 4, 4))


def test_disjoint_nesting():
    assert not rects_disjoint(Rect(0, 0, 4, 4), Rect(1, 1, 2, 2))


def test_disjoint_symmetry():
    rng = random.Random(7)
    for _ in range(300):
        a = _rand_rect(rng)
        b = _rand_rect(rng)
        assert rects_disjoint(a, b) == rects_disjoint(b, a)


def _rand_rect(rng):
    x1 = rng.randrange(0, 12)
    y1 = rng.randrange(0, 12)
    return Rect(x1, y1, x1 + rng.randrange(1, 6), y1 + rng.randrange(1, 6))


def test_conflict_masks_match_pairwise_disjointness():
    # 0 and 1 share an edge, 0 and 2 a corner, 1 and 2 an edge; 3 overlaps
    # all three; 4 shares part of an edge with 2 and meets nothing else.
    touching = MisrInstance.from_coords([(0, 0, 2, 2), (2, 0, 4, 2), (2, 2, 4, 4), (1, 1, 3, 3), (3, 4, 5, 6)])
    assert conflict_masks(touching) == (0b01001, 0b01010, 0b01100, 0b01111, 0b10000)
    rng = random.Random(17)
    for n in (0, 1, 9, 16):
        for _ in range(12):
            inst = MisrInstance(tuple(_rand_rect(rng) for _ in range(n)))
            masks = conflict_masks(inst)
            assert len(masks) == n and all(m < 1 << n for m in masks)
            for i in range(n):
                for j in range(n):
                    overlap = i == j or not rects_disjoint(inst.rects[i], inst.rects[j])
                    assert bool(masks[i] >> j & 1) == overlap


def test_degenerate_rect_rejected():
    with pytest.raises(ValueError):
        Rect(3, 0, 3, 5)
    with pytest.raises(ValueError):
        Rect(0, 5, 4, 2)


def test_normalize_identity():
    inst = MisrInstance.from_coords([(0, 0, 1, 1)])
    assert normalize_instance(inst) == inst


def test_normalize_single_collapses_to_unit():
    inst = MisrInstance.from_coords([(10, 10, 50, 50)])
    assert normalize_instance(inst).rects == (Rect(0, 0, 1, 1),)


def test_normalize_preserves_disjointness_matrix():
    rng = random.Random(11)
    for _ in range(50):
        rects = [_rand_rect(rng) for _ in range(8)]
        inst = MisrInstance(tuple(rects))
        norm = normalize_instance(inst)
        assert norm.is_normalized()
        for i in range(8):
            for j in range(i + 1, 8):
                assert rects_disjoint(inst.rects[i], inst.rects[j]) == rects_disjoint(
                    norm.rects[i], norm.rects[j]
                )


def test_normalize_idempotent():
    rng = random.Random(13)
    for _ in range(20):
        inst = MisrInstance(tuple(_rand_rect(rng) for _ in range(6)))
        once = normalize_instance(inst)
        assert normalize_instance(once) == once


def test_validate_misr_solution_basics():
    inst = MisrInstance.from_coords([(0, 0, 2, 2), (1, 1, 3, 3), (5, 5, 6, 6)])
    assert validate_misr_solution(inst, [])
    assert validate_misr_solution(inst, [0])
    assert validate_misr_solution(inst, [0, 2])
    assert not validate_misr_solution(inst, [0, 1])
    with pytest.raises(IndexError):
        validate_misr_solution(inst, [3])


def test_validate_packing_full_item():
    items = [Item(5, 5)]
    packing = Packing(5, (Placement(0, 0, 0),))
    assert validate_packing(packing, items).ok


def test_validate_packing_overlap_pair():
    items = [Item(1, 1), Item(1, 1)]
    packing = Packing(4, (Placement(0, 0, 0), Placement(1, 0, 0)))
    result = validate_packing(packing, items)
    assert not result.ok
    kinds = {(v.kind, v.where) for v in result.violations}
    assert ("overlap", (0, 1)) in kinds


def test_validate_packing_out_of_bounds():
    items = [Item(3, 2)]
    packing = Packing(4, (Placement(0, 2, 0),))  # x = N - w + 1
    result = validate_packing(packing, items)
    assert [v.kind for v in result.violations] == ["out-of-bounds"]


def test_validate_packing_respects_rotation():
    items = [Item(4, 2)]
    assert validate_packing(Packing(4, (Placement(0, 0, 0, rotated=True),)), items).ok
    assert not validate_packing(Packing(3, (Placement(0, 0, 0, rotated=False),)), items).ok


def test_validate_packing_duplicate_and_bad_index():
    items = [Item(1, 1)]
    packing = Packing(4, (Placement(0, 0, 0), Placement(0, 2, 2), Placement(5, 0, 2)))
    kinds = {v.kind for v in validate_packing(packing, items).violations}
    assert kinds == {"duplicate-item", "bad-item-index"}


def test_validate_packing_agrees_with_interval_arithmetic():
    rng = random.Random(3)
    for _ in range(60):
        items = [Item(rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(5)]
        placements = tuple(
            Placement(i, rng.randrange(0, 8), rng.randrange(0, 8), rng.random() < 0.5)
            for i in range(5)
        )
        packing = Packing(10, placements)
        result = validate_packing(packing, items)
        boxes = [pl.box(items[pl.item]) for pl in placements]
        overlaps = {
            (a, b)
            for a in range(5)
            for b in range(a + 1, 5)
            if open_overlap(boxes[a][0], boxes[a][2], boxes[b][0], boxes[b][2])
            and open_overlap(boxes[a][1], boxes[a][3], boxes[b][1], boxes[b][3])
        }
        reported = {v.where for v in result.violations if v.kind == "overlap"}
        assert reported == overlaps


def test_canonicalize_items():
    items = [Item(2, 5), Item(5, 2), Item(3, 3)]
    canon, swapped = canonicalize_items(items)
    assert all(it.w >= it.h for it in canon)
    assert swapped == (True, False, False)
    assert canon[0] == Item(5, 2)
