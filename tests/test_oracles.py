import random
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from rectpas import oracles
from rectpas.generators import gen_gknap_packed, gen_misr
from rectpas.geometry import Item, MisrInstance, Packing, Placement, normalize_instance, validate_packing
from rectpas.oracles import (
    BudgetExceededError,
    OracleBudget,
    knapsack_exact,
    mis_rectangles_exact,
    mis_rectangles_scan,
    mss_enumerate,
    mss_exact,
    packing_feasible_exact,
    packing_feasible_scan,
)
from tests.conftest import counting_clock


def test_mis_all_disjoint():
    inst = MisrInstance.from_coords([(3 * i, 0, 3 * i + 2, 2) for i in range(6)])
    assert len(mis_rectangles_exact(inst)) == 6


def test_mis_common_point():
    inst = MisrInstance.from_coords([(0, 0, 10 + i, 10 + i) for i in range(5)])
    assert len(mis_rectangles_exact(inst)) == 1


def test_mis_matches_subset_scan():
    rng = random.Random(2)
    for _ in range(40):
        rects = []
        for _ in range(5):
            x1, y1 = rng.randrange(8), rng.randrange(8)
            rects.append((x1, y1, x1 + rng.randrange(1, 5), y1 + rng.randrange(1, 5)))
        inst = MisrInstance.from_coords(rects)
        assert len(mis_rectangles_exact(inst)) == len(mis_rectangles_scan(inst))


# The exact tuples on the normalized bench-shaped instances
# gen_misr(n=22, seed=j, span=16, max_side=9), j = 0..13. The benchmark
# derives each instance's --cap-c from structured_solution on these very
# sets, so a change of tie-break would silently change its operations.
MIS_BENCH_TUPLES = [
    (0, 2, 4, 6, 7, 9, 14, 18),
    (0, 2, 5, 6, 8, 9, 11, 13),
    (0, 1, 2, 4, 6, 9, 10, 14, 15),
    (2, 5, 12, 13, 14, 19, 20),
    (1, 3, 5, 6, 8, 9, 15, 19, 20),
    (4, 5, 6, 7, 8, 9, 14, 19, 21),
    (1, 3, 4, 5, 11, 14, 15, 20),
    (0, 2, 3, 5, 6, 7, 8, 11, 12),
    (1, 3, 5, 6, 8, 10, 12, 17, 19),
    (1, 2, 3, 7, 8, 11, 12, 13, 17, 21),
    (1, 2, 4, 5, 16, 17, 18, 19),
    (1, 2, 3, 7, 9, 11, 13, 14, 15, 16, 18),
    (4, 5, 7, 8, 9, 11, 15),
    (0, 3, 4, 5, 6, 7, 12, 18),
]


def test_mis_exact_tie_break_on_bench_instances():
    budget = OracleBudget(max_items=45, max_solution_size=12)
    got = [
        mis_rectangles_exact(normalize_instance(gen_misr(n=22, seed=j, span=16, max_side=9).instance), budget)
        for j in range(len(MIS_BENCH_TUPLES))
    ]
    assert got == MIS_BENCH_TUPLES


def test_mis_exact_search_depth_takes_no_frames():
    # 60 overlapping pairs in a row: the include chain is 60 nodes deep and
    # every pair leaves a skip node, so a recursive search would need about
    # 60 frames above its caller; 40 spare frames must be enough.
    coords = [c for i in range(60) for c in ((3 * i, 0, 3 * i + 2, 2), (3 * i + 1, 1, 3 * i + 3, 3))]
    inst = MisrInstance.from_coords(coords)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        got = mis_rectangles_exact(inst, OracleBudget(max_items=120))
    finally:
        sys.setrecursionlimit(limit)
    assert got == tuple(range(0, 120, 2))


def test_mis_budget_guard():
    inst = MisrInstance.from_coords([(i, 0, i + 1, 1) for i in range(5)])
    with pytest.raises(BudgetExceededError):
        mis_rectangles_exact(inst, OracleBudget(max_items=3))


def test_mis_exact_stops_within_its_time_limit():
    # A node of this search builds a clique cover over up to 700 live
    # rectangles, so a deadline read every few hundred nodes would be
    # seconds late; read at each node it is one node late.
    inst = normalize_instance(gen_misr(n=700, seed=1, span=2000).instance)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError, match="time budget exceeded in exact MIS"):
        mis_rectangles_exact(inst, OracleBudget(max_items=700, time_limit=0.5))
    assert time.monotonic() - start <= 0.5 + 0.25


def test_budget_rejects_a_time_limit_that_is_not_positive():
    # NaN passes a "<= 0" test but never reaches its deadline.
    for bad in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="time limit must be positive"):
            OracleBudget(time_limit=bad)
    assert OracleBudget(time_limit=0.5).time_limit == 0.5


def test_packing_two_full_squares():
    assert packing_feasible_exact([Item(5, 5), Item(5, 5)], 5, 5) is None


def test_packing_unit_row():
    placed = packing_feasible_exact([Item(1, 1)] * 4, 4, 4)
    assert placed is not None and len(placed) == 4


def test_packing_rotated_fit():
    # Four 3x2 items fill a 5x5 box only when some are rotated.
    items = [Item(3, 2)] * 4
    with_rot = packing_feasible_exact(items, 5, 5, rotations=True)
    assert with_rot is not None
    assert packing_feasible_scan(items, 5, 5, rotations=True) is not None


def test_packing_rotation_consistency():
    rng = random.Random(9)
    for _ in range(80):
        W, H = rng.randrange(2, 7), rng.randrange(2, 7)
        items = [
            Item(rng.randrange(1, W + 1), rng.randrange(1, H + 1))
            for _ in range(rng.randrange(1, 4))
        ]
        without = packing_feasible_exact(items, W, H, rotations=False)
        if without is not None:
            assert packing_feasible_exact(items, W, H, rotations=True) is not None


def test_packing_agrees_with_scan():
    rng = random.Random(31)
    for _ in range(300):
        W, H = rng.randrange(2, 9), rng.randrange(2, 9)
        items = [
            Item(rng.randrange(1, W + 1), rng.randrange(1, H + 1))
            for _ in range(rng.randrange(1, 5))
        ]
        mine = packing_feasible_exact(items, W, H)
        ref = packing_feasible_scan(items, W, H)
        assert (mine is None) == (ref is None)


@pytest.mark.parametrize("rotations", [False, True])
def test_packing_differential_against_scan(rotations):
    rng = random.Random(101 + rotations)
    found = 0
    for _ in range(250):
        W, H = rng.randrange(1, 9), rng.randrange(1, 9)
        items = [
            Item(rng.randrange(1, W + 1), rng.randrange(1, H + 1))
            for _ in range(rng.randrange(1, 5))
        ]
        mine = packing_feasible_exact(items, W, H, rotations)
        ref = packing_feasible_scan(items, W, H, rotations)
        assert (mine is None) == (ref is None), (items, W, H)
        if mine is not None:
            found += 1
            assert sorted(pl.item for pl in mine) == list(range(len(items)))
            assert rotations or not any(pl.rotated for pl in mine)
            assert validate_packing(Packing(max(W, H), mine), items).ok
            assert all(pl.box(items[pl.item])[2] <= W and pl.box(items[pl.item])[3] <= H for pl in mine)
    assert 0 < found < 250


# The search order (area, orientation, x, y; first item in the lower-left
# quadrant) decides which packing comes back; these pin it.
GOLDEN_PACKINGS = [
    (
        [Item(3, 2)] * 4, 5, 5, True,
        [(0, 0, 0, False), (1, 2, 3, False), (2, 0, 2, True), (3, 3, 0, True)],
    ),
    (
        [Item(9, 7), Item(12, 8), Item(10, 9), Item(7, 7)], 24, 24, True,
        [(0, 0, 17, False), (1, 0, 0, False), (2, 0, 8, False), (3, 9, 17, False)],
    ),
    (
        [Item(4, 3), Item(3, 2), Item(2, 2)], 6, 5, False,
        [(0, 0, 0, False), (1, 0, 3, False), (2, 3, 3, False)],
    ),
    (
        [Item(16, 6), Item(12, 9), Item(9, 8)], 20, Fraction(39, 2), True,
        [(0, 0, 9, False), (1, 0, 0, False), (2, 12, 0, True)],
    ),
    ([Item(15, 7), Item(12, 9), Item(9, 8)], 20, Fraction(31, 2), True, None),
    # H > W: the y coordinate 24 lies above W but below H.
    (
        [Item(5, 24), Item(19, 5)], 22, Fraction(88, 3), False,
        [(0, 0, 0, False), (1, 0, 24, False)],
    ),
    # Seven items: one item's interval recurs under different x positions
    # of the items placed before it, with different projection answers.
    (
        [Item(3, 3), Item(4, 2), Item(3, 1), Item(3, 3), Item(4, 3), Item(4, 3), Item(2, 4)],
        8, 8, False,
        [(0, 0, 3, False), (1, 0, 6, False), (2, 4, 7, False), (3, 3, 3, False),
         (4, 0, 0, False), (5, 4, 0, False), (6, 6, 3, False)],
    ),
    (
        [Item(3, 8), Item(4, 6), Item(3, 6), Item(5, 5), Item(8, 2), Item(7, 3), Item(7, 5)],
        12, Fraction(43, 3), True,
        [(0, 7, 0, False), (1, 5, 8, False), (2, 9, 8, False), (3, 0, 8, False),
         (4, 10, 0, True), (5, 0, 5, False), (6, 0, 0, False)],
    ),
]


@pytest.mark.parametrize("items,W,H,rotations,expected", GOLDEN_PACKINGS)
def test_packing_golden_placements(items, W, H, rotations, expected):
    got = packing_feasible_exact(items, W, H, rotations)
    assert got == (None if expected is None else tuple(Placement(*p) for p in expected))


def test_packing_area_above_board_skips_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched although the area exceeds the board")

    monkeypatch.setattr(oracles, "_packing_search", no_search)
    assert packing_feasible_exact([Item(3, 3), Item(3, 2), Item(2, 2)], 4, 4) is None
    assert packing_feasible_exact([Item(5, 4)] * 2, 8, Fraction(9, 2)) is None


@pytest.mark.parametrize("rotations", [False, True])
def test_dff_bound_never_rejects_a_probe_the_scan_packs(rotations):
    # Every member of the family is a valid bound, so a probe it rejects
    # has no packing, whichever member rejects it.
    rng = random.Random(71 + rotations)
    labels = []
    for _ in range(2000):
        W, H = rng.randint(3, 8), rng.randint(3, 8)
        items = [Item(rng.randint(1, W), rng.randint(1, H)) for _ in range(rng.randint(2, 5))]
        if sum(it.w * it.h for it in items) > W * H:
            continue
        label = oracles._dff_rejection(items, W, H, rotations)
        labels.append(label)
        if label is not None:
            assert packing_feasible_scan(items, W, H, rotations) is None, (items, W, H)
    assert labels.count(None) > len(labels) // 2
    assert {"u1", "u2", "u3"} <= set(labels)


@pytest.mark.parametrize("rotations", [False, True])
def test_dff_bound_keeps_every_placement(rotations, monkeypatch):
    # On chunky probes, Fraction H and W != H included, the placements with
    # the bound are those with it patched out: it only drops probes that
    # the search would answer None.
    rng = random.Random(83 + rotations)
    probes = [_random_probe(rng, W, 6) for W in [10, 24, 100] * 40]
    labels = [oracles._dff_rejection(items, W, H, rotations) for items, W, H in probes]
    mine = [packing_feasible_exact(items, W, H, rotations) for items, W, H in probes]
    monkeypatch.setattr(oracles, "_dff_rejection", _no_dff_bound)
    assert mine == [packing_feasible_exact(items, W, H, rotations) for items, W, H in probes]
    rejected = {type(H).__name__ for (_, _, H), label in zip(probes, labels) if label is not None}
    assert rejected == {"int", "Fraction"} and any(W != H for _, W, H in probes)
    assert any(p is not None for p in mine)


def test_dff_bound_hand_cases(monkeypatch):
    # Two squares wider than half the board: u^(1) maps each to the board.
    # The rejected probe still reads the deadline once.
    squares = [Item(11, 11)] * 2
    assert oracles._dff_rejection(squares, 20, 20, True) == "u1"
    reads = counting_clock(monkeypatch, oracles)
    assert packing_feasible_exact(squares, 20, 20, deadline=3600.0) is None
    assert len(reads) == 1
    # A big square leaves a strip of width 1 beside it: u^(eps) at e = 2
    # maps the big one to the board, and the small one keeps its area.
    assert oracles._dff_rejection([Item(2, 2), Item(8, 8)], 9, 9, False) == "eps"
    # Four quarter squares fill the board: (k + 1) * x is a multiple of L
    # for k = 1 and 3, where k * u^(k) is k * x, so no member rejects them.
    for N in (2, 10, 24):
        quarter = [Item(N // 2, N // 2)] * 4
        assert oracles._dff_rejection(quarter, N, N, False) is None
        assert validate_packing(Packing(N, packing_feasible_exact(quarter, N, N)), quarter).ok
    # Area fits (0.89 of the board), but u^(2) maps every item to the board
    # and five of them exceed 4 * N^2: no coordinate list is built.
    items = [Item(412, 368), Item(431, 496), Item(342, 348), Item(540, 467), Item(354, 423)]
    assert oracles._dff_rejection(items, 1000, 1000, True) == "u2"
    calls = []
    normal_patterns = oracles._normal_patterns

    def counting(*args):
        calls.append(args)
        return normal_patterns(*args)

    monkeypatch.setattr(oracles, "_normal_patterns", counting)
    assert packing_feasible_exact(items, 1000, 1000) is None
    assert calls == []


def test_packing_many_distinct_sides():
    # Distinct sides on a wide board give hundreds to thousands of
    # canonical coordinates per axis; the search must not build anything
    # of size (coordinates on x) * (coordinates on y).
    for seed in range(3):
        inst, _ = gen_gknap_packed(k=8, seed=seed, N=5000)
        items = inst.instance.items
        got = packing_feasible_exact(items, 5000, 5000)
        assert got is not None and validate_packing(Packing(5000, got), items).ok
    # Area fits but no packing exists: the search runs to the end.
    items = [Item(412, 368), Item(431, 496), Item(342, 348), Item(540, 467), Item(354, 423)]
    assert packing_feasible_exact(items, 1000, 1000) is None


def test_packing_certificates_validate():
    rng = random.Random(17)
    for _ in range(60):
        W = rng.randrange(3, 9)
        items = [
            Item(rng.randrange(1, W + 1), rng.randrange(1, W + 1)) for _ in range(3)
        ]
        placed = packing_feasible_exact(items, W, W)
        if placed is None:
            continue
        assert validate_packing(Packing(W, placed), items).ok


def test_knapsack_nothing_fits():
    items = [Item(9, 9)] * 3
    subset, placed = knapsack_exact(items, 8, 8, 3)
    assert subset == () and placed == ()


def test_knapsack_unit_squares():
    items = [Item(1, 1)] * 5
    subset, placed = knapsack_exact(items, 5, 5, 5)
    assert len(subset) == 5
    assert validate_packing(Packing(5, placed), items).ok


def test_knapsack_bounds_the_sizes_it_probes(monkeypatch):
    # k is above the size bound, but only four of the squares fit by area,
    # so no probe holds more than four items.
    items = [Item(5, 5)] * 6
    budget = OracleBudget(max_solution_size=4)
    subset, placed = knapsack_exact(items, 10, 10, 10, True, budget)
    assert subset == (0, 1, 2, 3)
    assert validate_packing(Packing(10, placed), items).ok
    # On a larger board all six fit by area: it raises before any probe.
    probes = []
    monkeypatch.setattr(oracles, "packing_feasible_exact", lambda *args: probes.append(args))
    with pytest.raises(BudgetExceededError, match="6 items exceed budget 4"):
        knapsack_exact(items, 15, 10, 10, True, budget)
    assert probes == []


def test_probes_share_the_run_clock(monkeypatch):
    # No two of these squares fit together, so the bounds reject each
    # probe after one read of the deadline. The run's deadline passes as
    # the first probe starts: with one deadline for the run, that probe's
    # read raises. A deadline of its own, set then, would let it answer.
    now = [0.0]
    monkeypatch.setattr(oracles, "time", SimpleNamespace(monotonic=lambda: now[0]))
    probes, answered = [], []
    probe = oracles.packing_feasible_exact

    def counting(*args):
        probes.append(args)
        now[0] = 2.0
        answered.append(probe(*args))
        return answered[-1]

    monkeypatch.setattr(oracles, "packing_feasible_exact", counting)
    with pytest.raises(BudgetExceededError, match="time budget exceeded in packing search"):
        knapsack_exact([Item(11, 11)] * 14, 20, 20, 3, True, OracleBudget(time_limit=1))
    assert len(probes) == 1 and answered == []


def test_knapsack_matches_subset_scan():
    rng = random.Random(23)
    for _ in range(10):
        W = 7
        items = [Item(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(8)]
        subset, _ = knapsack_exact(items, W, W, 3)
        best = 0
        for mask in range(1 << 8):
            chosen = [items[i] for i in range(8) if mask >> i & 1]
            if len(chosen) > 3 or len(chosen) <= best:
                continue
            if packing_feasible_scan(chosen, W, W) is not None:
                best = len(chosen)
        assert len(subset) == best


def test_first_packable_subset_skips_over_area_subsets(monkeypatch):
    # The pruned enumeration hands the probe exactly the subsets within the
    # board's area, in the order of an unpruned combinations loop, and so
    # finds the same first packable subset with the same packing.
    rng = random.Random(29)
    probe = oracles.packing_feasible_exact
    for trial in range(40):
        W = rng.choice([10, 12])
        H = rng.choice([W, W - Fraction(1, 2)])
        items = [Item(rng.randint(2, 8), rng.randint(2, 8)) for _ in range(10)]
        indices = sorted(rng.sample(range(10), rng.randint(4, 9)))
        sizes = rng.choice([(4, 3, 2, 1), (3,), (5, 4)])
        budget = OracleBudget(time_limit=3600)
        expected, within = None, []
        for subset in (c for s in sizes for c in combinations(indices, s)):
            chosen = [items[i] for i in subset]
            if sum(it.w * it.h for it in chosen) <= W * H:
                within.append(subset)
            placed = probe(chosen, W, H, True, budget)
            if placed is not None:
                expected = subset, tuple(Placement(subset[p.item], p.x, p.y, p.rotated) for p in placed)
                break
        probed = []

        def counting(chosen, W_, H_, *args):
            assert sum(it.w * it.h for it in chosen) <= W_ * H_
            probed.append(chosen)
            return probe(chosen, W_, H_, *args)

        monkeypatch.setattr(oracles, "packing_feasible_exact", counting)
        got = oracles.first_packable_subset(items, indices, sizes, W, H, True, budget)
        monkeypatch.setattr(oracles, "packing_feasible_exact", probe)
        assert got == expected, trial
        assert probed == [[items[i] for i in subset] for subset in within], trial


def test_mss_examples():
    assert mss_exact([2], 2, 1) == (2,)
    assert mss_exact([3, 5], 6, 2) == (3, 3)
    assert mss_exact([3, 5], 7, 2) is None


def test_mss_matches_enumeration():
    rng = random.Random(5)
    for _ in range(400):
        m = rng.randrange(1, 6)
        xs = sorted(rng.sample(range(1, 30), m))
        k = rng.randrange(1, 5)
        t = rng.randrange(1, 61)
        got = mss_exact(xs, t, k)
        ref = mss_enumerate(xs, t, k)
        assert (got is None) == (ref is None)
        if got is not None:
            assert len(got) == k and sum(got) == t and all(v in xs for v in got)


def test_mss_rejects_bad_input():
    with pytest.raises(ValueError):
        mss_exact([0, 3], 5, 2)
    with pytest.raises(ValueError):
        mss_exact([3], -1, 2)


def _choice_sums(pairs, limit):
    """Referee for one item's normal patterns: the sums up to ``limit`` of
    one side of each item in a subset of ``pairs``, one set DP per item."""
    sums = {0}
    for a, b in pairs:
        sums |= {s + v for s in sums for v in (a, b) if s + v <= limit}
    return sorted(sums)


def test_normal_patterns_take_one_side_per_item():
    assert oracles._normal_patterns([], 100) == []
    assert oracles._normal_patterns([(3, 5)], 100) == [[0]]
    assert oracles._normal_patterns([(7, 7), (3, 5)], 100) == [[0, 3, 5], [0, 7]]
    assert oracles._normal_patterns([(9, 9), (3, 5), (4, 4)], 8) == [[0, 3, 4, 5, 7], [0, 4], [0, 3, 5]]


def test_normal_patterns_match_the_per_item_referee():
    # One pass over all the items gives each item the list that a set DP
    # over the other items gives: m = 0 to 8, repeated items, square items,
    # sides over the limit, and int and Fraction limits.
    rng = random.Random(97)
    seen = Counter()
    for trial in range(1800):
        m = trial % 9
        limit = rng.choice([rng.randint(1, 12), rng.randint(13, 60), rng.randint(61, 300)])
        if rng.random() < 0.3:
            limit = rng.choice([limit - Fraction(1, 3), limit + Fraction(1, 2)])
            seen["Fraction"] += 1
        pairs = []
        for _ in range(m):
            if pairs and rng.random() < 0.2:
                pairs.append(rng.choice(pairs))
                seen["repeat"] += 1
                continue
            a = rng.randint(1, int(limit) + 2)
            b = a if rng.random() < 0.2 else rng.randint(1, int(limit) + 2)
            seen["square"] += a == b
            seen["over"] += max(a, b) > limit
            pairs.append((a, b))
        want = [_choice_sums(pairs[:i] + pairs[i + 1:], limit) for i in range(m)]
        assert oracles._normal_patterns(pairs, limit) == want, (pairs, limit)
    assert all(seen[key] > 100 for key in ("Fraction", "repeat", "square", "over")), seen


def _dff_referee(items, W, H):
    """The DFF family with no rotation to weigh: one ``_u_k`` or ``_u_eps``
    call per side, and every threshold e with 2 * e <= min(W, H) checked."""
    dims = [(it.w, it.h) for it in items]
    if sum(w * h for w, h in dims) > W * H:
        return "area"
    for k in oracles._DFF_KS:
        if sum(oracles._u_k(w, W, k) * oracles._u_k(h, H, k) for w, h in dims) > k * k * W * H:
            return f"u{k}"
    for e in sorted({s for d in dims for s in d}):
        if 2 * e <= min(W, H) and sum(oracles._u_eps(w, W, e) * oracles._u_eps(h, H, e) for w, h in dims) > W * H:
            return "eps"
    return None


def test_inline_dff_sums_match_the_per_side_functions():
    # Without rotations, or on a square board, the u^(k) and u^(eps) sums
    # are written out inline; they name the same first member as the sums
    # of the functions themselves, on int and Fraction heights alike.
    rng = random.Random(101)
    labels = Counter()
    for trial in range(4000):
        W = rng.choice([rng.randint(2, 12), rng.randint(13, 100), rng.randint(10**5, 10**6)])
        H = rng.choice([W, W, rng.randint(2, 2 * W), W - Fraction(1, 3), W + Fraction(1, 2)])
        if rng.random() < 0.25:  # sides near W / 4, where u^(3) rejects
            lo, hi, m = W // 4 or 1, max(1, W // 3), rng.randint(6, 12)
        else:
            lo, hi, m = max(1, W // 5), max(1, 3 * W // 4), rng.randint(1, 6)
        items = [Item(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(m)]
        rotations = H == W and rng.random() < 0.5
        label = oracles._dff_rejection(items, W, H, rotations)
        assert label == _dff_referee(items, W, H), (items, W, H)
        labels[label, type(H).__name__] += 1
    for label in ("area", "u1", "u2", "u3", "eps", None):
        assert labels[label, "int"] > 20 and labels[label, "Fraction"] > 20, labels


@pytest.mark.parametrize(
    "per_item,xs_all,W,H,fits",
    [
        # One item taller than the board.
        ([((2, 5, False),)], [[0]], 5, 4, False),
        # Two items that must share an x stack to exactly H.
        ([((3, 2, False),), ((3, 2, False),)], [[0, 2, 3], [0, 2, 3]], 5, 4, True),
        ([((3, 2, False),), ((3, 3, False),)], [[0, 2, 3], [0, 2, 3]], 5, 4, False),
        # Each pair fits in height, all three at one x do not.
        ([((2, 2, False),)] * 3, [[0, 2]] * 3, 3, 5, False),
        ([((2, 2, False),)] * 3, [[0, 2]] * 3, 3, 6, True),
        # Intervals are half-open: [0, 2) and [2, 4) do not meet.
        ([((2, 3, False),), ((2, 3, False),)], [[0, 2]] * 2, 4, 3, True),
        # A Fraction H just below the stacked height.
        ([((3, 2, False),), ((3, 2, False),)], [[0, 2, 3]] * 2, 5, Fraction(7, 2), False),
    ],
)
def test_x_projection_cases(per_item, xs_all, W, H, fits):
    stacks = oracles._stack_table(per_item, H)
    got = oracles._x_projection_fits(oracles._position_rows(per_item, xs_all, W, H), stacks, W, H, None)
    assert (got is not None) is fits
    if fits:
        # The assignment gives every item an interval of one of its widths.
        assert len(got) == len(per_item)
        for (x1, x2, h), opts, xs in zip(got, per_item, xs_all):
            assert x1 in xs and (x2 - x1, h) in [(w, hh) for w, hh, _ in opts]


def test_x_projection_ticks_the_probe_clock():
    # On either kind of position table.
    passed = time.monotonic() - 1
    for meet in (False, True):
        rows = oracles._position_rows([((1, 1, False),)], [[0]], 2, 2, meet)
        with pytest.raises(BudgetExceededError, match="time budget exceeded in x-projection"):
            oracles._x_projection_fits(rows, [None], 2, 2, passed)


def _x_projection_rebuilt(per_item, xs_all, stacks, W, H, deadline, placed=()):
    """Referee for ``_x_projection_fits``: rebuilds the load steps at every node.

    Same nodes in the same order, but each frame cuts [0, W) at the
    endpoints of all placed intervals and sums the heights over each step.
    The area cut takes, per step, the largest stack height that fits by a
    scan of the whole table entry.
    """
    m = len(per_item)
    placed = list(placed)

    def load_steps():
        cuts = sorted({0, W} | {p for x1, x2, _ in placed for p in (x1, x2)})
        return [(a, b, sum(h for x1, x2, h in placed if x1 <= a < x2)) for a, b in zip(cuts, cuts[1:])]

    def rec(t):
        if deadline is not None and oracles.time.monotonic() > deadline:
            raise BudgetExceededError("time budget exceeded in x-projection")
        if t == m:
            return True
        xs = xs_all[t]
        steps = load_steps()
        if 0 < t < m - 1:
            need, fill = stacks[t]
            if sum((b - a) * max(s for s in fill if load + s <= H) for a, b, load in steps) < need:
                return False
        for w, h, _ in per_item[t]:
            if h > H:
                continue
            x_cut = W - w if t else (W - w) // 2
            free = (1 << bisect_right(xs, x_cut)) - 1
            for a, b, load in steps:
                if load + h > H:
                    free &= ~((1 << bisect_left(xs, b)) - (1 << bisect_right(xs, a - w)))
            while free:
                low = free & -free
                free ^= low
                x = xs[low.bit_length() - 1]
                placed.append((x, x + w, h))
                if rec(t + 1):
                    return True
                placed.pop()
        return False

    if any(load > H for _, _, load in load_steps()):
        return None
    return tuple(placed) if rec(len(placed)) else None


def _relation(a, b):
    """How interval ``a`` sits against interval ``b``."""
    (a1, a2, _), (b1, b2, _) = a, b
    if a2 == b1 or b2 == a1:
        return "touch"
    if a2 < b1 or b2 < a1:
        return "gap"
    if b1 <= a1 and a2 <= b2 or a1 <= b1 and b2 <= a2:
        return "nest"
    return "cross"


def test_x_projection_matches_the_rebuilt_steps(monkeypatch):
    # The profile carried down the search gives the same answer and the
    # same deadline reads as rebuilding the load steps at each node, whether
    # the check starts at the root or below placed intervals in any
    # arrangement.
    reads = counting_clock(monkeypatch, oracles)
    rng = random.Random(53)
    seen = set()
    for trial in range(300):
        items, W, H = _random_probe(rng, rng.choice([10, 24, 100]), 6, rng.choice([(4, 14), (7, 21)]))
        rotations = rng.random() < 0.5
        order = sorted(range(len(items)), key=lambda i: (-items[i].w * items[i].h, i))
        per_item = [oracles._orientations(items[i], rotations) for i in order]
        xs_all = [
            _choice_sums([(items[j].w, items[j].h) for j in order if j != i], W) for i in order
        ]
        placed = []
        for t in range(rng.randint(0, len(items) - 1)):
            w, h, _ = rng.choice(per_item[t])
            x = rng.choice(xs_all[t] if rng.random() < 0.5 else range(W - w + 1))
            placed.append((x, x + w, h))
        for i, a in enumerate(placed):
            seen.update(_relation(a, b) for b in placed[i + 1:])
        if len(placed) > 1:
            starts = sorted(x1 for x1, _, _ in placed)
            if starts[0] < starts[1]:
                seen.add("leftmost")
            if starts[-2] < starts[-1]:
                seen.add("rightmost")
        stacks = oracles._stack_table(per_item, H)
        rows = oracles._position_rows(per_item, xs_all, W, H)
        reads.clear()
        got = oracles._x_projection_fits(rows, stacks, W, H, 3600.0, tuple(placed))
        mine = len(reads)
        assert got == _x_projection_rebuilt(per_item, xs_all, stacks, W, H, 3600.0, tuple(placed)), trial
        assert mine == len(reads) - mine, trial
        seen.add(("fits" if got is not None else "none", bool(placed), type(H).__name__))
    assert {"touch", "gap", "nest", "cross", "leftmost", "rightmost"} <= seen
    assert {(v, p, h) for v in ("fits", "none") for p in (False, True) for h in ("int", "Fraction")} <= seen


@pytest.mark.parametrize("rotations", [False, True])
@pytest.mark.parametrize("H", [20, Fraction(37, 2)])
def test_stack_table_matches_brute_force(rotations, H):
    # Entry t > 0: the area of items t and later, and every sum of at most
    # H their heights reach when each adds nothing or one orientation's
    # height. The cut never reads position 0, which has no entry.
    items = [Item(7, 3), Item(4, 4), Item(2, 9), Item(5, 6), Item(11, 1)]
    per_item = [oracles._orientations(it, rotations) for it in items]
    table = oracles._stack_table(per_item, H)
    assert len(table) == len(items) and table[0] is None
    for t in range(1, len(items)):
        sums = set()
        for mask in range(1 << (len(items) - t)):
            chosen = [per_item[t + i] for i in range(len(items) - t) if mask >> i & 1]
            for picks in product(*chosen):
                sums.add(sum(h for _, h, _ in picks))
        need = sum(it.w * it.h for it in items[t:])
        assert table[t] == (need, sorted(s for s in sums if s <= H)), t


def test_stack_table_is_built_for_four_or_more_items(monkeypatch):
    # With three items the area cut could run at position 1 alone, so the
    # probe builds no table (test_packing_golden_placements pins the answers).
    built = []
    table = oracles._stack_table

    def counting(per_item, H):
        built.append(len(per_item))
        return table(per_item, H)

    monkeypatch.setattr(oracles, "_stack_table", counting)
    for items, W, H, rotations, _ in GOLDEN_PACKINGS:
        packing_feasible_exact(items, W, H, rotations)
    assert built and min(built) == 4 and 3 in {len(items) for items, *_ in GOLDEN_PACKINGS}


def test_area_cut_keeps_the_answer_with_no_more_ticks(monkeypatch):
    # The cut removes only nodes without a completion: on random probes of
    # the PAS's chunky shapes and placed prefixes it returns what the search
    # without it returns (a table whose areas are all 0 never cuts), and it
    # never reads the deadline more often.
    reads = counting_clock(monkeypatch, oracles)
    rng = random.Random(61)
    fewer = 0
    seen = set()
    for trial in range(1000):
        items, W, H = _random_probe(rng, rng.choice([10, 24, 100]), 6, rng.choice([(7, 21), (9, 21)]))
        rotations = rng.random() < 0.5
        order = sorted(range(len(items)), key=lambda i: (-items[i].w * items[i].h, i))
        per_item = [oracles._orientations(items[i], rotations) for i in order]
        xs_all = [
            _choice_sums([(items[j].w, items[j].h) for j in order if j != i], W) for i in order
        ]
        placed = []
        for t in range(rng.randint(0, len(items) - 2)):
            w, h, _ = rng.choice(per_item[t])
            x = rng.choice(xs_all[t][: bisect_right(xs_all[t], W - w)])
            placed.append((x, x + w, h))
        stacks = oracles._stack_table(per_item, H)
        rows = oracles._position_rows(per_item, xs_all, W, H)
        reads.clear()
        got = oracles._x_projection_fits(rows, stacks, W, H, 3600.0, tuple(placed))
        cut = len(reads)
        no_cut = [(0, [0])] * len(items)
        assert got == oracles._x_projection_fits(rows, no_cut, W, H, 3600.0, tuple(placed)), trial
        plain = len(reads) - cut
        assert cut <= plain, trial
        fewer += cut < plain
        seen.add((got is not None, bool(placed)))
    assert fewer > 40 and seen == {(v, p) for v in (False, True) for p in (False, True)}


def test_x_projection_of_an_overloaded_prefix_is_none():
    # Two placed intervals stack 6 high over [1, 3) on a 6 x 5 board: no
    # assignment of the last item completes them, though it fits beside.
    per_item = [((3, 3, False),), ((3, 3, False),), ((1, 1, False),)]
    xs_all = [[0, 1, 3, 4]] * 3
    stacks = oracles._stack_table(per_item, 5)
    rows = oracles._position_rows(per_item, xs_all, 6, 5)
    assert oracles._x_projection_fits(rows, stacks, 6, 5, None, ((0, 3, 3),)) is not None
    assert oracles._x_projection_fits(rows, stacks, 6, 5, None, ((0, 3, 3), (1, 4, 3))) is None


def test_add_interval_splits_and_adds():
    profile = oracles._add_interval([(0, 10, 0)], 2, 5, 3)
    assert profile == [(0, 2, 0), (2, 5, 3), (5, 10, 0)]
    profile = oracles._add_interval(profile, 4, 7, 2)
    assert profile == [(0, 2, 0), (2, 4, 3), (4, 5, 5), (5, 7, 2), (7, 10, 0)]
    assert oracles._add_interval(profile, 0, 10, 1) == [
        (0, 2, 1), (2, 4, 4), (4, 5, 6), (5, 7, 3), (7, 10, 1)
    ]


def _random_probe(rng, W, max_items=5, sides=(7, 21)):
    """An area-feasible probe of chunky items, the shape the PAS probes.

    Sides range over ``sides`` in 24ths of W.
    """
    H = rng.choice([W, W, W - Fraction(1, 2), W + Fraction(7, 3)])
    lo, hi = W * sides[0] // 24, W * sides[1] // 24
    while True:
        m = rng.randint(2, max_items)
        items = [Item(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(m)]
        if sum(it.w * it.h for it in items) <= W * H:
            return items, W, H


def _no_dff_bound(*args):
    """Stand-in for the DFF bound that rejects no probe."""
    return None


def _no_projection(rows, *args):
    """Stand-in for the projection check that cuts nothing.

    Its certificate entries are ``None``, which no placement matches, so
    every 2D node calls it again and is let through.
    """
    return [None] * len(rows)


def _patch_out_projection(monkeypatch):
    """Run the packing search with no projection check at the root or the nodes."""
    monkeypatch.setattr(oracles, "_x_projection_fits", _no_projection)
    monkeypatch.setattr(oracles, "_left_justified", lambda intervals, H: intervals)


@pytest.mark.parametrize("rotations", [False, True])
def test_x_projection_never_rejects_a_packable_probe(rotations, monkeypatch):
    # The projection may only cut probes the 2D search cannot pack, so the
    # answers with it and without it are the same placements. The DFF bound
    # is patched out, so that every probe reaches the projection's root.
    # Probes of four or more items get the meet-in-the-middle check at the
    # root instead; the verdicts record which check gave them.
    monkeypatch.setattr(oracles, "_dff_rejection", _no_dff_bound)
    rng = random.Random(41 + rotations)
    probes = [_random_probe(rng, W) for W in [6, 8] * 60 + [24] * 80]
    verdicts = []
    check = oracles._x_projection_fits

    def recording(rows, stacks, W, H, deadline, placed=()):
        got = check(rows, stacks, W, H, deadline, placed)
        if not placed:
            verdicts.append((len(rows) > 3, got is not None))
        return got

    monkeypatch.setattr(oracles, "_x_projection_fits", recording)
    with_check = [packing_feasible_exact(items, W, H, rotations) for items, W, H in probes]
    _patch_out_projection(monkeypatch)
    for (items, W, H), mine in zip(probes, with_check):
        assert mine == packing_feasible_exact(items, W, H, rotations), (items, W, H)
        if W <= 8 and H == W:
            assert (mine is None) == (packing_feasible_scan(items, W, H, rotations) is None)
    assert len(verdicts) == len(probes)
    assert any(mine is not None for mine in with_check)
    assert {(meet, v) for meet in (False, True) for v in (False, True)} <= set(verdicts)


@pytest.mark.parametrize("rotations", [False, True])
def test_node_projection_keeps_the_first_packing(rotations, monkeypatch):
    # Node checks cut only subtrees without a packing, so for up to six
    # items the first packing found is the one the search finds with no
    # projection check at all, at the root or at the nodes. Smaller sides
    # than the PAS probes leave room for dead ends below the root.
    rng = random.Random(7 + rotations)
    probes = [_random_probe(rng, W, 6, (5, 14)) for W in [24, 100] * 8]
    node_cuts = 0
    check = oracles._x_projection_fits

    def counting(rows, stacks, W, H, deadline, placed=()):
        nonlocal node_cuts
        got = check(rows, stacks, W, H, deadline, placed)
        node_cuts += bool(placed) and got is None
        return got

    monkeypatch.setattr(oracles, "_x_projection_fits", counting)
    mine = [packing_feasible_exact(items, W, H, rotations) for items, W, H in probes]
    _patch_out_projection(monkeypatch)
    assert mine == [packing_feasible_exact(items, W, H, rotations) for items, W, H in probes]
    assert node_cuts > 0 and any(p is not None for p in mine) and None in mine


def test_heavy_probe_is_cut_at_the_nodes(monkeypatch):
    # A 6-item probe the PAS meets on the gknap_n24 bench: the 2D search
    # alone reads the deadline 7602 times; the node checks leave a few
    # hundred reads and the same packing. Nodes that differ only in y share their
    # x-projection, and no x-projection is checked twice.
    items = [Item(12, 9), Item(10, 10), Item(10, 7), Item(9, 8), Item(9, 7), Item(11, 7)]
    checked = []
    check = oracles._x_projection_fits

    def recording(rows, stacks, W, H, deadline, placed=()):
        checked.append(tuple(placed))
        return check(rows, stacks, W, H, deadline, placed)

    monkeypatch.setattr(oracles, "_x_projection_fits", recording)
    reads = counting_clock(monkeypatch, oracles)
    got = oracles._packing_search(items, 24, 24, True, 3600.0)
    assert got == tuple(
        Placement(*p)
        for p in [(0, 0, 0, False), (1, 9, 14, False), (2, 12, 7, False),
                  (3, 0, 9, False), (4, 0, 17, False), (5, 12, 0, False)]
    )
    assert len(reads) <= 1000
    assert len(set(checked)) == len(checked) > 1


def test_search_that_follows_the_certificate_checks_once(monkeypatch):
    # The 2D search places both items where the root projection put them
    # (x = 0, stacked), so no node runs a projection of its own.
    calls = []
    check = oracles._x_projection_fits

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(oracles, "_x_projection_fits", counting)
    got = packing_feasible_exact([Item(5, 3), Item(4, 2)], 6, 6, rotations=False)
    assert got == (Placement(0, 0, 0, False), Placement(1, 0, 3, False))
    assert len(calls) == 1


def test_x_projection_rejects_before_the_2d_search(monkeypatch):
    # Area fits (0.89 of the board) but no packing exists. The y
    # coordinates are built only for a probe the projection passes, so a
    # probe rejected before the 2D search runs one normal-pattern pass, for
    # the x lists, on any board. On a square board the y lists are the x
    # lists, so a probe that passes runs one pass too; on another board it
    # runs a second, up to H. The DFF bound, which rejects this probe
    # first, is patched out.
    monkeypatch.setattr(oracles, "_dff_rejection", _no_dff_bound)
    items = [Item(412, 368), Item(431, 496), Item(342, 348), Item(540, 467), Item(354, 423)]
    calls = []
    normal_patterns = oracles._normal_patterns

    def counting(pairs, limit):
        calls.append(limit)
        return normal_patterns(pairs, limit)

    monkeypatch.setattr(oracles, "_normal_patterns", counting)
    assert packing_feasible_exact(items, 1000, 1000) is None
    assert calls == [1000]
    calls.clear()
    assert packing_feasible_exact(items, 1000, 1001) is None
    assert calls == [1000]
    calls.clear()
    assert packing_feasible_exact(items[:3], 1000, 1000) is not None
    assert calls == [1000]
    calls.clear()
    assert packing_feasible_exact(items[:3], 1000, 1001) is not None
    assert calls == [1000, 1001]


def _root_check_probe(rng):
    """An area-feasible probe of 4 to 7 items for the root checks.

    Half the boards have W from 5 to 8 and up to 7 items, the others W from
    9 to 1000 and up to 5 items; sides run from W // 5 to 3W // 4. H is W,
    W less or more a Fraction, or 2W, and a quarter of the probes repeat an
    item.
    """
    W = rng.choice([rng.randint(5, 8)] * 5 + [rng.randint(9, 30)] * 4 + [rng.randint(31, 1000)])
    m = rng.randint(4, 7 if W <= 8 else 5)
    H = rng.choice([W, W - Fraction(1, 3), W + Fraction(1, 2), 2 * W])
    lo, hi = max(1, W // 5), max(1, 3 * W // 4)
    while True:
        items = [Item(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(m)]
        if rng.random() < 0.25:
            items[-1] = items[0]
        if sum(it.w * it.h for it in items) <= W * H:
            return items, W, H, rng.random() < 0.5


def test_meet_in_the_middle_root_check_is_complete(monkeypatch):
    # The root check on meet-in-the-middle positions accepts exactly the
    # probes that the root search on normal patterns accepts, and its
    # assignment, left-justified, takes normal patterns under the search's
    # cuts and stays within H. On boards of side at most 8 with an integer
    # H, the probe's answer is the scan's. The DFF bound is patched out, so
    # that every probe reaches the root check.
    monkeypatch.setattr(oracles, "_dff_rejection", _no_dff_bound)
    rng = random.Random(89)
    seen = Counter()
    for trial in range(20000):
        items, W, H, rotations = _root_check_probe(rng)
        order = sorted(range(len(items)), key=lambda i: (-items[i].w * items[i].h, i))
        per_item = [oracles._orientations(items[i], rotations) for i in order]
        xs_all = oracles._normal_patterns([(items[i].w, items[i].h) for i in order], W)
        stacks = oracles._stack_table(per_item, H)
        rows = oracles._position_rows(per_item, xs_all, W, H)
        normal = oracles._x_projection_fits(rows, stacks, W, H, None)
        meet_rows = oracles._position_rows(per_item, xs_all, W, H, meet=True)
        meet = oracles._x_projection_fits(meet_rows, stacks, W, H, None)
        assert (meet is None) == (normal is None), trial
        if meet is not None:
            cert = oracles._left_justified(meet, H)
            for (x1, x2, h), row in zip(cert, rows):
                assert any((w, hh) == (x2 - x1, h) and x1 in xs for w, hh, _, xs, _ in row), trial
            assert all(sum(h for a, b, h in cert if a <= x < b) <= H for x, _, _ in cert), trial
            seen["moved"] += cert != meet
        if W <= 8 and H in (W, 2 * W) and trial % 32 == 0:
            mine = packing_feasible_exact(items, W, H, rotations)
            assert (mine is None) == (packing_feasible_scan(items, W, H, rotations) is None), trial
            seen["scanned"] += 1
        seen["none" if meet is None else "fits"] += 1
        seen[len(items)] += 1
    assert seen["none"] > 2000 and seen["fits"] > 2000 and seen["scanned"] > 120
    assert seen["moved"] > 500
    assert all(seen[m] > 1000 for m in range(4, 8))
