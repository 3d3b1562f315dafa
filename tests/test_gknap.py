import gc
import hashlib
import random
from fractions import Fraction
from itertools import count
from math import ceil
from types import SimpleNamespace

import pytest

from rectpas.geometry import (
    GknapInstance,
    Item,
    Packing,
    Placement,
    validate_packing,
)
from rectpas.gknap import (
    build_visibility_graph,
    classify_items,
    default_k_floor,
    find_separating_path,
    free_strip,
    inflate_packing,
    kernel_2dkr,
    pas_2dkr,
    prune_to_kernel,
    push_up,
    rounded_dims,
    solve_restricted,
    theory_k_tilde,
)
from rectpas import oracles
from rectpas.oracles import BudgetExceededError, OracleBudget, knapsack_exact
from rectpas.planar import planarity_violations
from tests.conftest import GKNAP_BUDGET, chunky_gknap


def _packing(N, *triples):
    return Packing(N, tuple(Placement(i, x, y, rot) for i, (x, y, rot) in enumerate(triples)))


# ---------------------------------------------------------------------------
# Classification


def test_classify_full_height_items_always_large():
    inst = GknapInstance(100, (Item(100, 100), Item(100, 100)))
    for cl in classify_items(inst, 4, 0.5):
        assert cl.large == {0, 1}
        assert not cl.discarded and not cl.thin


def test_classify_unit_height_items_always_thin():
    N = 300000  # above k^(ceil(8/eps)+2) for k = 2
    inst = GknapInstance(N, (Item(5, 1), Item(9, 1)))
    for cl in classify_items(inst, 2, 0.5):
        assert cl.thin == {0, 1}, cl.B


def test_classify_partition():
    rng = random.Random(6)
    for _ in range(20):
        items = tuple(
            Item(w, random.Random(_).randrange(1, w + 1))
            for w in (rng.randrange(1, 1000) for _ in range(10))
        )
        inst = GknapInstance(1000, items)
        for cl in classify_items(inst, 3, 0.7):
            combined = cl.large | cl.thin | cl.discarded
            assert combined == set(range(10))
            assert not (cl.large & cl.thin) and not (cl.large & cl.discarded)


def test_classify_reference_minimizes_band():
    rng = random.Random(12)
    N = 6561 * 9  # 3^8 * 9 keeps every band threshold integral enough
    items = tuple(Item(N, max(1, N // 3**j)) for j in range(1, 9))
    inst = GknapInstance(N, items)
    packing = Packing(N, tuple(Placement(i, 0, 0) for i in range(8)))
    chosen = classify_items(inst, 3, 0.5, reference=packing)
    packed = set(range(8))
    per_b = classify_items(inst, 3, 0.5)
    best = min(len(cl.discarded & packed) for cl in per_b)
    assert len(chosen.discarded & packed) == best


def test_classify_rejects_non_canonical():
    inst = GknapInstance(10, (Item(2, 5),))
    with pytest.raises(ValueError):
        classify_items(inst, 4, 0.5)


# ---------------------------------------------------------------------------
# Visibility graph


def test_visibility_touching_stack():
    items = [Item(4, 2), Item(4, 2)]
    packing = _packing(10, (0, 0, False), (0, 2, False))
    vg = build_visibility_graph(packing, items, Fraction(3))
    witness = {(src, dst): seg for src, dst, seg in vg.edges}
    assert (0, 1) in witness and witness[(0, 1)].y1 == witness[(0, 1)].y2


def test_visibility_blocked_by_full_cover():
    # the blocker's open interior must strictly cover the overlap range
    items = [Item(4, 2), Item(4, 2), Item(12, 1)]
    packing = _packing(12, (2, 0, False), (2, 5, False), (0, 3, False))
    vg = build_visibility_graph(packing, items, Fraction(4))
    pairs = {(src, dst) for src, dst, _ in vg.edges}
    assert (0, 1) not in pairs  # the wide middle item blocks every x
    assert (0, 2) in pairs and (2, 1) in pairs


def test_visibility_gap_bound():
    items = [Item(4, 2), Item(4, 2)]
    packing = _packing(20, (0, 0, False), (0, 10, False))
    vg = build_visibility_graph(packing, items, Fraction(3))
    assert not vg.edges


def test_visibility_witnesses_validate():
    rng = random.Random(3)
    for seed in range(10):
        from rectpas.generators import gen_gknap_packed

        f, packing = gen_gknap_packed(k=8, seed=seed, N=5000, max_frac=8)
        items = f.instance.items
        gap = Fraction(5000, 8)
        vg = build_visibility_graph(packing, items, gap)
        boxes = [pl.box(items[pl.item]) for pl in packing.placements]
        for s, d, seg in vg.edges:
            src, dst = boxes[s], boxes[d]
            assert seg.x1 == seg.x2 and (seg.y1, seg.y2) == (src[3], dst[1])
            assert 0 <= seg.y2 - seg.y1 <= gap
            assert src[0] < seg.x1 < src[2] and dst[0] < seg.x1 < dst[2]
            for v, box in enumerate(boxes):
                if v in (s, d):
                    continue
                blocked = box[0] < seg.x1 < box[2] and not (
                    box[3] <= src[3] or box[1] >= dst[1]
                )
                assert not blocked, (seed, s, d)
        assert not planarity_violations(vg)
        assert vg.validate_drawing_anchors()


# ---------------------------------------------------------------------------
# Push-up and separating path


def test_push_up_single_item():
    items = [Item(3, 2)]
    out = push_up(_packing(10, (4, 1, False)), items)
    assert out.placements[0].y == 8


def test_push_up_stack_flush():
    items = [Item(10, 3), Item(10, 4)]
    out = push_up(_packing(10, (0, 0, False), (0, 5, False)), items)
    tops = sorted(pl.y + pl.dims(items[pl.item])[1] for pl in out.placements)
    assert tops == [6, 10]  # upper flush at N, lower flush beneath it


def test_push_up_fixpoint_and_monotone():
    rng = random.Random(14)
    from rectpas.generators import gen_gknap_packed

    for seed in range(8):
        f, packing = gen_gknap_packed(k=7, seed=seed, N=2000, max_frac=7)
        items = f.instance.items
        pushed = push_up(packing, items)
        assert validate_packing(pushed, items).ok
        for before, after in zip(packing.placements, pushed.placements):
            assert after.y >= before.y
            assert after.x == before.x
        again = push_up(pushed, items)
        assert again.placements == pushed.placements


def test_push_up_keeps_top_item():
    items = [Item(2, 2)]
    packing = _packing(6, (1, 4, False))
    assert push_up(packing, items).placements == packing.placements


def test_separating_path_absent_without_strip_item():
    items = [Item(4, 2)]
    packing = _packing(10, (0, 8, False))
    vg = build_visibility_graph(packing, items, Fraction(2))
    assert find_separating_path(vg, packing.N, Fraction(2)) is None


def test_separating_path_single_full_height_item():
    items = [Item(2, 10)]
    packing = _packing(10, (3, 0, False))
    vg = build_visibility_graph(packing, items, Fraction(2))
    assert find_separating_path(vg, packing.N, Fraction(2)) == (0,)


def test_separating_path_chain():
    items = [Item(4, 4), Item(4, 3), Item(4, 3)]
    packing = _packing(10, (2, 0, False), (2, 4, False), (2, 7, False))
    vg = build_visibility_graph(packing, items, Fraction(1))
    path = find_separating_path(vg, packing.N, Fraction(1))
    assert path == (0, 1, 2)


# ---------------------------------------------------------------------------
# Strip freeing


def test_free_strip_thin_branch():
    N = 10**6
    k = 8
    # every item is thin for every band, so the stack branch fires
    items = tuple(Item(N // 2, 1) for _ in range(k))
    placements = tuple(Placement(i, 0, 10 * i, False) for i in range(k))
    inst = GknapInstance(N, items)
    res = free_strip(inst, Packing(N, placements), 0.5)
    assert res.report.branch == "thin-stack"
    assert res.report.loss == 0
    assert res.packing.size == k


def test_free_strip_push_up_branch():
    from rectpas.generators import gen_gknap_packed

    f, packing = gen_gknap_packed(k=9, seed=5, N=10**6, max_frac=12)
    res = free_strip(f.instance, packing, 0.5)
    rep = res.report
    assert rep.branch == "push-up"
    assert all(pl.y >= rep.strip_height for pl in res.packing.placements)
    # losses come from the discarded band and the separator step only
    assert rep.loss == len(rep.band_removed) + len(rep.separator_removed)
    assert not rep.path and not rep.deletion_casualties


def test_free_strip_column_forces_path_branch():
    from rectpas.generators import gen_gknap_packed

    f, packing = gen_gknap_packed(k=10, seed=99, N=10**6, max_frac=12, column=8)
    res = free_strip(f.instance, packing, 0.5)
    rep = res.report
    assert rep.branch == "separating-path"
    assert rep.path
    K = len(rep.path)
    assert len(rep.deletion_casualties) == K + 1
    assert all(len(hit) <= 4 for hit in rep.deletion_casualties)
    unique_casualties = set().union(*rep.deletion_casualties) if rep.deletion_casualties else set()
    assert rep.loss <= len(rep.band_removed) + len(rep.separator_removed) + K + len(unique_casualties)
    assert validate_packing(res.packing, f.instance.items).ok


def test_free_strip_deletion_box_between_path_items():
    # In units of N/64 (gap N/8 = 8 units, strip 1 unit): a lies on the
    # floor, pushed up against c; the path a -> b crosses a 5-unit gap at the
    # witness x = 24, the midpoint of a and b's shared projection [18, 30].
    # Its deletion box [16, 24] x [10, 15] catches d, which starts at y = 14,
    # and misses c, which ends at x = 9.
    u = 100
    N = 64 * u
    large = [
        (Item(40 * u, 10 * u), 0, 0, False),  # a: [0, 40] x [0, 10]
        (Item(49 * u, 12 * u), 18 * u, 15 * u, True),  # b: [18, 30] x [15, 64]
        (Item(54 * u, 9 * u), 0, 10 * u, True),  # c: [0, 9] x [10, 64]
        (Item(50 * u, 9 * u), 9 * u, 14 * u, True),  # d: [9, 18] x [14, 64]
    ]
    thin = [(Item(20 * u, 10), 40 * u, 10 * y, False) for y in range(4)]
    rows = large + thin
    inst = GknapInstance(N, tuple(it for it, *_ in rows))
    packing = Packing(N, tuple(Placement(i, x, y, rot) for i, (_, x, y, rot) in enumerate(rows)))
    res = free_strip(inst, packing, 0.5)
    rep = res.report
    assert (rep.branch, rep.B, rep.strip_height) == ("separating-path", 1, u)
    assert rep.path == (0, 1)
    # the box between a and b, then the ones under a and above b
    assert rep.deletion_casualties == ((3,), (), ())
    assert sorted(pl.item for pl in res.packing.placements) == [2, 4, 5, 6, 7]


def test_free_strip_rejects_small_k():
    inst = GknapInstance(100, (Item(10, 10),))
    with pytest.raises(ValueError):
        free_strip(inst, Packing(100, (Placement(0, 0, 0),)), 0.5)
    assert default_k_floor(0.5) == 8


# sha256 of every free_strip report and output packing on packed_corpus50.
FREE_STRIP_DIGEST = "20a238369eed81bc87089ebb2c00df1ccea14b9733d8708716d54ab617d26207"


def test_free_strip_pinned_on_packed_corpus50(packed_corpus50):
    """Strip freeing gives the pinned output: 47 push-up and 3 separating-path cases."""
    rows = []
    for inst, packing in packed_corpus50:
        res = free_strip(inst, packing, 0.5)
        rep = res.report
        placements = sorted(
            (pl.item, str(Fraction(pl.x)), str(Fraction(pl.y)), pl.rotated)
            for pl in res.packing.placements
        )
        rows.append((
            rep.branch, rep.B, str(rep.strip_height), rep.band_removed, rep.separator_removed,
            rep.path, rep.deletion_casualties, placements,
        ))
    assert [r[0] for r in rows].count("push-up") == 47
    assert [r[0] for r in rows].count("separating-path") == 3
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == FREE_STRIP_DIGEST


# ---------------------------------------------------------------------------
# Inflation


def test_inflate_exact_multiples_unchanged():
    N = 1000
    inst = GknapInstance(N, (Item(200, 100), Item(300, 200)))
    packing = _packing(N, (0, 300, False), (400, 500, False))
    out = inflate_packing(inst, packing, 2, 5)  # unit 100
    assert out.placements == packing.placements
    assert out.rounded[0].h_hat == 100 and out.rounded[1].h_hat == 200


def test_inflate_single_item_ceiling():
    N = 1000
    inst = GknapInstance(N, (Item(400, 250),))
    packing = _packing(N, (0, 400, False))
    out = inflate_packing(inst, packing, 2, 5)
    assert out.rounded[0].h_hat == 300
    assert out.placements[0].y == 350  # extended downward by 50


def test_inflate_full_unit_drift_stays_inside():
    N = 1000
    k_prime, k_tilde = 4, 5
    unit = Fraction(N, k_prime * k_tilde)  # 50
    inst = GknapInstance(N, tuple(Item(150, 149) for _ in range(4)))
    placements = tuple(Placement(i, 0, 200 + 151 * i, False) for i in range(4))
    out = inflate_packing(inst, Packing(N, placements), k_prime, k_tilde)
    for ri in out.rounded:
        assert 0 < ri.h_hat - 149 < unit
    assert min(pl.y for pl in out.placements) >= 0


def test_inflate_respects_rotation_axis():
    N = 1000
    inst = GknapInstance(N, (Item(250, 100),))
    packing = _packing(N, (0, 400, True))  # placed vertical dimension is w=250
    out = inflate_packing(inst, packing, 2, 5)
    assert out.rounded[0].w_hat == 300
    assert out.placements[0].y == 350


def test_inflate_below_stays_below():
    rng = random.Random(10)
    from rectpas.generators import gen_gknap_packed

    for seed in range(6):
        f, packing = gen_gknap_packed(k=5, seed=seed, N=960, max_frac=6)
        items = f.instance.items
        pushed = push_up(packing, items)
        if min(pl.y for pl in pushed.placements) < Fraction(960, 4):
            continue
        out = inflate_packing(f.instance, pushed, 5, 4)
        before = {pl.item: pl for pl in pushed.placements}
        after = {pl.item: pl for pl in out.placements}
        heights_b = {pl.item: pl.dims(items[pl.item])[1] for pl in pushed.placements}
        rounded_h = {ri.index: (ri.w_hat if after[ri.index].rotated else ri.h_hat) for ri in out.rounded}
        for i in before:
            for j in before:
                if i == j:
                    continue
                if before[i].y + heights_b[i] <= before[j].y:
                    assert after[i].y + rounded_h[i] <= after[j].y


def test_inflate_preconditions():
    N = 100
    inst = GknapInstance(N, (Item(10, 10),))
    with pytest.raises(ValueError):
        inflate_packing(inst, _packing(N, (0, 0, False)), 1, 5)  # strip occupied
    inst2 = GknapInstance(N, (Item(10, 10), Item(10, 10)))
    packing = _packing(N, (0, 50, False), (40, 50, False))
    with pytest.raises(ValueError):
        inflate_packing(inst2, packing, 1, 5)  # more than k' items


# ---------------------------------------------------------------------------
# Kernel pruning and restricted enumeration


def test_prune_small_input_kept_whole():
    inst = GknapInstance(100, (Item(10, 5), Item(20, 7)))
    ker = prune_to_kernel(inst, 3, 100)
    assert ker.indices == (0, 1)


def test_prune_one_class_keeps_narrowest():
    # identical heights, increasing widths: the k' narrowest survive
    items = tuple(Item(10 + j, 10) for j in range(6))
    inst = GknapInstance(100, items)
    ker = prune_to_kernel(inst, 3, 100)
    # width classes are singletons, so every item survives through those;
    # the height class alone keeps 0, 1, 2
    by_height = [i for i in ker.indices if i < 3]
    assert by_height == [0, 1, 2]
    dup = GknapInstance(100, tuple(Item(10, 10) for _ in range(6)))
    ker2 = prune_to_kernel(dup, 3, 100)
    assert ker2.indices == (0, 1, 2)
    assert ker2.size <= 2 * 3 * 3 * 100


def test_prune_distinct_classes_keep_all():
    items = tuple(Item(10 * (j + 1), 5 * (j + 1)) for j in range(5))
    inst = GknapInstance(100, items)
    assert prune_to_kernel(inst, 1, 100).indices == (0, 1, 2, 3, 4)


def _prune_by_fractions(instance, k_prime, k_tilde):
    """The kernel with rounded sides computed as Fractions, class by class."""
    unit = Fraction(instance.N, k_prime * k_tilde)
    items = instance.items
    by_h, by_w = {}, {}
    for i, it in enumerate(items):
        by_h.setdefault(-(-it.h // unit) * unit, []).append(i)
        by_w.setdefault(-(-it.w // unit) * unit, []).append(i)
    keep = set()
    for cls in by_h.values():
        keep.update(sorted(cls, key=lambda i: (items[i].w, i))[:k_prime])
    for cls in by_w.values():
        keep.update(sorted(cls, key=lambda i: (items[i].h, i))[:k_prime])
    return tuple(sorted(keep)), unit


def test_integer_rounding_matches_fraction_rounding():
    rng = random.Random(16)
    for trial in range(120):
        N = rng.choice([24, 97, 1000, 10**6, rng.randrange(2, 5000)])
        items = tuple(
            Item(rng.randrange(1, N + 1), rng.randrange(1, N + 1)) for _ in range(rng.randrange(1, 25))
        )
        inst = GknapInstance(N, items)
        k = rng.randrange(2, 13)
        k_prime = rng.randrange(1, k + 1)
        eps = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        for k_tilde in (theory_k_tilde(k, eps), rng.randrange(1, 9)):
            ker = prune_to_kernel(inst, k_prime, k_tilde)
            indices, unit = _prune_by_fractions(inst, k_prime, k_tilde)
            assert ker.indices == indices, (trial, k_tilde)
            assert ker.params["unit"] == unit
            for it in items:
                assert rounded_dims(it, N, k_prime * k_tilde) == (
                    -(-it.w // unit) * unit,
                    -(-it.h // unit) * unit,
                )


def test_solve_restricted_single_item():
    inst = GknapInstance(10, (Item(7, 4),))
    res = solve_restricted(inst, 1, 10)
    assert res.feasible and res.packing.size == 1


def test_solve_restricted_two_full_squares():
    inst = GknapInstance(10, (Item(10, 10), Item(10, 10)))
    res = solve_restricted(inst, 2, 10)
    assert not res.feasible


def test_solve_restricted_limit(monkeypatch):
    inst = GknapInstance(10, tuple(Item(1, 1) for _ in range(8)))
    probes = []
    monkeypatch.setattr(oracles, "packing_feasible_exact", lambda *args: probes.append(args))
    with pytest.raises(BudgetExceededError, match="7 items exceed budget 6"):
        solve_restricted(inst, 7, 10, OracleBudget(max_solution_size=6))
    assert probes == []
    monkeypatch.undo()
    # The default budget allows probes of up to 8 items.
    res = pas_2dkr(inst, 8, Fraction(1, 8), k_tilde=10)
    assert res.metadata["k_prime"] == 7 and res.packing.size == 7


def test_solve_restricted_agrees_with_restricted_oracle():
    for seed in range(12):
        inst = chunky_gknap(8, seed)
        k_prime, k_tilde = 3, inst.N
        res = solve_restricted(inst, k_prime, k_tilde)
        H = inst.N * (k_tilde - 1) // k_tilde
        restricted_opt, _ = knapsack_exact(
            inst.items, inst.N, H, k_prime, True, GKNAP_BUDGET
        )
        if len(restricted_opt) >= k_prime:
            assert res.feasible, seed
        if not res.feasible:
            assert len(restricted_opt) < k_prime, seed
        if res.feasible:
            assert validate_packing(res.packing, inst.items).ok


# ---------------------------------------------------------------------------
# PAS driver and kernel


def test_pas_k1():
    inst = GknapInstance(10, (Item(4, 3),))
    res = pas_2dkr(inst, 1, 0.5)
    assert res.positive and res.packing.size == 1
    empty = GknapInstance(10, ())
    res2 = pas_2dkr(empty, 1, 0.5)
    assert res2.opt_below_k


def test_pas_unit_square_row():
    k = 6
    inst = GknapInstance(10, tuple(Item(1, 1) for _ in range(k)))
    res = pas_2dkr(inst, k, 0.5)
    assert res.positive
    assert res.packing.size >= ceil(0.5 * k)
    assert validate_packing(res.packing, inst.items).ok


def test_pas_two_item_instance_asserts_for_k4():
    inst = GknapInstance(10, (Item(3, 2), Item(4, 4)))
    res = pas_2dkr(inst, 4, 0.5)
    assert res.opt_below_k and not res.positive


def test_knapsack_and_pas_leave_no_cyclic_garbage(monkeypatch):
    """The packing search, its x-projection check and the subset
    enumeration drop their recursive closures when they end, so
    knapsack_exact and pas_2dkr leave nothing for the cyclic collector:
    on runs that finish, on a packable subset found with combinations left
    unvisited, and on runs stopped by their deadline at each of their 3rd to
    82nd clock reads, inside a probe or between two."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for seed in range(3):
            inst = chunky_gknap(12, seed)
            gc.collect()
            assert knapsack_exact(inst.items, inst.N, inst.N, 6, True, GKNAP_BUDGET)[0]
            assert gc.collect() == 0, seed
            for k in (8, 10, 12):
                pas_2dkr(inst, k, Fraction(1, 2))
                assert gc.collect() == 0, (seed, k)
        inst = chunky_gknap(12, 0)
        stopped = 0
        for limit in range(1, 81):  # the clock reads 0, 1, 2, ...: the run stops at read limit + 2
            ticks = count()
            monkeypatch.setattr(oracles, "time", SimpleNamespace(monotonic=ticks.__next__))
            budget = OracleBudget(max_items=14, max_solution_size=7, time_limit=limit)
            for run in (
                lambda: knapsack_exact(inst.items, inst.N, inst.N, 6, True, budget),
                lambda: pas_2dkr(inst, 10, Fraction(1, 2), budget=budget),
            ):
                try:  # no "as": a bound exception would hold this frame in a cycle
                    run()
                except BudgetExceededError:
                    stopped += 1
                assert gc.collect() == 0, limit
        assert stopped == 160
    finally:
        if was_enabled:
            gc.enable()


def test_theory_k_tilde():
    assert theory_k_tilde(2, 0.5) == 2**17
    with pytest.raises(ValueError):
        theory_k_tilde(0, 0.5)


def test_exact_epsilon_k_prime():
    # (1 - 0.7) * 10 is 3.0000000000000004 in floats; k' must be exactly 3.
    inst = GknapInstance(40, tuple(Item(5, 4) for _ in range(10)))
    for eps in (Fraction(7, 10), 0.7):
        res = pas_2dkr(inst, 10, eps, k_tilde=inst.N)
        assert res.metadata["k_prime"] == 3
        assert res.positive and res.packing.size == 3
        assert kernel_2dkr(inst, 10, eps, k_tilde=inst.N).params["k_prime"] == 3
    assert theory_k_tilde(2, Fraction(8, 9)) == 2**10  # ceil(8 / (8/9)) = 9
    assert default_k_floor(Fraction(1, 2)) == 8


def test_kernel_2dkr_duplicates():
    k = 4
    k_prime = ceil((1 - 0.5) * k)
    items = tuple(Item(9, 7) for _ in range(k_prime + 5))
    inst = GknapInstance(24, items)
    ker = kernel_2dkr(inst, k, 0.5)
    assert len(ker.indices) == k_prime


def test_kernel_2dkr_small_instance_all_kept():
    inst = chunky_gknap(6, 3)
    ker = kernel_2dkr(inst, 4, 0.5)
    assert len(ker.indices) == 6


def test_kernel_2dkr_preserves_capped_optimum():
    for seed in range(8):
        inst = chunky_gknap(10, seed)
        k_prime = 3
        ker = prune_to_kernel(inst, k_prime, inst.N)
        sub = [inst.items[i] for i in ker.indices]
        full_opt, _ = knapsack_exact(inst.items, inst.N, inst.N, k_prime, True, GKNAP_BUDGET)
        sub_opt, _ = knapsack_exact(sub, inst.N, inst.N, k_prime, True, GKNAP_BUDGET)
        assert len(full_opt) == len(sub_opt), seed
