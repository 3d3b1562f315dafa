"""Acceptance suite: eleven numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Every tolerance is pinned here; corpora are seeded and
deterministic (see conftest fixtures).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import ceil

import pytest

from rectpas.generators import gen_gknap_packed, gen_misr
from rectpas.geometry import (
    Item,
    MisrInstance,
    Packing,
    normalize_instance,
    validate_misr_solution,
    validate_packing,
)
from rectpas.gknap import (
    build_visibility_graph,
    classify_items,
    free_strip,
    inflate_packing,
    pas_2dkr,
    prune_to_kernel,
    push_up,
)
from rectpas.hardness import (
    build_yes_packing,
    reduce_mss_to_2dkr,
    verify_interval_bounds,
)
from rectpas.misr import (
    build_G1,
    build_G2,
    build_grid,
    cells_spanned,
    crossing_lines,
    kernel_misr,
    pas_misr,
    structured_solution,
)
from rectpas.oracles import (
    OracleBudget,
    knapsack_exact,
    mis_rectangles_exact,
    mis_rectangles_scan,
    mss_enumerate,
    mss_exact,
    packing_feasible_exact,
    packing_feasible_scan,
)
from rectpas.planar import apply_separator, planarity_violations
from rectpas.svg import render_svg
from tests.conftest import GKNAP_BUDGET, MISR_BUDGET, chunky_gknap


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _oracle_knobs(inst, opt, epsilon=0.5):
    """Realized cap from the structured solution of the oracle optimum."""
    out = build_grid(inst, len(opt))
    if not out.is_grid:
        return 1
    grp = structured_solution(opt, out.grid, inst, epsilon)
    return max(grp.max_group, 1)


def test_criterion_1_grid_dichotomy():
    t0 = time.monotonic()
    failures = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(5, 41)
        f = gen_misr(n=n, seed=seed, span=14, max_side=9)
        inst = normalize_instance(f.instance)
        for k in range(2, 7):
            out = build_grid(inst, k)
            if out.is_grid:
                ok = len(out.grid.interior_v) <= k - 1 and len(out.grid.interior_h) <= k - 1
                for r in inst.rects:
                    vs, hs = crossing_lines(out.grid, r)
                    ok = ok and bool(vs) and bool(hs)
            else:
                ok = len(out.witness) == k and validate_misr_solution(inst, out.witness)
            failures += not ok
    elapsed = time.monotonic() - t0
    _report(
        1,
        failures == 0 and elapsed < 5.0,
        f"grid dichotomy certificates on 200 instances x k in 2..6, "
        f"{failures} failures, {elapsed:.1f}s (< 5s)",
    )


def test_criterion_2_embedding_planarity(misr_corpus10, gknap_corpus5):
    failures = 0
    checked_g = 0
    for seed, inst, opt in misr_corpus10:
        out = build_grid(inst, len(opt))
        if not out.is_grid:
            continue
        checked_g += 1
        g1 = build_G1(opt, out.grid, inst)
        if planarity_violations(g1):
            failures += 1
        div = apply_separator(g1.adjacency(), 0.25)
        g2 = build_G2(g1, div, out.grid, inst)
        if planarity_violations(g2):
            failures += 1
    checked_v = 0
    for seed, inst, subset, placements in gknap_corpus5:
        if not placements:
            continue
        packing = push_up(Packing(inst.N, placements), inst.items)
        cl = classify_items(inst, max(len(placements), 2), 0.5, reference=packing)
        gap = Fraction(inst.N, max(len(placements), 2) ** cl.B)
        vg = build_visibility_graph(packing, inst.items, gap)
        checked_v += 1
        if planarity_violations(vg):
            failures += 1
    _report(
        2,
        failures == 0 and checked_g >= 90 and checked_v >= 90,
        f"planarity of {checked_g} G1+G2 embeddings and {checked_v} visibility "
        f"drawings, {failures} failures",
    )


def test_criterion_3_structured_solution(misr_corpus6):
    structural_failures = 0
    kept_enough = 0
    usable = 0
    for seed, inst, opt in misr_corpus6:
        out = build_grid(inst, len(opt))
        if not out.is_grid:
            continue
        usable += 1
        grp = structured_solution(opt, out.grid, inst, 0.5)
        ok = grp.kept | grp.dropped == set(opt)
        ok = ok and grp.max_group <= grp.c1 * grp.c2
        owner = {}
        for gi, group in enumerate(grp.groups):
            for i in group:
                for cell in cells_spanned(out.grid, inst.rects[i]):
                    ok = ok and owner.setdefault(cell, gi) == gi
        structural_failures += not ok
        if len(grp.kept) >= (1 - 0.5) * len(opt):
            kept_enough += 1
    rate = kept_enough / usable if usable else 0.0
    _report(
        3,
        structural_failures == 0 and rate >= 0.95 and usable >= 90,
        f"grouping invariants on {usable} instances ({structural_failures} "
        f"failures); kept >= (1-eps)|R*| on {100 * rate:.0f}% (>= 95%)",
    )


def test_criterion_4_pas_misr(misr_corpus6):
    t0 = time.monotonic()
    failures = 0
    for seed, inst, opt in misr_corpus6:
        k = len(opt)
        c = _oracle_knobs(inst, opt)
        pos = pas_misr(inst, k, 0.5, c=c)
        ok = (
            pos.positive
            and validate_misr_solution(inst, pos.selected)
            and len(pos.selected) >= ceil(0.5 * k)
        )
        neg = pas_misr(inst, k + 1, 0.5, c=c)
        ok = ok and neg.opt_below_k and not neg.positive and len(opt) < k + 1
        failures += not ok
    elapsed = time.monotonic() - t0
    _report(
        4,
        failures == 0 and elapsed < 120.0,
        f"PAS on 100 instances: positive branch at k=OPT with size >= "
        f"ceil(k/2), true assertion at k=OPT+1; {failures} failures, "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_criterion_5_misr_kernel(misr_corpus6):
    failures = 0
    for seed, inst, opt in misr_corpus6:
        k = len(opt)
        c = _oracle_knobs(inst, opt)
        ker = kernel_misr(inst, k, 0.5, c=c)
        ok = ker.size <= c * k ** (4 * c)
        sub = MisrInstance(tuple(inst.rects[i] for i in ker.indices))
        sub_opt = mis_rectangles_exact(sub, MISR_BUDGET)
        ok = ok and len(sub_opt) >= ceil(0.5 * min(k, len(opt)))
        failures += not ok
    _report(
        5,
        failures == 0,
        f"kernel size bound and oracle optimum >= ceil((1-eps) min(k, OPT)) "
        f"on 100 instances, {failures} failures",
    )


def test_criterion_6_strip_freeing(packed_corpus50):
    freed = 0
    within_budget = 0
    accounting_failures = 0
    for inst, packing in packed_corpus50:
        k = packing.size
        res = free_strip(inst, packing, 0.5)
        rep = res.report
        limit = int(rep.strip_height)
        ok = validate_packing(res.packing, inst.items).ok
        ok = ok and all(pl.y >= limit for pl in res.packing.placements)
        freed += ok
        unique_hits = set()
        for hits in rep.deletion_casualties:
            unique_hits.update(hits)
        expected_loss = (
            len(rep.band_removed)
            + len(rep.separator_removed)
            + len(rep.path)
            + len(unique_hits)
        )
        per_rect_ok = all(len(hits) <= 4 for hits in rep.deletion_casualties)
        if rep.loss != expected_loss or not per_rect_ok:
            accounting_failures += 1
        if rep.loss <= ceil(0.5 * k):
            within_budget += 1
    rate = within_budget / len(packed_corpus50)
    _report(
        6,
        freed == 50 and accounting_failures == 0 and rate >= 0.90,
        f"strip freed on {freed}/50 packings, loss within ceil(eps k) on "
        f"{100 * rate:.0f}% (>= 90%), {accounting_failures} accounting failures",
    )


def test_criterion_7_inflation():
    failures = 0
    checked = 0
    seed = 0
    k_tilde = 4
    while checked < 100 and seed < 600:
        k = 4 + seed % 3
        f, packing = gen_gknap_packed(k=k, seed=seed, N=960, max_frac=6)
        seed += 1
        inst = f.instance
        pushed = push_up(packing, inst.items)
        if min(pl.y for pl in pushed.placements) < Fraction(inst.N, k_tilde):
            continue
        checked += 1
        try:
            out = inflate_packing(inst, pushed, k, k_tilde)
        except Exception:
            failures += 1
            continue
        unit = out.unit
        for ri in out.rounded:
            it = inst.items[ri.index]
            if not (0 <= ri.w_hat - it.w < unit and 0 <= ri.h_hat - it.h < unit):
                failures += 1
    _report(
        7,
        failures == 0 and checked == 100,
        f"inflation feasible with dimension increases in [0, unit) on "
        f"{checked} strip-avoiding packings, {failures} failures",
    )


def test_criterion_8_kernel_pruning_exactness():
    failures = 0
    for seed in range(100):
        inst = chunky_gknap(12, 5000 + seed)
        k_prime = 2 + seed % 3  # 2..4
        k_tilde = inst.N  # unit 1/k' keeps every integer size class exact
        ker = prune_to_kernel(inst, k_prime, k_tilde)
        sub = [inst.items[i] for i in ker.indices]
        H = Fraction(inst.N * (k_tilde - 1), k_tilde)
        full, _ = knapsack_exact(inst.items, inst.N, H, k_prime, True, GKNAP_BUDGET)
        pruned, _ = knapsack_exact(sub, inst.N, H, k_prime, True, GKNAP_BUDGET)
        failures += len(full) != len(pruned)
    _report(
        8,
        failures == 0,
        f"restricted-knapsack optimum preserved by pruning on 100 instances "
        f"(k' in 2..4), {failures} failures",
    )


def test_criterion_9_pas_2dkr(gknap_corpus5):
    t0 = time.monotonic()
    false_asserts = 0
    invalid = 0
    undersized = 0
    for seed, inst, subset, placements in gknap_corpus5:
        opt = len(subset)
        for k in range(1, opt + 2):
            res = pas_2dkr(inst, k, 0.5)
            if res.opt_below_k and opt >= k:
                false_asserts += 1
            if res.positive:
                if not validate_packing(res.packing, inst.items).ok:
                    invalid += 1
                if res.packing.size < ceil((1 - 0.5) * k):
                    undersized += 1
    elapsed = time.monotonic() - t0
    _report(
        9,
        false_asserts == 0 and invalid == 0 and undersized == 0 and elapsed < 300.0,
        f"PAS dichotomy on 100 instances (k up to OPT+1): {false_asserts} "
        f"false assertions, {invalid} invalid packings, {undersized} "
        f"undersized, {elapsed:.1f}s (< 300s)",
    )


def _yes_instances(count):
    out = []
    seed = 0
    while len(out) < count:
        rng = random.Random(7000 + seed)
        seed += 1
        ys = [rng.randrange(1, 12) for _ in range(4)]
        t = sum(ys)
        pool = set(ys)
        while len(pool) < rng.choice([4, 5]):
            pool.add(rng.randrange(1, t))
        xs = sorted(pool)[:5]
        if len(xs) < 4 or any(x >= t for x in xs) or t > 50:
            continue
        if mss_exact(xs, t, 4) is None:
            continue
        out.append((xs, t))
    return out


def _no_instances(count):
    out = []
    seed = 0
    while len(out) < count:
        rng = random.Random(9000 + seed)
        seed += 1
        m = rng.choice([4, 5])
        xs = sorted(rng.sample(range(2, 40, 2), m))  # all even
        t = rng.randrange(max(xs) + 1, 50) | 1  # odd target
        if t <= max(xs) or t > 50:
            continue
        if mss_exact(xs, t, 4) is not None:
            continue
        out.append((xs, t))
    return out


def test_criterion_10_hardness_forward():
    failures = 0
    for xs, t in _yes_instances(20):
        witness = mss_exact(xs, t, 4)
        red = reduce_mss_to_2dkr(xs, t, 4)
        packing = build_yes_packing(red, list(witness), xs)
        ok = packing.size == red.k_prime == 41
        ok = ok and validate_packing(packing, red.instance.items).ok
        ok = ok and verify_interval_bounds(red, packing).ok
        svg_text = render_svg(red.instance, packing=packing)
        ok = ok and svg_text.count('class="placed"') == 41
        failures += not ok
    for xs, t in _no_instances(20):
        ok = mss_exact(xs, t, 4) is None
        red = reduce_mss_to_2dkr(xs, t, 4)
        c = red.constants
        ok = ok and c.S == 16 * t and c.L == 16 * c.S
        ok = ok and c.N == 4 * c.L + 7 * c.S + 7 * t
        ok = ok and c.p == 12 and red.k_prime == 41
        roles = [red.roles[i][0] for i in range(red.instance.n)]
        ok = ok and roles.count("thin") == c.p and roles.count("flat") == c.p
        ok = ok and roles.count("bar") == 1
        ok = ok and roles.count("tile") == len(xs) * 16
        for i, role in red.roles.items():
            it = red.instance.items[i]
            if role[0] == "tile":
                x = xs[role[1]]
                ok = ok and it.h == c.L + c.S + x and it.w == c.L + c.S + 2 * t - x
        failures += not ok
    _report(
        10,
        failures == 0,
        f"forward reduction on 20 yes + 20 no instances (41 placements, "
        f"validation, interval bounds, 41 rendered shapes), {failures} failures",
    )


def test_criterion_11_oracle_self_consistency():
    failures = 0
    rng = random.Random(20250809)
    none_answers = 0
    for _ in range(10000):
        W, H = rng.randrange(2, 9), rng.randrange(2, 9)
        m = rng.randrange(1, 5)
        items = [Item(rng.randrange(1, W + 1), rng.randrange(1, H + 1)) for _ in range(m)]
        got = packing_feasible_exact(
            items, W, H, True, OracleBudget(max_items=6, max_solution_size=6)
        )
        if got is None:
            none_answers += 1
            if packing_feasible_scan(items, W, H, True) is not None:
                failures += 1

    mis_checked = 0
    for seed in range(60):
        rng2 = random.Random(seed)
        n = rng2.randrange(5, 13)
        rects = []
        for _ in range(n):
            x1, y1 = rng2.randrange(9), rng2.randrange(9)
            rects.append((x1, y1, x1 + rng2.randrange(1, 5), y1 + rng2.randrange(1, 5)))
        inst = normalize_instance(MisrInstance.from_coords(rects))
        mis_checked += 1
        if len(mis_rectangles_exact(inst, MISR_BUDGET)) != len(mis_rectangles_scan(inst)):
            failures += 1

    mss_checked = 0
    rng3 = random.Random(77)
    for _ in range(500):
        m = rng3.randrange(1, 6)
        xs = sorted(rng3.sample(range(1, 59), m))
        k = rng3.randrange(1, 5)
        t = rng3.randrange(1, 61)
        mss_checked += 1
        got = mss_exact(xs, t, k)
        ref = mss_enumerate(xs, t, k)
        if (got is None) != (ref is None):
            failures += 1
        elif got is not None and (len(got) != k or sum(got) != t):
            failures += 1
    _report(
        11,
        failures == 0,
        f"oracle referees agree: 10^4 packing cases ({none_answers} none "
        f"answers re-scanned), {mis_checked} MIS subset scans, {mss_checked} "
        f"multiset sweeps; {failures} failures",
    )
