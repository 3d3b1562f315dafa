import gc
import hashlib
import random
import sys
import weakref
from fractions import Fraction
from itertools import combinations, groupby
from math import ceil
from pathlib import Path
from types import SimpleNamespace

import pytest

from rectpas import misr
from rectpas.generators import gen_misr
from rectpas.geometry import MisrInstance, normalize_instance, rects_disjoint, validate_misr_solution
from rectpas.misr import (
    Grid,
    build_G1,
    build_G2,
    build_grid,
    cell_index,
    cell_mask,
    cells_spanned,
    crossing_lines,
    kernel_misr,
    pas_misr,
    solve_cellset_subproblem,
    structured_solution,
    theory_cap,
)
from rectpas.oracles import (
    BudgetExceededError,
    CellSet,
    _block_cells,
    all_blocks,
    enumerate_cell_sets,
    mis_rectangles_exact,
)
from rectpas.planar import apply_separator, planarity_violations
from tests.conftest import MISR_BUDGET, counting_clock


def _inst(*coords):
    return normalize_instance(MisrInstance.from_coords(coords))


DIAGONAL3 = _inst((0, 0, 1, 1), (2, 2, 3, 3), (4, 4, 5, 5))
STACK2 = _inst((0, 0, 2, 1), (0, 2, 2, 3))


# ---------------------------------------------------------------------------
# Grid dichotomy


def test_grid_k1_returns_any_rectangle():
    out = build_grid(_inst((0, 0, 1, 1), (0, 0, 1, 1)), 1)
    assert not out.is_grid
    assert len(out.witness) == 1


def test_grid_sweep_witnesses():
    out = build_grid(DIAGONAL3, 3)
    assert not out.is_grid
    assert out.witness == (0, 1, 2)
    assert validate_misr_solution(DIAGONAL3, out.witness)


def test_grid_sweep_lines():
    out = build_grid(DIAGONAL3, 4)
    assert out.is_grid
    assert out.grid.interior_v == (1, 5, 9)
    assert out.grid.interior_h == (1, 5, 9)
    for r in DIAGONAL3.rects:
        vs, hs = crossing_lines(out.grid, r)
        assert vs and hs


def test_grid_requires_normalization():
    raw = MisrInstance.from_coords([(10, 10, 50, 50)])
    with pytest.raises(ValueError):
        build_grid(raw, 2)
    with pytest.raises(ValueError):
        build_grid(_inst((0, 0, 1, 1)), 0)


def test_grid_dichotomy_certificates():
    rng = random.Random(1)
    for trial in range(60):
        n = rng.randrange(1, 15)
        rects = []
        for _ in range(n):
            x1, y1 = rng.randrange(10), rng.randrange(10)
            rects.append((x1, y1, x1 + rng.randrange(1, 5), y1 + rng.randrange(1, 5)))
        inst = _inst(*rects)
        for k in range(1, 7):
            out = build_grid(inst, k)
            if out.is_grid:
                assert len(out.grid.interior_v) <= k - 1
                assert len(out.grid.interior_h) <= k - 1
                for r in inst.rects:
                    vs, hs = crossing_lines(out.grid, r)
                    assert vs and hs
            else:
                assert len(out.witness) == k
                assert validate_misr_solution(inst, out.witness)


def test_grid_corner_properties():
    rng = random.Random(8)
    for trial in range(30):
        rects = []
        for _ in range(10):
            x1, y1 = rng.randrange(8), rng.randrange(8)
            rects.append((x1, y1, x1 + rng.randrange(1, 4), y1 + rng.randrange(1, 4)))
        inst = _inst(*rects)
        out = build_grid(inst, 6)
        if not out.is_grid:
            continue
        for r in inst.rects:
            vs, hs = crossing_lines(out.grid, r)
            assert vs and hs  # contains the corner (vs[0], hs[0])
            for cell in cells_spanned(out.grid, r):
                b = out.grid.cell_box(*cell)
                assert any(
                    2 * r.x1 < cx < 2 * r.x2 and 2 * r.y1 < cy < 2 * r.y2
                    for cx in (b.x1, b.x2)
                    for cy in (b.y1, b.y2)
                )


def test_grid_cells_counts_and_lookup():
    out = build_grid(STACK2, 3)
    assert out.is_grid
    g = out.grid
    assert g.n_cols == len(g.v_lines) - 1
    assert g.n_rows == len(g.h_lines) - 1
    # boundary point belongs to every adjacent cell
    x, y = g.v_lines[1], g.h_lines[1]
    around = [(c, r) for c in (0, 1) for r in (0, 1) if g.cell_box(c, r).contains(x, y)]
    assert len(around) >= 2
    with pytest.raises(IndexError):
        g.cell_box(g.n_cols, 0)
    with pytest.raises(IndexError):
        g.cell_box(0, -1)
    single = _inst((0, 0, 1, 1))
    out1 = build_grid(single, 2)
    assert (out1.grid.n_cols, out1.grid.n_rows) == (2, 2)


# ---------------------------------------------------------------------------
# G1 / G2


def test_g1_no_shared_cell_no_edge():
    out = build_grid(DIAGONAL3, 4)
    g1 = build_G1((0, 1, 2), out.grid, DIAGONAL3)
    pairs = {(u, v) for u, v, _ in g1.edges}
    assert (0, 2) not in pairs and (2, 0) not in pairs


def test_g1_bottomleft_topright_pair_has_no_edge():
    inst = _inst((0, 0, 1, 1), (2, 2, 3, 3))
    out = build_grid(inst, 3)
    assert out.is_grid
    g1 = build_G1((0, 1), out.grid, inst)
    assert not g1.edges  # the two rects share a cell via BL/TR corners only


def test_g1_shared_vertical_line_edge():
    out = build_grid(STACK2, 3)
    g1 = build_G1((0, 1), out.grid, STACK2)
    assert len(g1.edges) == 1
    _, _, seg = g1.edges[0]
    assert seg.x1 == seg.x2  # vertical witness on the shared line
    assert not planarity_violations(g1)
    assert g1.validate_drawing_anchors()


def test_g1_rejects_infeasible_solution():
    inst = _inst((0, 0, 2, 2), (1, 1, 3, 3))
    out = build_grid(inst, 3)
    if out.is_grid:
        with pytest.raises(ValueError):
            build_G1((0, 1), out.grid, inst)


def test_g2_single_component_no_edges():
    out = build_grid(STACK2, 3)
    g1 = build_G1((0, 1), out.grid, STACK2)
    div = apply_separator(g1.adjacency(), 0.5)
    g2 = build_G2(g1, div, out.grid, STACK2)
    if len(div.components) == 1:
        assert not g2.edges


def test_g2_bl_tr_edge_across_components():
    inst = _inst((0, 0, 1, 1), (2, 2, 3, 3))
    out = build_grid(inst, 3)
    g1 = build_G1((0, 1), out.grid, inst)
    div = apply_separator(g1.adjacency(), 0.5)
    assert len(div.components) == 2  # G1 is edgeless here
    g2 = build_G2(g1, div, out.grid, inst)
    assert len(g2.edges) == 1
    assert not planarity_violations(g2)
    assert g2.validate_drawing_anchors()


def test_g2_disjoint_components_edgeless():
    out = build_grid(DIAGONAL3, 4)
    g1 = build_G1((0, 2), out.grid, DIAGONAL3)
    div = apply_separator(g1.adjacency(), 0.5)
    g2 = build_G2(g1, div, out.grid, DIAGONAL3)
    assert not g2.edges


# ---------------------------------------------------------------------------
# Structured solution


def test_embeddings_planar_on_arbitrary_feasible_solutions(misr_corpus6):
    """Planarity is not limited to optimal solutions."""
    rng = random.Random(21)
    for seed, inst, opt in misr_corpus6[:15]:
        order = list(range(inst.n))
        rng.shuffle(order)
        greedy: list[int] = []
        for i in order:
            if all(rects_disjoint(inst.rects[i], inst.rects[j]) for j in greedy):
                greedy.append(i)
        out = build_grid(inst, max(len(greedy), 2))
        if not out.is_grid:
            continue
        g1 = build_G1(greedy, out.grid, inst)
        assert not planarity_violations(g1), seed
        assert g1.validate_drawing_anchors()
        div = apply_separator(g1.adjacency(), 0.25)
        g2 = build_G2(g1, div, out.grid, inst)
        assert not planarity_violations(g2), seed


def test_structured_single_rect():
    inst = _inst((0, 0, 1, 1))
    out = build_grid(inst, 2)
    grp = structured_solution((0,), out.grid, inst, 0.5)
    assert grp.groups == (frozenset({0}),)
    assert not grp.dropped


def test_structured_partition_and_cell_disjointness(misr_corpus6):
    for seed, inst, opt in misr_corpus6[:30]:
        out = build_grid(inst, len(opt))
        if not out.is_grid:
            continue
        grp = structured_solution(opt, out.grid, inst, 0.5)
        members = list(grp.kept)
        assert grp.kept | grp.dropped == set(opt)
        assert sum(len(g) for g in grp.groups) == len(grp.kept)
        assert grp.max_group <= grp.c1 * grp.c2
        cell_owner = {}
        for gi, group in enumerate(grp.groups):
            for i in group:
                for cell in cells_spanned(out.grid, inst.rects[i]):
                    owner = cell_owner.setdefault(cell, gi)
                    assert owner == gi, f"cell {cell} shared by groups {owner} and {gi}"


# (seed, OPT, max_group, c1, c2) of structured_solution on the benchmark's
# misr corpus, at k = OPT and eps = 1/2. The benchmark passes max_group as
# --cap-c, so a drift here changes its answers.
BENCH_GROUPINGS = (
    (0, 8, 8, 8, 1), (1, 8, 8, 8, 1), (2, 9, 5, 5, 1), (3, 7, 7, 7, 1),
    (4, 9, 9, 9, 1), (5, 9, 9, 8, 2), (6, 8, 7, 7, 1), (7, 9, 7, 5, 2),
    (8, 9, 9, 7, 2), (9, 10, 9, 5, 3), (10, 8, 6, 6, 1), (11, 11, 11, 11, 1),
    (12, 7, 5, 5, 1), (13, 8, 7, 7, 1),
)


def test_structured_solution_pinned_on_bench_corpus():
    got = []
    for seed, *_ in BENCH_GROUPINGS:
        inst = normalize_instance(gen_misr(n=22, seed=seed, span=16, max_side=9).instance)
        opt = mis_rectangles_exact(inst, MISR_BUDGET)
        out = build_grid(inst, len(opt))
        assert out.is_grid, seed
        grp = structured_solution(opt, out.grid, inst, Fraction(1, 2))
        assert not grp.dropped, seed
        got.append((seed, len(opt), grp.max_group, grp.c1, grp.c2))
    assert tuple(got) == BENCH_GROUPINGS


# sha256 of repr((seed, solution, eps, G1, G2, structured_solution)) over the
# cases of test_structure_graphs_pinned.
STRUCTURE_DIGEST = "117a98ffc6f6523827c887d962ff69e4fa10a98eb4850583ea6af64a8e5eb16a"


def test_structure_graphs_pinned(monkeypatch):
    """G1, G2 and the grouping, drawings included, on 360 seeded cases: per
    gen_misr instance with 4 to 28 rectangles whose grid exists, two greedy
    feasible solutions in random order, each at eps 1, 1/2 and 1/4. The grid
    is built at k = n; every k that gives a grid gives this one. The graphs
    are the ones structured_solution builds, recorded as it calls them."""
    built = []
    for name in ("build_G1", "build_G2"):
        real = getattr(misr, name)
        monkeypatch.setattr(misr, name, lambda *args, real=real: built.append(real(*args)) or built[-1])
    digest = hashlib.sha256()
    cases = 0
    for seed in range(60):
        rng = random.Random(seed)
        inst = normalize_instance(gen_misr(n=rng.randrange(4, 29), seed=seed, span=14, max_side=9).instance)
        out = build_grid(inst, inst.n)
        if not out.is_grid:
            continue
        for _ in range(2):
            order = list(range(inst.n))
            rng.shuffle(order)
            sol: list[int] = []
            for i in order:
                if all(rects_disjoint(inst.rects[i], inst.rects[j]) for j in sol):
                    sol.append(i)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                built.clear()
                grp = structured_solution(sol, out.grid, inst, eps)
                assert len(built) == 2
                digest.update(repr((seed, sol, eps, *built, grp)).encode())
                cases += 1
    assert cases == 360
    assert digest.hexdigest() == STRUCTURE_DIGEST


# ---------------------------------------------------------------------------
# Cell sets and subproblems


def test_enumerate_cell_sets_2x2_single_blocks():
    # force a 2x2 cell grid for the counting example
    g22 = Grid(v_lines=(0, 1, 2), h_lines=(0, 1, 2))
    family = list(enumerate_cell_sets(g22, 1))
    assert len(family) == 9
    singles = [cs for cs in family if len(cs.cells) == 1]
    assert len(singles) == 4


def test_enumerate_cell_sets_b2_matches_bruteforce():
    g22 = Grid(v_lines=(0, 1, 2), h_lines=(0, 1, 2))
    family = {cs.cells for cs in enumerate_cell_sets(g22, 2)}
    blocks = all_blocks(g22)
    expect = {_block_cells(b) for b in blocks}
    for b1, b2 in combinations(blocks, 2):
        expect.add(_block_cells(b1) | _block_cells(b2))
    assert family == expect


def test_enumerate_cell_sets_requires_budget():
    with pytest.raises(ValueError):
        list(enumerate_cell_sets(Grid((0, 1), (0, 1)), 0))


def test_cellset_signature_invariant():
    with pytest.raises(ValueError):
        CellSet(frozenset({(0, 0)}), ((0, 0, 1, 1),))


def _rects(mask):
    """A rectangle mask, as capped MIS and set packing carry it, as the
    ascending tuple of its rectangle indices."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_subproblem_empty_cells():
    out = build_grid(DIAGONAL3, 4)
    assert _rects(solve_cellset_subproblem(cell_index(DIAGONAL3, out.grid), cell_mask(out.grid, ()), 3)) == ()


def test_subproblem_disjoint_and_conflicting():
    out = build_grid(DIAGONAL3, 4)
    every = frozenset(
        (c, r)
        for c in range(out.grid.n_cols)
        for r in range(out.grid.n_rows)
    )
    assert _rects(solve_cellset_subproblem(cell_index(DIAGONAL3, out.grid), cell_mask(out.grid, every), 3)) == (0, 1, 2)
    clique = _inst((0, 0, 4, 4), (1, 1, 5, 5), (2, 2, 6, 6))
    outc = build_grid(clique, 4)
    if outc.is_grid:
        allc = frozenset(
            (c, r) for c in range(outc.grid.n_cols) for r in range(outc.grid.n_rows)
        )
        sol = solve_cellset_subproblem(cell_index(clique, outc.grid), cell_mask(outc.grid, allc), 3)
        assert len(_rects(sol)) == 1


def _referee_index(inst, grid):
    """Span, shares and conflict masks built straight from the geometry."""
    cells = [set(cells_spanned(grid, r)) for r in inst.rects]
    spans = tuple(cell_mask(grid, c) for c in cells)
    shares = tuple(
        sum(1 << j for j, b in enumerate(cells) if j != i and a & b) for i, a in enumerate(cells)
    )
    conflict = tuple(
        sum(1 << j for j, b in enumerate(inst.rects) if not rects_disjoint(a, b)) for a in inst.rects
    )
    return spans, shares, conflict


def _capped_mis_referee(spans, conflict, cells, cap):
    """Include-first search over the rectangles inside the cells, in index
    order: a best is kept only on a strict gain, the search stops once the
    best reaches cap, and a branch is cut when the chosen rectangles plus
    all unblocked later ones cannot beat the best."""
    inside = sum(1 << i for i, span in enumerate(spans) if not span & ~cells)
    best: list[int] = []
    chosen: list[int] = []

    def rec(avail):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen[:]
            if len(best) >= cap:
                return True
        while avail and len(chosen) + avail.bit_count() > len(best):
            low = avail & -avail
            avail ^= low
            v = low.bit_length() - 1
            chosen.append(v)
            if rec(avail & ~conflict[v]):
                return True
            chosen.pop()
        return False

    if cap > 0:
        rec(inside)
    return tuple(best)


def test_capped_mis_matches_include_first_search():
    """300 seeded instances, each with the empty cell set, every cell and
    random cell sets, at every cap from 0 to n + 1 (above the optimum) in a
    shuffled order, so later calls read memo entries earlier caps and cell
    sets left on the same index. The index itself matches the referee's."""
    rng = random.Random(11)
    checked = 0
    for seed in range(300):
        n = 2 + seed % 15
        inst = normalize_instance(
            gen_misr(n=n, seed=seed, span=rng.randrange(4, 17), max_side=rng.randrange(2, 9)).instance
        )
        grid = build_grid(inst, n + 1).grid  # n + 1 disjoint rectangles cannot exist
        spans, shares, conflict = _referee_index(inst, grid)
        index = cell_index(inst, grid)
        assert index == (spans, shares, conflict, {}), seed
        n_cells = grid.n_cols * grid.n_rows
        masks = [0, (1 << n_cells) - 1] + [
            rng.getrandbits(n_cells) | rng.getrandbits(n_cells) for _ in range(3)
        ]
        caps = list(range(n + 2))
        for cells in masks:
            rng.shuffle(caps)
            for cap in caps:
                got = _rects(solve_cellset_subproblem(index, cells, cap))
                assert got == _capped_mis_referee(spans, conflict, cells, cap), (seed, cells, cap)
                checked += 1
    assert checked == sum(5 * (2 + s % 15 + 2) for s in range(300))
    stack_grid = build_grid(STACK2, 3).grid
    assert cell_index(STACK2, stack_grid)[0] == tuple(
        cell_mask(stack_grid, cells_spanned(stack_grid, r)) for r in STACK2.rects
    )
    empty = MisrInstance(())
    assert cell_index(empty, build_grid(empty, 1).grid) == ((), (), (), {})


def test_inside_mask_matches_span_scan(monkeypatch):
    """The inside set a lone call builds, as a family of one footprint, is
    the one the per-rectangle span scan gives, on every footprint of the 14
    bench-shaped families at their realized caps and on random cell masks,
    some with bits above the widest span, and on the empty instance. With
    every conflict mask cleared and the cap at n, capped MIS answers the
    inside set itself."""
    footprints = []
    real = misr.solve_cellset_subproblem
    # growth still visits every footprint when each one solves to nothing
    monkeypatch.setattr(misr, "solve_cellset_subproblem", lambda _, cells, *rest: footprints.append(cells) or 0)
    rng = random.Random(12)
    checked = 0
    for seed in range(14):
        inst = normalize_instance(gen_misr(n=22, seed=seed, span=16, max_side=9).instance)
        opt = mis_rectangles_exact(inst, MISR_BUDGET)
        grid = build_grid(inst, len(opt)).grid
        cap = max(structured_solution(opt, grid, inst, Fraction(1, 2)).max_group, 1)
        index = cell_index(inst, grid)
        footprints.clear()
        misr._candidate_family(index, cap)
        spans, shares, _, _ = index
        width = max(spans).bit_length()
        assert width <= grid.n_cols * grid.n_rows
        masks = footprints + [rng.getrandbits(width) for _ in range(40)]
        masks += [rng.getrandbits(width + 9) | 1 << width + rng.randrange(9) for _ in range(40)]
        masks += [0, (1 << width) - 1, (1 << width + 5) - 1, 1 << width]
        unblocked = (spans, shares, (0,) * inst.n, {})
        for cells in masks:
            inside = tuple(i for i, span in enumerate(spans) if not span & ~cells)
            assert _rects(real(unblocked, cells, inst.n)) == inside, (seed, cells)
        checked += len(footprints)
    assert checked == 10273  # the footprints of the 14 families
    empty = MisrInstance(())
    index = cell_index(empty, build_grid(empty, 1).grid)
    assert index == ((), (), (), {})
    for cells in (0, 1, 0b1011):
        assert _rects(real(index, cells, 3)) == ()


def _masks_referee(spans, conflict, cells):
    """``inside | clustered << n`` by scans: a rectangle is inside when its
    span has no cell outside ``cells``, and clustered when it is inside
    and overlaps another inside rectangle."""
    inside = [i for i, span in enumerate(spans) if not span & ~cells]
    clustered = [i for i in inside if any(j != i and conflict[i] >> j & 1 for j in inside)]
    return sum(1 << i for i in inside) | sum(1 << len(spans) + i for i in clustered)


def test_footprint_masks_match_span_and_conflict_scans(monkeypatch):
    """The masks ``_footprint_masks`` builds for a whole family, as each
    footprint's solve receives them, are the span and conflict scans' on
    every footprint of the 14 bench-shaped families at their realized caps;
    so are they on seeded random families, some with cell bits above the
    widest span and some where the widest span reaches past every
    footprint, and on the empty family and the empty instance."""
    seen = []
    monkeypatch.setattr(
        misr, "solve_cellset_subproblem", lambda _, cells, cap, deadline, masks: seen.append((cells, masks)) or 0
    )
    checked = 0
    for seed in range(14):
        inst = normalize_instance(gen_misr(n=22, seed=seed, span=16, max_side=9).instance)
        opt = mis_rectangles_exact(inst, MISR_BUDGET)
        grid = build_grid(inst, len(opt)).grid
        cap = max(structured_solution(opt, grid, inst, Fraction(1, 2)).max_group, 1)
        spans, _, conflict = _referee_index(inst, grid)
        seen.clear()
        misr._solved_footprints(cell_index(inst, grid), cap)
        for cells, masks in seen:
            assert masks == _masks_referee(spans, conflict, cells), (seed, cells)
        checked += len(seen)
    assert checked == 10273  # the footprints of the 14 families
    rng = random.Random(29)
    beyond = 0
    for seed in range(60):
        n = 2 + seed % 20
        inst = normalize_instance(
            gen_misr(n=n, seed=seed, span=rng.randrange(4, 17), max_side=rng.randrange(2, 9)).instance
        )
        grid = build_grid(inst, n + 1).grid
        spans, _, conflict = _referee_index(inst, grid)
        index = cell_index(inst, grid)
        width = max(spans).bit_length()
        below = (1 << width - 1) - 1  # no footprint holds the widest span's top cell
        families = [
            [rng.getrandbits(width) | rng.getrandbits(width) for _ in range(rng.randrange(1, 30))],
            [rng.getrandbits(width + 9) | 1 << width + rng.randrange(9) for _ in range(rng.randrange(1, 30))],
            [(rng.getrandbits(width) | rng.getrandbits(width)) & below for _ in range(rng.randrange(1, 30))],
        ]
        for family in families:
            want = [_masks_referee(spans, conflict, cells) for cells in family]
            assert misr._footprint_masks(index, family) == want, (seed, family)
        # in the last family the widest span is inside no footprint, others are
        top = max(range(n), key=lambda i: spans[i])
        beyond += not any(masks >> top & 1 for masks in want) and any(want)
        assert misr._footprint_masks(index, []) == []
    assert beyond > 40, beyond
    empty = MisrInstance(())
    index = cell_index(empty, build_grid(empty, 1).grid)
    assert misr._footprint_masks(index, []) == []
    assert misr._footprint_masks(index, [0, 1, 0b1011]) == [0, 0, 0]


def test_capped_mis_memo_serves_every_cap():
    """Once every cap has been asked for on one cell set, asking again in
    the other order adds no memo entry and gives the same answers."""
    inst = normalize_instance(gen_misr(n=22, seed=5, span=16, max_side=9).instance)
    grid = build_grid(inst, 9).grid
    every = (1 << grid.n_cols * grid.n_rows) - 1
    index = cell_index(inst, grid)
    memo = index[3]
    down = [_rects(solve_cellset_subproblem(index, every, cap)) for cap in range(23, -1, -1)]
    size = len(memo)
    up = [_rects(solve_cellset_subproblem(index, every, cap)) for cap in range(24)]
    assert (up[::-1], len(memo)) == (down, size)
    assert [len(sol) for sol in up] == [min(cap, 9) for cap in range(24)]  # OPT is 9


def test_capped_mis_memo_size():
    """The memo's entry count is deterministic: a bench instance's family,
    whose 888 footprints leave 1748 entries. Under cap 2 or more they are
    the answers of the calls, of their clustered parts and of the conflict
    components of those, and the searches' own entries (2707 when every
    call is one search over its whole inside set)."""
    inst = normalize_instance(gen_misr(n=22, seed=5, span=16, max_side=9).instance)
    index = cell_index(inst, build_grid(inst, 9).grid)
    assert len(misr._candidate_family(index, 9).cells) == 888
    assert len(index[3]) == 1748


def _clusters(rng, n_clusters):
    """Seeded small instances side by side, each in its own x range (gen_misr
    keeps span=6 coordinates within 0..6), so no two clusters conflict and
    the whole set has n_clusters or more conflict components."""
    coords = []
    for j in range(n_clusters):
        part = gen_misr(n=rng.randrange(1, 7), seed=rng.randrange(10**6), span=6, max_side=4).instance
        coords += [(r.x1 + 8 * j, r.y1, r.x2 + 8 * j, r.y2) for r in part.rects]
    return _inst(*coords)


def test_capped_mis_per_component_matches_include_first_search(monkeypatch):
    """Instances of two to four conflict-free clusters, with every cell (an
    inside set of two or more conflict components) and a random cell set,
    at every cap from 0 to two above the sum of the component optima: the
    answer is the referee's whether the component answers are united
    (their sizes sum to at most the cap) or the call falls back to one
    search over the whole inside set (they sum to more), and both happen."""
    avails = []
    real = misr._capped_best
    monkeypatch.setattr(misr, "_capped_best", lambda avail, *rest: avails.append(avail) or real(avail, *rest))
    rng = random.Random(25)
    paths = {"union": 0, "fallback": 0}
    for _ in range(120):
        inst = _clusters(rng, rng.randrange(2, 5))
        grid = build_grid(inst, inst.n + 1).grid
        spans, _, conflict = _referee_index(inst, grid)
        n_cells = grid.n_cols * grid.n_rows
        for cells in ((1 << n_cells) - 1, rng.getrandbits(n_cells) | rng.getrandbits(n_cells)):
            inside = sum(1 << i for i, span in enumerate(spans) if not span & ~cells)
            alpha = len(_capped_mis_referee(spans, conflict, cells, inst.n))
            for cap in range(alpha + 3):
                avails.clear()
                got = _rects(solve_cellset_subproblem(cell_index(inst, grid), cells, cap))
                assert got == _capped_mis_referee(spans, conflict, cells, cap), (inst, cells, cap)
                if 2 <= cap < inside.bit_count():
                    paths["fallback" if inside in avails else "union"] += 1
    assert min(paths.values()) > 100, paths


def test_capped_mis_isolated_rectangles_match_include_first_search(monkeypatch):
    """An inside set of isolated rectangles only (each one its own
    component, answered without a search or a component memo entry), then
    seeded sets that mix isolated rectangles with overlapping clusters in
    shuffled index order, at every cap from 0 to two above the optimum, so
    most answers are capped below it: each is the referee's."""
    avails = []
    real = misr._capped_best
    monkeypatch.setattr(misr, "_capped_best", lambda avail, *rest: avails.append(avail) or real(avail, *rest))
    apart = _inst(*[(3 * i, i % 2, 3 * i + 2, i % 2 + 2) for i in range(6)])
    grid = build_grid(apart, apart.n + 1).grid
    spans, _, conflict = _referee_index(apart, grid)
    every = (1 << grid.n_cols * grid.n_rows) - 1
    for cap in range(9):
        index = cell_index(apart, grid)
        avails.clear()
        got = _rects(solve_cellset_subproblem(index, every, cap))
        assert got == _capped_mis_referee(spans, conflict, every, cap) == tuple(range(min(cap, 6))), cap
        if cap >= 6:  # the isolated answers are united: no search, one memo entry
            assert (avails, len(index[3])) == ([], 1), cap
        elif cap >= 2:  # they sum past the cap: one search over all six
            assert avails[0] == (1 << 6) - 1, cap
        else:
            assert (avails, index[3]) == ([], {}), cap
    rng = random.Random(28)
    isolated = 0
    for _ in range(80):
        coords = []
        for j in range(rng.randrange(3, 7)):
            if rng.random() < 0.5:
                coords.append((8 * j, 0, 8 * j + 3, 2))
            else:
                part = gen_misr(n=rng.randrange(2, 6), seed=rng.randrange(10**6), span=6, max_side=4).instance
                coords += [(r.x1 + 8 * j, r.y1, r.x2 + 8 * j, r.y2) for r in part.rects]
        rng.shuffle(coords)
        inst = _inst(*coords)
        grid = build_grid(inst, inst.n + 1).grid
        spans, _, conflict = _referee_index(inst, grid)
        n_cells = grid.n_cols * grid.n_rows
        for cells in ((1 << n_cells) - 1, rng.getrandbits(n_cells) | rng.getrandbits(n_cells)):
            inside = sum(1 << i for i, span in enumerate(spans) if not span & ~cells)
            isolated += sum(1 for i in range(inst.n) if inside >> i & 1 and conflict[i] & inside == 1 << i)
            alpha = len(_capped_mis_referee(spans, conflict, cells, inst.n))
            index = cell_index(inst, grid)
            for cap in range(alpha + 3):
                got = _rects(solve_cellset_subproblem(index, cells, cap))
                assert got == _capped_mis_referee(spans, conflict, cells, cap), (inst, cells, cap)
    assert isolated > 200, isolated


def test_capped_mis_clustered_part_matches_include_first_search(monkeypatch):
    """Seeded sets that mix isolated rectangles with overlapping clusters,
    each with a family of random cell sets, at every cap from 0 to two
    above the optimum: an answer from the family's ``_footprint_masks`` is
    the referee's and the one a lone call (masks of a family of one)
    gives, and the two calls leave equal memos. Past a memo miss on the
    call's own key, the clustered part is read from the memo, computed per
    component, or followed by a fallback search over the whole inside set,
    and all three happen."""
    calls = []
    for name in ("component", "capped"):
        real = getattr(misr, f"_{name}_best")
        monkeypatch.setattr(
            misr, f"_{name}_best", lambda avail, *rest, name=name, real=real: calls.append((name, avail)) or real(avail, *rest)
        )
    rng = random.Random(30)
    paths = {"hit": 0, "miss": 0, "fallback": 0}
    for _ in range(60):
        coords = []
        for j in range(rng.randrange(3, 7)):
            if rng.random() < 0.4:
                coords.append((8 * j, 0, 8 * j + 3, 2))
            else:
                part = gen_misr(n=rng.randrange(2, 6), seed=rng.randrange(10**6), span=6, max_side=4).instance
                coords += [(r.x1 + 8 * j, r.y1, r.x2 + 8 * j, r.y2) for r in part.rects]
        rng.shuffle(coords)
        inst = _inst(*coords)
        n = inst.n
        grid = build_grid(inst, n + 1).grid
        spans, _, conflict = _referee_index(inst, grid)
        n_cells = grid.n_cols * grid.n_rows
        family = [(1 << n_cells) - 1] + [rng.getrandbits(n_cells) | rng.getrandbits(n_cells) for _ in range(5)]
        lone, bulk = cell_index(inst, grid), cell_index(inst, grid)
        family_masks = misr._footprint_masks(bulk, family)
        memo = bulk[3]
        alpha = len(_capped_mis_referee(spans, conflict, family[0], n))
        for cap in range(alpha + 3):
            for cells, masks in zip(family, family_masks):
                want = _capped_mis_referee(spans, conflict, cells, cap)
                assert _rects(solve_cellset_subproblem(lone, cells, cap)) == want, (inst, cells, cap)
                inside, clustered = masks & (1 << n) - 1, masks >> n
                r = min(cap, inside.bit_count())
                cl_r = min(r, clustered.bit_count())
                fresh = r >= 2 and clustered and r << n | inside not in memo
                cl_known = cl_r << n | clustered in memo
                calls.clear()
                assert _rects(solve_cellset_subproblem(bulk, cells, cap, None, masks)) == want, (inst, cells, cap)
                if fresh:
                    paths["hit" if cl_known else "miss"] += 1
                    assert (calls[:1] == [("component", clustered)]) != cl_known, (inst, cells, cap)
                    if inside != clustered and ("capped", inside) in calls:
                        paths["fallback"] += 1
        assert lone[3] == memo
    assert min(paths.values()) > 200, paths


def test_capped_mis_component_calls_keep_their_cap():
    """A chain of 40 overlapping rectangles and one apart from it, at caps
    2 and 3, with room for cap + 10 frames above the caller: the chain's
    component call runs under the cap, not under its own size, which
    would recurse about 20 deep (its optimum)."""
    chain = [(2 * i, 0, 2 * i + 3, 1) for i in range(40)] + [(0, 5, 1, 6)]
    inst = _inst(*chain)
    grid = build_grid(inst, inst.n + 1).grid
    spans, _, conflict = _referee_index(inst, grid)
    every = (1 << grid.n_cols * grid.n_rows) - 1
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    for cap in (2, 3):
        index = cell_index(inst, grid)
        sys.setrecursionlimit(depth + cap + 10)
        try:
            got = solve_cellset_subproblem(index, every, cap)
        finally:
            sys.setrecursionlimit(limit)
        assert _rects(got) == _capped_mis_referee(spans, conflict, every, cap) == tuple(range(0, 2 * cap, 2))


def test_candidate_family_matches_referee_family(monkeypatch):
    """The 14 bench-shaped instances at their realized caps: the family is
    the one the include-first search builds, tuple for tuple, with values
    non-increasing and, within a value, the footprints in discovery order.
    The referee reads the geometry of the row being built, not the index
    it is handed."""
    rows = []
    for seed in range(14):
        inst = normalize_instance(gen_misr(n=22, seed=seed, span=16, max_side=9).instance)
        opt = mis_rectangles_exact(inst, MISR_BUDGET)
        grid = build_grid(inst, len(opt)).grid
        cap = max(structured_solution(opt, grid, inst, Fraction(1, 2)).max_group, 1)
        rows.append((inst, grid, cap, misr._candidate_family(cell_index(inst, grid), cap)))
    row_index = None

    def referee(index, cells, cap, deadline=None, masks=None):
        spans, _, conflict = row_index
        return sum(1 << i for i in _capped_mis_referee(spans, conflict, cells, cap))

    monkeypatch.setattr(misr, "solve_cellset_subproblem", referee)
    for inst, grid, cap, family in rows:
        row_index = _referee_index(inst, grid)
        assert family == misr._candidate_family(cell_index(inst, grid), cap)
        assert family.values == sorted(family.values, reverse=True)
        solved = misr._solved_footprints(cell_index(inst, grid), cap)
        # a stable sort keeps discovery order within a value
        assert family.cells == sorted(solved, key=lambda cells: -solved[cells].bit_count())
        assert family.solutions == [solved[cells] for cells in family.cells]


def test_candidate_family_is_three_parallel_lists():
    """The family's cell masks, solutions and values are lists of one
    length that pair each solved footprint with its solution and value,
    the solution's popcount. Set packing refuses values that are not in
    non-increasing order, and packs an empty family in one frame."""
    inst = normalize_instance(gen_misr(n=22, seed=5, span=16, max_side=9).instance)
    index = cell_index(inst, build_grid(inst, 9).grid)
    family = misr._candidate_family(index, 9)
    assert all(type(part) is list for part in family)
    assert len(family.cells) == len(family.solutions) == len(family.values) == 888
    assert family.values == [sol.bit_count() for sol in family.solutions]
    assert dict(zip(family.cells, family.solutions)) == misr._solved_footprints(index, 9)
    for values in (family.values[::-1], [1, 2], [2, 1, 2]):
        n = len(values)
        unsorted = misr._Family(family.cells[:n], family.solutions[:n], values)
        with pytest.raises(ValueError, match="non-increasing"):
            misr._max_disjoint_collection(unsorted, 9)
    assert misr._max_disjoint_collection(misr._Family([], [], []), 3) == (0, (), 1)


# sha256 of repr of the 14 lists of _solved_footprints items, in
# test_solved_footprints_pinned_on_bench_corpus.
FOOTPRINTS_DIGEST = "2bb5458f19e888aee55f4ff37318a4e864e39a950b9b4b15c550d4895050f0d4"


def test_solved_footprints_pinned_on_bench_corpus():
    """The footprint -> solution items of the 14 bench-shaped families at
    k = OPT and the realized cap, in discovery order: a change in growth's
    traversal order shows here even when the family's content does not."""
    rows = []
    for seed in range(14):
        inst = normalize_instance(gen_misr(n=22, seed=seed, span=16, max_side=9).instance)
        opt = mis_rectangles_exact(inst, MISR_BUDGET)
        grid = build_grid(inst, len(opt)).grid
        cap = max(structured_solution(opt, grid, inst, Fraction(1, 2)).max_group, 1)
        rows.append(list(misr._solved_footprints(cell_index(inst, grid), cap).items()))
    assert sum(map(len, rows)) == 10273
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == FOOTPRINTS_DIGEST


def test_capped_mis_reads_its_deadline_on_a_memo_miss():
    """Past its deadline a subproblem stops at its first memo miss; the
    memo keeps only finished entries, so the call then answers."""
    inst = normalize_instance(gen_misr(n=22, seed=5, span=16, max_side=9).instance)
    grid = build_grid(inst, 9).grid
    every = (1 << grid.n_cols * grid.n_rows) - 1
    index = cell_index(inst, grid)
    with pytest.raises(BudgetExceededError, match="time budget exceeded in capped MIS"):
        solve_cellset_subproblem(index, every, 9, float("-inf"))
    assert index[3] == {}
    spans, _, conflict = _referee_index(inst, grid)
    assert _rects(solve_cellset_subproblem(index, every, 9)) == _capped_mis_referee(spans, conflict, every, 9)


def test_family_growth_reads_its_deadline_at_every_frame(monkeypatch):
    """n identical rectangles at cap 1 take n growth frames, one footprint
    and no memo entry: a live deadline is read n + 1 times, and one that
    has passed stops growth at its first frame."""
    reads = counting_clock(monkeypatch, misr)
    for n in (1, 300):
        inst = _inst(*[(0, 0, 1, 1)] * n)
        index = cell_index(inst, build_grid(inst, 2).grid)
        family = misr._candidate_family(index, 1)
        assert [_rects(sol) for sol in family.solutions] == [(0,)]
        assert index[3] == {} and reads == []
        assert misr._candidate_family(index, 1, 1.0) == family
        assert len(reads) == n + 1
        reads.clear()
        with pytest.raises(BudgetExceededError, match="time budget exceeded in family growth"):
            misr._candidate_family(index, 1, -1.0)
        assert len(reads) == 1
        reads.clear()


def test_footprint_loop_reads_its_deadline_at_every_footprint(monkeypatch):
    """A deadline that passes while the first footprint is being solved
    stops the family at the second, naming the capped-MIS stage; one that
    passes while the family's masks are built stops it before the first."""
    inst = normalize_instance(gen_misr(n=22, seed=5, span=16, max_side=9).instance)
    index = cell_index(inst, build_grid(inst, 9).grid)
    now = [0.0]
    monkeypatch.setattr(misr, "time", SimpleNamespace(monotonic=lambda: now[0]))
    solved = []
    real = misr.solve_cellset_subproblem

    def solve(index, cells, cap, deadline=None, masks=None):
        solved.append(cells)
        now[0] = float("inf")  # growth is over: its frames read 0.0
        return real(index, cells, cap, None, masks)

    monkeypatch.setattr(misr, "solve_cellset_subproblem", solve)
    with pytest.raises(BudgetExceededError, match="time budget exceeded in capped MIS"):
        misr._candidate_family(index, 9, 1.0)
    assert len(solved) == 1
    solved.clear()
    now[0] = 0.0
    real_masks = misr._footprint_masks

    def footprint_masks(index, footprints):
        now[0] = float("inf")  # growth is over: its frames read 0.0
        return real_masks(index, footprints)

    monkeypatch.setattr(misr, "_footprint_masks", footprint_masks)
    with pytest.raises(BudgetExceededError, match="time budget exceeded in capped MIS"):
        misr._candidate_family(index, 9, 1.0)
    assert solved == []


def test_bit_columns_match_bit_loop():
    rng = random.Random(3)
    for width in range(1, 201):
        for n_rows in (1, 2, 7, 40):
            rows = [rng.getrandbits(width) for _ in range(n_rows)]
            expect = [sum(1 << p for p, row in enumerate(rows) if row >> j & 1) for j in range(width)]
            assert misr._bit_columns(rows, width) == expect, (width, n_rows)
        assert misr._bit_columns([0] * 5, width) == [0] * width
        assert misr._bit_columns([], width) == [0] * width
    assert misr._bit_columns([], 0) == []
    # set-packing size: one row per candidate, widths around a byte
    for width in (1, 7, 8, 9, 64, 65):
        rows = [rng.getrandbits(width) for _ in range(1400)]
        rows[-1] |= 1 << width - 1
        expect = [sum(1 << p for p, row in enumerate(rows) if row >> j & 1) for j in range(width)]
        assert misr._bit_columns(rows, width) == expect, width


def _tables_referee(columns):
    """Per 8 columns, entry x: the OR of the columns whose bit is set in x."""
    tables = []
    for base in range(0, len(columns), 8):
        table = []
        for x in range(256):
            entry = 0
            for j, col in enumerate(columns[base : base + 8]):
                if x >> j & 1:
                    entry |= col
            table.append(entry)
        tables.append(table)
    return tuple(tables)


def test_or_tables_match_bit_loop():
    """The byte tables set packing reads its ``hits`` from, against the
    columns ORed bit by bit, at column counts around a byte's 8."""
    rng = random.Random(5)
    for n_cols in (0, 1, 7, 8, 9, 37):
        for n_bits in (1, 22, 130):
            columns = [rng.getrandbits(n_bits) for _ in range(n_cols)]
            assert tuple(misr._or_tables(columns)) == _tables_referee(columns), (n_cols, n_bits)


# ---------------------------------------------------------------------------
# PAS and kernel


def test_pas_single_rect():
    inst = _inst((0, 0, 1, 1))
    res = pas_misr(inst, 1, 0.5)
    assert res.positive and res.selected == (0,)
    res2 = pas_misr(inst, 2, 0.5)
    assert not res2.positive and res2.opt_below_k


def test_pas_stack_pair():
    res = pas_misr(STACK2, 2, 0.5, c=2)
    assert res.positive and set(res.selected) == {0, 1}


def test_pas_theory_knobs_sound(misr_corpus6):
    """Under the theory knob defaults the negative branch never lies."""
    for seed, inst, opt in misr_corpus6[:25]:
        for k in range(1, len(opt) + 1):
            res = pas_misr(inst, k, 0.5)  # theory knob defaults
            assert res.positive, (seed, k, res.best_total)
            assert validate_misr_solution(inst, res.selected)
            assert len(res.selected) >= ceil(0.5 * k)


def test_pas_and_kernel_reject_a_cap_below_one():
    for c in (0, -1):
        with pytest.raises(ValueError, match="c must be positive"):
            pas_misr(DIAGONAL3, 4, 0.5, c=c)
        with pytest.raises(ValueError, match="c must be positive"):
            kernel_misr(DIAGONAL3, 3, 0.5, c=c)  # before the grid shortcut, too


def test_pas_and_kernel_reject_an_epsilon_outside_the_unit_interval():
    """Also when the cap is given, so that no theory cap is computed."""
    for eps in (7, 0, -1):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            pas_misr(DIAGONAL3, 4, eps, c=3)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            kernel_misr(DIAGONAL3, 4, eps, c=3)


def test_pas_and_kernel_keep_nothing_alive(monkeypatch):
    """The index and its memo belong to one run: once pas_misr or
    kernel_misr returns, its instance and grid can be collected."""
    grids = []

    def build(inst, k):
        out = build_grid(inst, k)
        grids.append(weakref.ref(out.grid))
        return out

    monkeypatch.setattr(misr, "build_grid", build)
    for run in (pas_misr, kernel_misr):
        inst = normalize_instance(gen_misr(n=22, seed=5, span=16, max_side=9).instance)
        dead_inst = weakref.ref(inst)
        run(inst, 9, Fraction(1, 2), c=2)  # OPT is 9: the grid branch
        del inst
        gc.collect()
        assert (dead_inst(), grids[-1]()) == (None, None), run.__name__
    assert len(grids) == 2


def test_capped_mis_leaves_no_cyclic_garbage():
    """A capped-MIS call builds no reference cycle, so its garbage goes
    with reference counts alone, and a kernel of 888 footprints leaves only
    its handful of per-run cycles for the cyclic collector."""
    inst = normalize_instance(gen_misr(n=22, seed=5, span=16, max_side=9).instance)
    grid = build_grid(inst, 9).grid
    every = (1 << grid.n_cols * grid.n_rows) - 1
    index = cell_index(inst, grid)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for cap in range(1, 12):
            solve_cellset_subproblem(index, every, cap)
            assert gc.collect() == 0, cap
        kernel_misr(inst, 9, Fraction(1, 2), c=9)
        assert gc.collect() < 50
    finally:
        if was_enabled:
            gc.enable()


def test_pas_and_kernel_leave_no_cyclic_garbage():
    """Family growth and set packing drop their recursive closures when
    they end, so a PAS run, one whose set packing overflows the stack
    included, a kernel run and growth stopped by its deadline leave nothing
    for the cyclic collector."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for seed, k in ((5, 9), (7, 9)):  # seed 7's set packing overflows
            inst = normalize_instance(gen_misr(n=22, seed=seed, span=16, max_side=9).instance)
            gc.collect()
            try:  # no "as": a bound exception would hold this frame in a cycle
                misr._solved_footprints(cell_index(inst, build_grid(inst, k).grid), 7, -1.0)
            except BudgetExceededError:
                pass
            else:
                raise AssertionError("growth ran past its deadline")
            assert gc.collect() == 0, seed
            try:
                assert pas_misr(inst, k, Fraction(1, 2), c=7).best_total == k
            except RecursionError:
                assert seed == 7
            else:
                assert seed == 5
            assert gc.collect() == 0, seed
            kernel_misr(inst, k, Fraction(1, 2), c=7)
            assert gc.collect() == 0, seed
    finally:
        if was_enabled:
            gc.enable()


def test_theory_knob_mapping():
    assert theory_cap(0.5) == 256
    assert theory_cap(Fraction(1, 2)) == 256
    assert theory_cap(0.7) == 18  # ceil((10/7)^8), read as 7/10
    with pytest.raises(ValueError):
        theory_cap(0)


def test_pas_epsilon_is_exact():
    res = pas_misr(DIAGONAL3, 10, 0.7, c=1)
    assert res.metadata["epsilon"] == Fraction(7, 10)
    assert 1 - res.metadata["epsilon"] == Fraction(3, 10)  # a float eps leaves 0.30000000000000004
    assert "float(" not in Path(misr.__file__).read_text()


def _cellset_referee(inst, grid, k, c, b):
    """Is there a packing of at most k cell-disjoint block unions worth >= k?

    The paper's family: every union of at most b blocks, scored by the
    capped subproblem solver. A union is dropped when a smaller kept union
    inside it is worth as much, since a packing can use that one instead;
    the rest are searched with an explicit stack.
    """
    sets = []
    index = cell_index(inst, grid)
    for cs in enumerate_cell_sets(grid, b):
        mask = cell_mask(grid, cs.cells)
        value = len(_rects(solve_cellset_subproblem(index, mask, c)))
        if value:
            sets.append((len(cs.cells), mask, value))
    kept = []
    for _, mask, value in sorted(sets):
        if not any(v >= value and m & ~mask == 0 for m, v in kept):
            kept.append((mask, value))
    stack = [(0, 0, 0, 0)]  # next union, cells used, total, picks
    while stack:
        start, used, total, picks = stack.pop()
        if total >= k:
            return True
        if picks < k:
            stack.extend(
                (j + 1, used | m, total + v, picks + 1)
                for j, (m, v) in enumerate(kept[start:], start)
                if not m & used
            )
    return False


def test_pas_decision_matches_block_union_family():
    """The grown family, which has no block budget, decides as the paper's
    family does for every budget b the referee is given, b < c included."""
    inst = normalize_instance(gen_misr(n=9, seed=8, span=10, max_side=7).instance)
    assert pas_misr(inst, 4, Fraction(1, 2), c=2).positive  # OPT is 6
    mismatches = []
    for n in range(6, 14):
        for seed in range(6):
            inst = normalize_instance(gen_misr(n=n, seed=seed, span=10, max_side=7).instance)
            for k in (3, 4):
                out = build_grid(inst, k)
                if not out.is_grid:
                    continue
                for c, b in ((2, 1), (3, 2), (2, 2), (3, 3)):
                    if (c, b) == (3, 3) and n > 9:
                        continue  # the referee alone takes about a minute at n = 10
                    got = pas_misr(inst, k, Fraction(1, 2), c=c).best_total >= k
                    if got != _cellset_referee(inst, out.grid, k, c, b):
                        mismatches.append((n, seed, k, c, b))
    assert not mismatches


# Bench-shaped instances (gen_misr(n=22, span=16, max_side=9)) with their
# optimum, the cap set-up computes from structured_solution, and per k the
# selected set (None on an assertion), best total and candidate count, then
# the kernel at k = OPT. Any change of traversal order shows here.
MISR_GOLDEN = [
    (2, 9, 5, {9: ((0, 1, 2, 4, 6, 9, 10, 14, 15), 9, 389), 10: (None, 9, 389)},
     (0, 1, 2, 3, 4, 6, 7, 9, 10, 12, 13, 14, 15)),
    (3, 7, 7, {7: ((2, 5, 12, 13, 14, 19, 20), 7, 393), 8: (None, 7, 393)},
     (0, 1, 2, 3, 5, 7, 8, 9, 12, 13, 14, 18, 19, 20, 21)),
    (9, 10, 9, {10: ((1, 2, 3, 7, 8, 11, 12, 13, 17, 21), 10, 376), 11: (None, 10, 376)},
     (0, 1, 2, 3, 5, 7, 8, 11, 12, 13, 16, 17, 21)),
]


@pytest.mark.parametrize(
    "seed,opt,cap,pas,kernel", MISR_GOLDEN, ids=[f"seed{row[0]}" for row in MISR_GOLDEN]
)
def test_misr_core_golden(seed, opt, cap, pas, kernel):
    inst = normalize_instance(gen_misr(n=22, seed=seed, span=16, max_side=9).instance)
    best = mis_rectangles_exact(inst, MISR_BUDGET)
    grid = build_grid(inst, len(best)).grid
    assert (len(best), structured_solution(best, grid, inst, Fraction(1, 2)).max_group) == (opt, cap)
    for k, expected in pas.items():
        res = pas_misr(inst, k, Fraction(1, 2), c=cap)
        assert (res.selected, res.best_total, res.metadata["candidates"]) == expected
    assert kernel_misr(inst, opt, Fraction(1, 2), c=cap).indices == kernel


def _family(pairs):
    """A ``misr._Family`` of (cell mask, solution mask) pairs, in their order."""
    return misr._Family([cells for cells, _ in pairs], [sol for _, sol in pairs], [sol.bit_count() for _, sol in pairs])


def _set_packing_referee(family, k):
    """Best total over every pairwise cell-disjoint choice of at most k
    candidates, then the lexicographically smallest sorted union."""
    cands = list(zip(*family))  # (cells, solution, value) per candidate
    best = (0, ())
    for size in range(1, min(k, len(cands)) + 1):
        for combo in combinations(cands, size):
            used = 0
            for cells, _, _ in combo:
                if cells & used:
                    break
                used |= cells
            else:
                total = sum(value for _, _, value in combo)
                union = tuple(sorted(i for _, sol, _ in combo for i in _rects(sol)))
                if total > best[0] or (total == best[0] and union < best[1]):
                    best = (total, union)
    return best


def test_set_packing_matches_bruteforce():
    """Random candidate lists with many value ties: the search returns the
    referee's total and, among equal totals, the smallest sorted union."""
    rng = random.Random(0)
    for _ in range(300):
        n_cells = rng.randrange(3, 10)
        pairs = []
        for _ in range(rng.randrange(13)):
            cells = rng.randrange(1, 1 << n_cells)
            # three rectangles per cell, so cell-disjoint candidates have
            # disjoint solutions, as capped subproblem solutions do
            inside = [3 * cell + j for cell in range(n_cells) if cells >> cell & 1 for j in range(3)]
            sol = sum(1 << i for i in rng.sample(inside, rng.randrange(1, 4)))
            pairs.append((cells, sol))
        pairs.sort(key=lambda pair: -pair[1].bit_count())  # ties keep their random order
        family = _family(pairs)
        k = rng.randrange(1, 6)
        total, sol, _ = misr._max_disjoint_collection(family, k)
        assert (total, sol) == _set_packing_referee(family, k), (family, k)


def test_set_packing_breaks_ties_by_sorted_union():
    """Two collections of total 2: {P1, P2} with union {1, 2}, found
    first, and {Q1, Q2} with union {0, 9}, which each meet both P's. As
    sorted tuples (0, 9) < (1, 2), though as ints 0b1000000001 > 0b110, so
    the tie-break must read the lowest bit of the XOR of the unions."""
    family = _family([
        (0b0011, 1 << 1),  # P1, cells 0 and 1
        (0b0101, 1 << 0),  # Q1, cells 0 and 2
        (0b1010, 1 << 9),  # Q2, cells 1 and 3
        (0b1100, 1 << 2),  # P2, cells 2 and 3
    ])
    total, union, _ = misr._max_disjoint_collection(family, 2)
    assert (total, union) == _set_packing_referee(family, 2) == (2, (0, 9))


def test_set_packing_reads_its_deadline_at_every_frame(monkeypatch):
    """n pairwise disjoint candidates take 2n + 1 frames: a live deadline
    is read at each of them, and one that has passed stops the search at
    its first frame."""
    reads = counting_clock(monkeypatch, misr)
    for n in (1, 128):
        family = _family([(1 << i, 1 << i) for i in range(n)])
        found = misr._max_disjoint_collection(family, n)
        assert found == (n, tuple(range(n)), 2 * n + 1) and reads == []
        assert misr._max_disjoint_collection(family, n, 1.0) == found
        assert len(reads) == 2 * n + 1
        reads.clear()
        with pytest.raises(BudgetExceededError, match="time budget exceeded in set packing"):
            misr._max_disjoint_collection(family, n, -1.0)
        assert len(reads) == 1
        reads.clear()


def test_set_packing_node_count():
    """The set-packing frame count is deterministic: one bench instance,
    with its family in value order, then discovery order."""
    inst = normalize_instance(gen_misr(n=22, seed=5, span=16, max_side=9).instance)
    res = pas_misr(inst, 9, Fraction(1, 2), c=9)  # 9 = OPT = the realized cap
    assert (res.best_total, res.metadata["candidates"]) == (9, 888)
    assert res.metadata["set_packing_nodes"] == 7959


# The 14 bench instances (gen_misr(n=22, seed, span=16, max_side=9)) with
# their optimum, realized cap, the set packing's (best total, union, frames)
# at k = OPT, which k = OPT + 1 repeats, and the kernel at k = OPT. None
# marks the two instances whose set packing overflows the stack.
SET_PACKING_PINS = [
    (0, 8, 8, (8, (0, 2, 3, 4, 5, 7, 14, 18), 3983),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 18, 19, 20)),
    (1, 8, 8, (8, (0, 2, 4, 5, 6, 8, 9, 11), 4399),
     (0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 21)),
    (2, 9, 5, (9, (0, 1, 2, 4, 6, 9, 10, 14, 15), 1823),
     (0, 1, 2, 3, 4, 6, 7, 9, 10, 12, 13, 14, 15)),
    (3, 7, 7, (7, (2, 5, 12, 13, 14, 19, 20), 1405),
     (0, 1, 2, 3, 5, 7, 8, 9, 12, 13, 14, 18, 19, 20, 21)),
    (4, 9, 9, (9, (1, 3, 5, 6, 8, 9, 15, 19, 20), 3943),
     (1, 3, 4, 5, 6, 7, 8, 9, 11, 12, 15, 16, 19, 20)),
    (5, 9, 9, (9, (2, 5, 6, 7, 8, 9, 14, 19, 21), 7959),
     (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 19, 20, 21)),
    (6, 8, 7, (8, (0, 1, 3, 4, 5, 11, 15, 20), 4767),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 20)),
    (7, 9, 7, None,
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 19)),
    (8, 9, 9, (9, (1, 3, 5, 6, 8, 10, 12, 13, 17), 6041),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 15, 17)),
    (9, 10, 9, (10, (1, 2, 3, 7, 8, 11, 12, 13, 17, 21), 6247),
     (0, 1, 2, 3, 5, 7, 8, 11, 12, 13, 16, 17, 21)),
    (10, 8, 6, (8, (1, 2, 4, 5, 16, 17, 18, 19), 1923),
     (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 14, 15, 16, 17, 18, 19)),
    (11, 11, 11, None,
     (1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 14, 15, 16, 17, 18, 20)),
    (12, 7, 5, (7, (4, 5, 7, 8, 9, 11, 15), 2283),
     (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 15, 16, 19)),
    (13, 8, 7, (8, (0, 1, 4, 6, 7, 12, 18, 19), 5029),
     (0, 1, 2, 3, 4, 5, 6, 7, 10, 12, 14, 18, 19, 20, 21)),
]


def test_set_packing_and_kernel_pinned_on_bench_corpus():
    """Set packing over each bench family, grown on the grid of k as
    pas_misr grows it, and the kernel, against the pinned values."""
    for seed, opt, cap, packing, kernel in SET_PACKING_PINS:
        inst = normalize_instance(gen_misr(n=22, seed=seed, span=16, max_side=9).instance)
        best = mis_rectangles_exact(inst, MISR_BUDGET)
        grid = build_grid(inst, opt).grid
        assert (len(best), structured_solution(best, grid, inst, Fraction(1, 2)).max_group) == (opt, cap)
        assert kernel_misr(inst, opt, Fraction(1, 2), c=cap).indices == kernel, seed
        if packing is None:
            continue
        for k in (opt, opt + 1):
            family = misr._candidate_family(cell_index(inst, build_grid(inst, k).grid), cap)
            assert misr._max_disjoint_collection(family, k) == packing, (seed, k)


def _shuffled_within_values(family, rng):
    """The family with its positions shuffled inside each run of one value."""
    order = []
    for _, run in groupby(range(len(family.values)), family.values.__getitem__):
        run = list(run)
        rng.shuffle(run)
        order += run
    return misr._Family([family.cells[p] for p in order], [family.solutions[p] for p in order], family.values)


def test_set_packing_answer_does_not_depend_on_order_within_a_value():
    """Shuffling the candidates inside each value leaves set packing's
    (total, union) as it is, under four seeds: on the 12 bench families
    that complete, at k = OPT and OPT + 1, against their pinned answers,
    and on gen_misr(32, seed, 24) families at c = 2, 3 and k = 3 (where
    the pick limit binds and totals tie often) and k = OPT. The search
    prunes only below the best total and breaks ties by the union, so only
    its frame count may move."""
    cases = []
    for seed, opt, cap, packing, _ in SET_PACKING_PINS:
        if packing is None:
            continue
        inst = normalize_instance(gen_misr(n=22, seed=seed, span=16, max_side=9).instance)
        for k in (opt, opt + 1):
            family = misr._candidate_family(cell_index(inst, build_grid(inst, k).grid), cap)
            cases.append((family, k, packing[:2]))
    for seed in range(4):
        inst = normalize_instance(gen_misr(32, seed, 24).instance)
        opt = len(mis_rectangles_exact(inst, MISR_BUDGET))
        for c in (2, 3):
            family = misr._candidate_family(cell_index(inst, build_grid(inst, opt).grid), c)
            for k in (3, opt):
                cases.append((family, k, misr._max_disjoint_collection(family, k)[:2]))
    assert len(cases) == 40
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 1000)  # a shuffle may deepen the skip chain
    try:
        for shuffle_seed in range(4):
            rng = random.Random(shuffle_seed)
            for family, k, answer in cases:
                shuffled = _shuffled_within_values(family, rng)
                assert misr._max_disjoint_collection(shuffled, k)[:2] == answer, (shuffle_seed, k)
    finally:
        sys.setrecursionlimit(limit)


# sha256 of repr of the kernel indices in test_kernel_pinned_on_a_large_family,
# as the code before the family's masks were built in bulk gave them.
LARGE_KERNEL_DIGEST = "607f79870c986baff14406a6a0083d7d6cbe412960212cab485ed277f8ce7839"


def test_kernel_pinned_on_a_large_family():
    """gen_misr(80, 1, 30) at k = 19 and c = 5 grows 31,558 candidates, 40
    times a bench family's, and its kernel is the pinned one."""
    inst = normalize_instance(gen_misr(80, 1, 30).instance)
    report = kernel_misr(inst, 19, Fraction(1, 2), 5)
    assert (report.params["candidates"], report.size) == (31558, 43)
    assert hashlib.sha256(repr(report.indices).encode()).hexdigest() == LARGE_KERNEL_DIGEST


def test_kernel_grid_shortcut():
    out = build_grid(DIAGONAL3, 3)
    assert not out.is_grid
    ker = kernel_misr(DIAGONAL3, 3, 0.5)
    assert set(ker.indices) == {0, 1, 2}
    assert ker.params["grid_shortcut"] is True


def test_kernel_tiny_instance_preserves_optimum():
    rng = random.Random(4)
    for _ in range(10):
        rects = []
        for _ in range(8):
            x1, y1 = rng.randrange(6), rng.randrange(6)
            rects.append((x1, y1, x1 + rng.randrange(1, 4), y1 + rng.randrange(1, 4)))
        inst = _inst(*rects)
        opt = mis_rectangles_exact(inst, MISR_BUDGET)
        k = len(opt)
        ker = kernel_misr(inst, k, 0.5, c=max(k, 1))
        sub = MisrInstance(tuple(inst.rects[i] for i in ker.indices))
        sub_opt = mis_rectangles_exact(sub, MISR_BUDGET)
        assert len(sub_opt) == k
