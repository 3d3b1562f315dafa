"""Shared seeded corpora; everything is deterministic and cached per session."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from rectpas.generators import gen_gknap_packed, gen_misr
from rectpas.geometry import GknapInstance, Item, normalize_instance
from rectpas.oracles import OracleBudget, knapsack_exact, mis_rectangles_exact

MISR_BUDGET = OracleBudget(max_items=45, max_solution_size=12)
GKNAP_BUDGET = OracleBudget(max_items=14, max_solution_size=7)


def counting_clock(monkeypatch, module) -> list:
    """Replace ``module``'s clock by one that reads 0.0 and counts its reads."""
    reads = []
    monkeypatch.setattr(module, "time", SimpleNamespace(monotonic=lambda: reads.append(0.0) or 0.0))
    return reads


def chunky_gknap(n: int, seed: int, N: int = 24) -> GknapInstance:
    """Knapsack items big enough that only a handful fit (canonical w >= h)."""
    rng = random.Random(seed)
    items = []
    for _ in range(n):
        w = rng.randrange(9 * N // 24, max(10 * N // 24, 21 * N // 24))
        h = rng.randrange(7 * N // 24, w + 1)
        items.append(Item(min(w, N), min(h, N)))
    return GknapInstance(N, tuple(items))


@pytest.fixture(scope="session")
def misr_corpus6():
    """100 normalized instances (n = 25) whose exact optimum is at most 6."""
    corpus = []
    seed = 0
    while len(corpus) < 100:
        f = gen_misr(n=25, seed=seed, span=10, max_side=8)
        inst = normalize_instance(f.instance)
        opt = mis_rectangles_exact(inst, MISR_BUDGET)
        if 1 <= len(opt) <= 6:
            corpus.append((seed, inst, opt))
        seed += 1
        assert seed < 2000, "corpus generation runaway"
    return corpus


@pytest.fixture(scope="session")
def misr_corpus10():
    """100 normalized instances with exact optimum at most 10."""
    corpus = []
    seed = 0
    while len(corpus) < 100:
        f = gen_misr(n=22, seed=seed, span=16, max_side=9)
        inst = normalize_instance(f.instance)
        opt = mis_rectangles_exact(inst, MISR_BUDGET)
        if 1 <= len(opt) <= 10:
            corpus.append((seed, inst, opt))
        seed += 1
        assert seed < 2000, "corpus generation runaway"
    return corpus


@pytest.fixture(scope="session")
def gknap_corpus5():
    """100 chunky instances (n = 12, N = 24) with exact optimum at most 5.

    Each entry carries the oracle's optimal packing as well.
    """
    corpus = []
    seed = 0
    while len(corpus) < 100:
        inst = chunky_gknap(12, seed)
        subset, placements = knapsack_exact(
            inst.items, inst.N, inst.N, 6, True, GKNAP_BUDGET
        )
        if 1 <= len(subset) <= 5:
            corpus.append((seed, inst, subset, placements))
        seed += 1
        assert seed < 1000, "corpus generation runaway"
    return corpus


@pytest.fixture(scope="session")
def packed_corpus50():
    """50 known-feasible packings, k in [8, 12], N = 10^6, 3 columnar."""
    corpus = []
    for i in range(50):
        k = 8 + (i % 5)
        column = 8 if i >= 47 else 0
        f, packing = gen_gknap_packed(
            k=k, seed=1000 + i, N=10**6, max_frac=12, column=column
        )
        corpus.append((f.instance, packing))
    return corpus
