"""Seeded end-to-end benchmark of the rectpas command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload misr --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35

Each operation is one in-process ``rectpas.cli.cli_dispatch([...])`` call on
instance files generated here from ``--seed``. The load is a closed loop:
one client, no threads, the next operation starts when the previous one has
returned. Only the call itself is timed; its output file is read back,
checked and folded into an answer digest outside the timed window.

Every run first does whole passes over the workload's operations and stops
before a pass that would end after ``--seconds``; the first pass always
runs, because the digest covers exactly one pass. ``--trace 1`` instead
runs one pass in which every operation runs once untraced and once with
the layer entry points wrapped (see ``spans.py``), and reports per-layer
totals for that pass. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported at a fixed reference speed of the host. On a shared
host the speed drifts by up to 1.6x over minutes, for the fastest
executions too, so a plain wall-clock figure of the same code moves by a
third from run to run. Each timed stretch is therefore bracketed by a fixed
pure-Python loop (``reference_loop``), and every wall time in it is divided
by the mean of the loop times just before and just after it. A time in
``ms`` or ``s`` is that ratio times ``REFERENCE_LOOP_S``, the loop's
nominal time: the wall time on a host that runs the loop in exactly that
long. A change to the program moves these figures as it moves wall time; a
drift of the host's speed moves them only as far as the program feels it
differently from the loop. Set-up time is mostly file writes, which the
loop does not track, so ``setup_s`` keeps more of the drift.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from pathlib import Path
from typing import Any, Callable, Optional

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EPS = Fraction(1, 2)
EPS_ARG = "0.5"
SETUP_REPEATS = 21
# Nominal time of reference_loop: about its median on the machine named in
# baseline.json. It only sets the scale of the reported times.
REFERENCE_LOOP_S = 0.001
REFERENCE_REPEATS = 4
# Short ops run back to back until they took this long; see burst().
BURST_S = 0.05
# Exact MIS for the set-up optimum and the kernel check, as in the tests.
MISR_ORACLE_ITEMS, MISR_ORACLE_SIZE = 45, 12
GKNAP_EXACT_K = 6


def reference_loop() -> int:
    """A fixed piece of pure-Python work, the yardstick of the host's speed."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(2000):
        key = (i * 7919) % 251
        pair = (key, i & 15)
        table[pair] = table.get(pair, 0) + 1
        acc += key * key % 13 if key & 1 else len(table)
    return acc + len(sorted(table.values()))


def reference_time() -> float:
    """Mean wall time of a few reference loops."""
    t0 = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        reference_loop()
    return (time.perf_counter() - t0) / REFERENCE_REPEATS


def at_reference_speed(call: Callable[[], Any]) -> tuple[Any, float]:
    """``call()``, and the factor that takes a wall time during it to the
    reference speed: ``REFERENCE_LOOP_S`` over the mean time of the
    reference loops run just before and just after the call."""
    gc.collect()  # start every timed stretch from the same collector state
    before = reference_time()
    result = call()
    after = reference_time()
    return result, REFERENCE_LOOP_S / ((before + after) / 2)


class SourceTreeMissing(RuntimeError):
    """The checkout holds no ``src/rectpas`` to benchmark."""


def load_rectpas() -> dict[str, Any]:
    """Import the program from this checkout's source tree, nowhere else."""
    if not (SRC / "rectpas" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no rectpas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {
        name: importlib.import_module(f"rectpas.{name}")
        for name in ("cli", "fileio", "generators", "geometry", "gknap", "misr", "oracles")
    }
    if Path(mods["cli"].__file__).resolve().parents[1] != SRC:
        raise SourceTreeMissing(f"rectpas was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    """A fixed pool of generator seeds; ``--seed`` sets the order.

    The pool is the first ``instances`` consecutive generator seeds, with no
    filtering on outcome. ``--seed`` shuffles the order in which the
    instances are run and is written into each instance file, so the files,
    their hashes and the op indices in the digest change with it, but not
    the work the solvers do. Fresh instances per seed, or the same ones
    with their rectangles or items permuted, make the totals swing: a
    permutation moves the first feasible subset of the exact packing
    search, and one gknap_n24 pool took 16 to 51 s across three
    permutations.
    """

    name: str
    problem: str  # "misr" | "gknap"
    instances: int
    N: int = 0  # gknap square side
    n: int = 0  # gknap item count
    pas_ks: tuple[int, ...] = ()
    why: str = ""


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "misr", "misr", 14,
            why="14 gen_misr(n=22, span=16, max_side=9) instances, PAS at k=OPT and OPT+1, kernel at OPT: "
            "capped MIS, family growth and set packing do the work; set packing overflows the stack",
        ),
        Workload(
            "gknap_n24", "gknap", 12, N=24, n=12, pas_ks=(8, 9, 10, 11, 12),
            why="12 chunky instances (n=12, N=24), 2dkr-exact k=6, PAS k'=4..6, kernel: the exact "
            "packing search does the work, MISR code does none",
        ),
        Workload(
            "gknap_wide", "gknap", 12, N=10**6, n=9, pas_ks=(6, 7, 8, 9),
            why="12 chunky instances (n=9, N=10^6): the same packing search over many distinct "
            "coordinates, about 10x the cost per probe of gknap_n24",
        ),
    )
}


def chunky_gknap_items(n: int, seed: int, N: int) -> list[tuple[int, int]]:
    """The tests' chunky knapsack shape: items big enough that few fit."""
    rng = random.Random(seed)
    items = []
    for _ in range(n):
        w = rng.randrange(9 * N // 24, max(10 * N // 24, 21 * N // 24))
        h = rng.randrange(7 * N // 24, w + 1)
        items.append((min(w, N), min(h, N)))
    return items


@dataclass
class Instance:
    path: Path
    hash: str
    data: Any  # MisrInstance or GknapInstance, as written to the file
    normalized: Any = None  # misr only
    opt: Optional[int] = None  # misr: exact optimum from set-up
    cap: Optional[int] = None  # misr: realized group cap of the optimum
    exact: Optional[int] = None  # gknap: size found by the 2dkr-exact op
    exact_asserted: bool = False


@dataclass
class Op:
    index: int
    kind: str  # misr-pas | misr-kernel | 2dkr-exact | 2dkr-pas | 2dkr-kernel
    inst: Instance
    k: int
    argv: list[str]


def prepare(rp: dict[str, Any], wl: Workload, seed: int, workdir: Path) -> list[Op]:
    """Generate and write the instances, then list the operations.

    For MISR this includes the exact optimum and the realized group cap of
    ``structured_solution`` on it, which the operations take as ``--cap-c``.
    """
    fileio, geometry, misr, oracles = rp["fileio"], rp["geometry"], rp["misr"], rp["oracles"]
    workdir.mkdir(parents=True, exist_ok=True)
    out = str(workdir / "out.json")
    ops: list[Op] = []

    def add(kind: str, inst: Instance, k: int, args: list[str]) -> None:
        argv = args[:2] + [str(inst.path), "--k", str(k)] + args[2:] + ["--out", out]
        ops.append(Op(len(ops), kind, inst, k, argv))

    order = list(range(wl.instances))
    random.Random(seed).shuffle(order)
    for j in order:
        if wl.problem == "misr":
            base = rp["generators"].gen_misr(n=22, seed=j, span=16, max_side=9)
            f = fileio.InstanceFile("misr", base.instance, dict(base.metadata, bench_seed=seed))
        else:
            items = tuple(geometry.Item(w, h) for w, h in chunky_gknap_items(wl.n, j, wl.N))
            meta = {"generator": "chunky", "seed": j, "bench_seed": seed}
            f = fileio.InstanceFile("gknap", geometry.GknapInstance(wl.N, items), meta)
        inst = Instance(fileio.save(f, workdir / f"inst{j}.json"), f.hash, f.instance)
        if wl.problem == "misr":
            norm = geometry.normalize_instance(f.instance)
            budget = oracles.OracleBudget(max_items=MISR_ORACLE_ITEMS, max_solution_size=MISR_ORACLE_SIZE)
            opt = oracles.mis_rectangles_exact(norm, budget)
            grid = misr.build_grid(norm, len(opt))
            cap = 1
            if grid.is_grid:
                cap = max(misr.structured_solution(opt, grid.grid, norm, EPS).max_group, 1)
            inst.normalized, inst.opt, inst.cap = norm, len(opt), cap
            knobs = ["--eps", EPS_ARG, "--cap-c", str(cap)]
            add("misr-pas", inst, inst.opt, ["solve", "misr-pas"] + knobs)
            add("misr-pas", inst, inst.opt + 1, ["solve", "misr-pas"] + knobs)
            add("misr-kernel", inst, inst.opt, ["kernel", "misr"] + knobs)
        else:
            add("2dkr-exact", inst, GKNAP_EXACT_K, ["solve", "2dkr-exact"])
            for k in wl.pas_ks:
                add("2dkr-pas", inst, k, ["solve", "2dkr-pas", "--eps", EPS_ARG])
            add("2dkr-kernel", inst, wl.pas_ks[0], ["kernel", "2dkr", "--eps", EPS_ARG])
    return ops


# ---------------------------------------------------------------------------
# Running and checking one operation


@dataclass
class Outcome:
    elapsed: float
    code: Optional[int]  # exit code, None when an exception escaped
    error: str = ""

    @property
    def completed(self) -> bool:
        return self.code in (0, 2)


def execute(cli, op: Op) -> Outcome:
    """One timed CLI call; stdout and stderr are kept off the terminal."""
    out = Path(op.argv[op.argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = cli.cli_dispatch(op.argv)
        except Exception as exc:  # an escaped exception is a failed op
            return Outcome(time.perf_counter() - t0, None, type(exc).__name__)
        elapsed = time.perf_counter() - t0
    return Outcome(elapsed, code, "" if code in (0, 2) else f"exit {code}")


class CheckFailed(Exception):
    pass


def _require(ok: bool, op: Op, what: str) -> None:
    if not ok:
        raise CheckFailed(f"op {op.index} ({' '.join(op.argv[:2])} k={op.k}): {what}")


def _open_overlap(a, b) -> bool:
    return a.x1 < b.x2 and b.x1 < a.x2 and a.y1 < b.y2 and b.y1 < a.y2


def read_answer(rp: dict[str, Any], op: Op, outcome: Outcome) -> tuple[str, list]:
    """The answer in the output file, checked against the instance."""
    out = Path(op.argv[op.argv.index("--out") + 1])
    payload = json.loads(out.read_text())
    _require(payload.get("instance_hash") == op.inst.hash, op, "instance hash mismatch")
    status = "asserted" if outcome.code == 2 else "solved"
    need = ceil((1 - EPS) * op.k)
    inst = op.inst
    if op.kind == "misr-pas":
        sel = sorted(payload["selected"])
        rects = inst.data.rects
        if status == "asserted":
            _require(inst.opt < op.k, op, f"asserted OPT < {op.k} but OPT = {inst.opt}")
            return status, sel
        _require(len(set(sel)) == len(sel) and all(0 <= i < len(rects) for i in sel), op, "bad indices")
        _require(len(sel) >= need, op, f"{len(sel)} rectangles, need {need}")
        _require(
            not any(_open_overlap(rects[a], rects[b]) for x, a in enumerate(sel) for b in sel[x + 1:]),
            op, "selected rectangles overlap",
        )
        return status, sel
    if op.kind.endswith("-kernel"):
        idx = payload["indices"]
        size = len(inst.data.rects) if op.kind == "misr-kernel" else len(inst.data.items)
        _require(idx == sorted(set(idx)) and all(0 <= i < size for i in idx), op, "bad kernel indices")
        if op.kind == "misr-kernel":
            sub = rp["geometry"].MisrInstance(tuple(inst.data.rects[i] for i in idx))
            budget = rp["oracles"].OracleBudget(max_items=MISR_ORACLE_ITEMS, max_solution_size=MISR_ORACLE_SIZE)
            sub_opt = len(rp["oracles"].mis_rectangles_exact(sub, budget))
            bound = ceil((1 - EPS) * min(op.k, inst.opt))
            _require(sub_opt >= bound, op, f"kernel optimum {sub_opt} < {bound}")
        return status, idx
    geometry = rp["geometry"]
    placements = sorted(payload["placements"])
    packing = geometry.Packing(
        int(payload["N"]), tuple(geometry.Placement(int(i), x, y, bool(r)) for i, x, y, r in placements)
    )
    _require(packing.N == inst.data.N, op, "packing for another square")
    _require(geometry.validate_packing(packing, inst.data.items).ok, op, "invalid packing")
    size = packing.size
    if op.kind == "2dkr-exact":
        _require(size == op.k if status == "solved" else size < op.k, op, f"exact packing of {size}")
        inst.exact, inst.exact_asserted = size, status == "asserted"
        return status, placements
    if status == "solved":
        _require(size == need, op, f"packing of {size} items, expected k' = {need}")
        _require(
            not (inst.exact_asserted and size > inst.exact), op,
            f"packs {size} items but 2dkr-exact found OPT = {inst.exact}",
        )
    else:
        _require(size == 0, op, "assertion with a packing")
        _require(
            inst.exact is None or inst.exact < op.k, op,
            f"asserted OPT < {op.k} but 2dkr-exact packed {inst.exact}",
        )
    return status, placements


@dataclass
class Ledger:
    """Answers of the first pass, the digest over them, and every failure."""

    rp: dict[str, Any]
    answers: dict[int, tuple[str, list]] = field(default_factory=dict)
    check_failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failure_kinds: Counter = field(default_factory=Counter)
    _digest: Any = field(default_factory=hashlib.sha256)

    def record(self, op: Op, outcome: Outcome) -> bool:
        """Check one execution; False when it counts as a failed op."""
        self.attempted += 1
        first = op.index not in self.answers
        answer: tuple[str, list] = ("failed", [])
        ok = outcome.completed
        if ok:
            try:
                answer = read_answer(self.rp, op, outcome)
            except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                self.check_failures.append(f"{type(exc).__name__}: {exc}")
                ok = False
        if first:
            self.answers[op.index] = answer
            line = json.dumps([op.index, answer[0], answer[1]], separators=(",", ":"))
            self._digest.update(line.encode() + b"\n")
        elif ok and answer != self.answers[op.index]:
            self.check_failures.append(f"op {op.index}: answer differs from the first pass")
            ok = False
        if not ok:
            self.failed += 1
            self.failure_kinds[outcome.error if not outcome.completed else "failed check"] += 1
        return ok

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


# ---------------------------------------------------------------------------
# Runs


def burst(cli, op: Op, ledger: Ledger) -> list[tuple[Outcome, bool]]:
    """Executions of one op back to back, until they took ``BURST_S``.

    An op longer than that runs once; a shorter one runs again, so that its
    latency rests on more samples than the few passes of a run give. Each
    execution is checked before the next one overwrites its output; the
    burst ends at the first one that fails.
    """
    runs: list[tuple[Outcome, bool]] = []
    spent = 0.0
    while not runs or (runs[-1][1] and spent < BURST_S):
        outcome = execute(cli, op)
        spent += outcome.elapsed
        runs.append((outcome, ledger.record(op, outcome)))
    return runs


def measure(
    rp, ops: list[Op], seconds: float, ledger: Ledger, between: Callable[[], None] = lambda: None
) -> dict[str, tuple[float, str]]:
    """Closed-loop passes over the ops; end-to-end metrics of the run.

    An op's latency is the median of its executions in the run, each at
    the reference speed (see the module docstring). ``ops_per_s`` is the
    rate of one pass with every op at that latency: ops that completed
    over the sum of all ops' latencies, failed ones included.
    ``between()`` runs untimed before every op.
    """
    cli = rp["cli"]
    costs: list[list[float]] = [[] for _ in ops]
    done = [0] * len(ops)
    attempted = 0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for op in ops:
            between()
            runs, scale = at_reference_speed(lambda: burst(cli, op, ledger))
            for outcome, ok in runs:
                costs[op.index].append(outcome.elapsed * scale)
                attempted += 1
                done[op.index] += ok
        passes += 1
    latency = [statistics.median(c) for c in costs]
    # An op that never completed ranks slower than every other: it takes
    # the length of the whole timed window.
    window = sum(map(sum, costs))
    per_op = [t if d else window for t, d in zip(latency, done)]
    pct = statistics.quantiles(per_op, n=100, method="inclusive")
    return {
        "ops_per_s": (sum(1 for d in done if d) / sum(latency), "1/s"),
        "op_p50_ms": (1000.0 * pct[49], "ms"),
        "op_p75_ms": (1000.0 * pct[74], "ms"),
        "ok_frac": (sum(done) / attempted, "frac"),
    }


def traced_pass(rp, ops: list[Op], ledger: Ledger, tracer) -> dict[str, tuple[float, str]]:
    """One pass; each op runs untraced and traced, in alternating order."""
    cli = rp["cli"]
    plain = traced = 0.0
    for op in ops:
        for traced_turn in ((False, True) if op.index % 2 == 0 else (True, False)):
            if not traced_turn:
                outcome = execute(cli, op)
                plain += outcome.elapsed
                ledger.record(op, outcome)
                continue
            tracer.op = op.index
            with tracer.patched(), tracer.span("op") as span:
                execute(cli, op)
            traced += span.duration
        if op.kind == "misr-pas":
            with tracer.patched(), tracer.span("aux.kernel"):
                rp["misr"].kernel_misr(op.inst.normalized, op.k, EPS, op.inst.cap)
        tracer.op = None
    metrics = dict(spans.layer_metrics(tracer.spans))
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    return metrics


def committed_digest(wl: Workload, seed: int) -> Optional[str]:
    record = json.loads((HERE / "baseline.json").read_text())["digests"].get(wl.name)
    if not record or record["instances"] != wl.instances:
        return None
    return record["by_seed"].get(str(seed))


def run_workload(
    rp: dict[str, Any], wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path
) -> dict[str, Any]:
    def timed_setup(where: Path) -> list[Op]:
        def setup() -> tuple[list[Op], float]:
            t0 = time.perf_counter()
            ops = prepare(rp, wl, seed, where)
            return ops, time.perf_counter() - t0

        (ops, wall), scale = at_reference_speed(setup)
        setup_times.append(wall * scale)
        return ops

    setup_times: list[float] = []
    ops = timed_setup(workdir)  # writes the files the ops read
    ledger = Ledger(rp)
    if trace:
        tracer = spans.Tracer(rp)
        with tracer.patched(), tracer.span("setup"):
            prepare(rp, wl, seed, workdir / "traced-setup")
        metrics = traced_pass(rp, ops, ledger, tracer)
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{wl.name}-seed{seed}.json")
    else:
        # The other set-ups go to a side directory, spread over the run so
        # that one slow stretch of the machine does not set the median.
        start = time.perf_counter()
        due = [seconds * r / SETUP_REPEATS for r in range(SETUP_REPEATS - 1, 0, -1)]

        def between() -> None:
            if due and time.perf_counter() - start >= due[-1]:
                due.pop()
                timed_setup(workdir / "setup-probe")

        metrics = measure(rp, ops, seconds, ledger, between)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    expected = committed_digest(wl, seed)
    return {
        "workload": wl.name,
        "seed": seed,
        "digest": ledger.digest,
        "digest_expected": expected,
        "check_failures": ledger.check_failures,
        "correct": not ledger.check_failures and expected in (None, ledger.digest),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failure_kinds": dict(ledger.failure_kinds),
        "metrics": metrics,
    }


def report(result: dict[str, Any]) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    expected = result["digest_expected"]
    kinds = "".join(f", {n} {kind}" for kind, n in sorted(result["failure_kinds"].items()))
    gate = "no committed digest" if expected is None else (
        "matches the committed digest" if expected == result["digest"] else f"DIFFERS from {expected}"
    )
    print(
        f"workload {result['workload']} seed {result['seed']}: {result['attempted']} ops, "
        f"{result['failed']} failed{kinds}, digest {result['digest']} ({gate})"
    )
    for msg in result["check_failures"][:20]:
        print(f"  check failed: {msg}")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {name:32s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
    }))


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":  # each workload in its own process, for its own peak RSS
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    try:
        rp = load_rectpas()
    except SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        result = run_workload(rp, wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
