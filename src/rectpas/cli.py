"""Command line surface tying the pipelines together.

Exit codes: 0 solved or verified, 2 the solver asserted that the optimum is
below k, 3 a verification failed, 1 usage or IO errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import fileio, generators, gknap, hardness, misr, oracles, svg
from .geometry import Packing, as_epsilon, normalize_instance, validate_misr_solution, validate_packing

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ASSERTED = 2
EXIT_INVALID = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep argparse from sys.exit(2)
        raise _UsageError(message)


def _epsilon(text: str) -> Fraction:
    """Parse --eps exactly: "0.7" is 7/10, not the nearest float.

    Only a plain decimal or a fraction p/q is read: an exponent or a long
    digit string would make the exact value arbitrarily large to compute.
    """
    if len(text) > 40 or "e" in text.lower():
        raise argparse.ArgumentTypeError(f"epsilon must be a decimal or p/q, got {text!r}")
    try:
        return as_epsilon(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: argparse fills a fresh namespace on every
    # parse, and building the parser takes about 1 ms, a quarter of a
    # typical 2dkr-pas call.
    p = _Parser(prog="rectpas", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded instance")
    g.add_argument("kind", choices=["misr", "gknap", "figure3"])
    g.add_argument("--n", type=int, default=20)
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--span", type=int, default=60)
    g.add_argument("--N", type=int, default=None)
    g.add_argument("--planted", type=int, default=0)
    g.add_argument("--out", type=Path, default=None)

    s = sub.add_parser("solve", help="run a solver on an instance file")
    s.add_argument("algorithm", choices=["misr-pas", "misr-exact", "2dkr-pas", "2dkr-exact"])
    s.add_argument("instance", type=Path)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--eps", type=_epsilon, default=Fraction(1, 2))
    s.add_argument("--cap-c", type=int, default=None)
    s.add_argument("--ktilde", type=int, default=None)
    s.add_argument("--budget", type=float, default=None, help="time budget in seconds for the whole search")
    s.add_argument("--out", type=Path, default=None)

    kn = sub.add_parser("kernel", help="compute an approximate kernel")
    kn.add_argument("problem", choices=["misr", "2dkr"])
    kn.add_argument("instance", type=Path)
    kn.add_argument("--k", type=int, required=True)
    kn.add_argument("--eps", type=_epsilon, default=Fraction(1, 2))
    kn.add_argument("--cap-c", type=int, default=None)
    kn.add_argument("--ktilde", type=int, default=None)
    kn.add_argument("--budget", type=float, default=None, help="time budget in seconds for the misr kernel")
    kn.add_argument("--out", type=Path, default=None)

    r = sub.add_parser("reduce", help="run the hardness reduction")
    r.add_argument("target", choices=["mss-to-2dkr"])
    r.add_argument("--xs", type=str, required=True, help="comma separated values")
    r.add_argument("--t", type=int, required=True)
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--ys", type=str, default=None, help="witness values for a yes packing")
    r.add_argument("--out", type=Path, default=None)
    r.add_argument("--packing-out", type=Path, default=None)

    v = sub.add_parser("verify", help="check a solution, packing or reduction file")
    v.add_argument("what", choices=["solution", "packing", "reduction"])
    v.add_argument("file", type=Path)
    v.add_argument("--instance", type=Path, default=None)

    d = sub.add_parser("render", help="render an instance (and solution) to SVG")
    d.add_argument("instance", type=Path)
    d.add_argument("--solution", type=Path, default=None)
    d.add_argument("--k", type=int, default=None, help="draw the grid for this k")
    d.add_argument("--out", type=Path, default=None)

    return p


def _resolve_out(out: Optional[Path]) -> Optional[Path]:
    """Bare filenames land in RECTPAS_OUT_DIR when that variable is set."""
    if out is None or out.is_absolute() or out.parent != Path("."):
        return out
    base = os.environ.get("RECTPAS_OUT_DIR")
    return Path(base) / out if base else out


def _emit(text: str, out: Optional[Path]) -> None:
    out = _resolve_out(out)
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        out.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")


def _write_file(obj, out: Optional[Path]) -> None:
    payload = fileio.canonical_json(obj.to_payload())
    _emit(payload, out)


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.replace(" ", "").split(",") if v]
    except ValueError as exc:
        raise _UsageError(f"expected comma separated integers, got {text!r}") from exc


def _cmd_gen(args) -> int:
    board = {} if args.N is None else {"N": args.N}  # no --N: each generator's own default
    if args.kind == "misr":
        inst = generators.gen_misr(args.n, args.seed, args.span, planted=args.planted)
    elif args.kind == "figure3":
        if args.k is None:
            raise _UsageError("gen figure3 needs --k")
        inst = generators.gen_figure_counterexample(args.k, **board)[0]
    elif args.k is not None:
        inst = generators.gen_gknap_packed(args.k, args.seed, **board)[0]
    else:
        inst = generators.gen_gknap_random(args.n, args.seed, **board)
    _write_file(inst, args.out)
    return EXIT_OK


# The most items one packing probe of a 2dkr solve may hold: the subset
# probes grow exponentially with it.
MAX_PROBE_ITEMS = 6


def _budget(args, n: int) -> oracles.OracleBudget:
    return oracles.OracleBudget(
        max_items=max(n, 1),
        max_solution_size=MAX_PROBE_ITEMS,
        time_limit=args.budget,
    )


def _cmd_solve(args) -> int:
    if args.k < 1:  # as the PAS paths do; an exact solve would exit 0 on any k < 1
        raise ValueError(f"k must be positive, got {args.k}")
    inst_file = fileio.load_instance(args.instance)
    prov = {"algorithm": args.algorithm, "k": args.k, "assertions": []}
    if args.algorithm.endswith("-pas"):  # the exact solvers never read eps
        prov["eps"] = str(args.eps)

    if args.algorithm.startswith("misr"):
        if inst_file.kind != "misr":
            raise _UsageError(f"{args.algorithm} needs a misr instance")
        inst = normalize_instance(inst_file.instance)
        if args.algorithm == "misr-exact":
            selected = oracles.mis_rectangles_exact(inst, _budget(args, inst.n))
            below_k = len(selected) < args.k
        else:
            result = misr.pas_misr(inst, args.k, args.eps, args.cap_c, _budget(args, inst.n))
            prov["knobs"] = {"c": result.metadata["c"]}
            selected = result.selected or ()
            below_k = not result.positive
        sol = fileio.SolutionFile("misr-solution", inst_file.hash, tuple(selected), None, prov)
        message = f"solution of size {len(selected)}"
    else:
        if inst_file.kind != "gknap":
            raise _UsageError(f"{args.algorithm} needs a gknap instance")
        inst = inst_file.instance
        if args.algorithm == "2dkr-exact":
            subset, placements = oracles.knapsack_exact(
                inst.items, inst.N, inst.N, args.k, inst.rotations, _budget(args, inst.n)
            )
            packing = Packing(inst.N, placements)
            below_k = len(subset) < args.k
        else:
            result = gknap.pas_2dkr(inst, args.k, args.eps, args.ktilde, budget=_budget(args, inst.n))
            prov["knobs"] = {"k_tilde": result.metadata["k_tilde"], "k_prime": result.metadata["k_prime"]}
            packing = result.packing or Packing(inst.N, ())
            below_k = not result.positive
        sol = fileio.SolutionFile("gknap-packing", inst_file.hash, None, packing, prov)
        message = f"packing of {packing.size} items"
    if below_k:
        prov["assertions"].append(f"OPT < {args.k}")
        message = f"asserted: OPT < {args.k}"
    _write_file(sol, args.out)
    print(message)
    return EXIT_ASSERTED if below_k else EXIT_OK


def _cmd_kernel(args) -> int:
    if args.problem == "2dkr" and args.budget is not None:  # it runs no search to bound
        raise _UsageError("kernel 2dkr takes no --budget")
    inst_file = fileio.load_instance(args.instance)
    if args.problem == "misr":
        if inst_file.kind != "misr":
            raise _UsageError("misr kernel needs a misr instance")
        inst = normalize_instance(inst_file.instance)
        report = misr.kernel_misr(inst, args.k, args.eps, args.cap_c, _budget(args, inst.n))
    else:
        if inst_file.kind != "gknap":
            raise _UsageError("2dkr kernel needs a gknap instance")
        report = gknap.kernel_2dkr(inst_file.instance, args.k, args.eps, args.ktilde)
    payload = {
        "type": "kernel",
        "problem": args.problem,
        "instance_hash": inst_file.hash,
        "indices": list(report.indices),
        "params": {k: str(v) for k, v in {**report.params, "eps": args.eps}.items()},
    }
    _emit(fileio.canonical_json(payload), args.out)
    print(f"kernel of {report.size} objects")
    return EXIT_OK


def _constants_payload(c: hardness.ReductionConstants) -> dict[str, int]:
    """The reduction constants a reduction file records."""
    return {"S": c.S, "L": c.L, "N": c.N, "p": c.p}


def _cmd_reduce(args) -> int:
    xs = _parse_ints(args.xs)
    red = hardness.reduce_mss_to_2dkr(xs, args.t, args.k)
    meta = {
        "generator": "mss-to-2dkr",
        "mss": {"xs": xs, "t": args.t, "k": args.k},
        "constants": _constants_payload(red.constants),
        "k_prime": red.k_prime,
    }
    inst_file = fileio.InstanceFile("gknap", red.instance, meta)
    _write_file(inst_file, args.out)
    if args.ys is not None:
        ys = _parse_ints(args.ys)
        packing = hardness.build_yes_packing(red, ys, xs)
        prov = {"algorithm": "mss-yes-packing", "ys": ys, "assertions": []}
        sol = fileio.SolutionFile("gknap-packing", inst_file.hash, None, packing, prov)
        _write_file(sol, args.packing_out)
    return EXIT_OK


def _report_bad_indices(sol: fileio.SolutionFile, inst_file: fileio.InstanceFile) -> bool:
    """Print a violation for each index that names no object of the instance,
    and for each rectangle index a solution repeats."""
    n = inst_file.instance.n
    if sol.selected is not None:
        bad = [f"rectangle index {i} out of range" for i in sol.selected if not 0 <= i < n]
        bad += [f"rectangle index {i} repeated" for i, m in Counter(sol.selected).items() if m > 1]
    else:
        bad = [
            f"placement {pi} references item {pl.item}"
            for pi, pl in enumerate(sol.packing.placements)
            if not 0 <= pl.item < n
        ]
    for message in bad:
        print(f"violation: {message}")
    return bool(bad)


def _cmd_verify(args) -> int:
    if args.what == "reduction":
        inst_file = fileio.load_instance(args.file)
        meta = inst_file.metadata
        if inst_file.kind != "gknap" or "mss" not in meta:
            print("not a reduction output: missing mss metadata")
            return EXIT_INVALID
        mss = meta["mss"] if isinstance(meta["mss"], dict) else {}
        xs, t, k = mss.get("xs"), mss.get("t"), mss.get("k")
        if not isinstance(xs, list) or not all(isinstance(v, int) for v in (*xs, t, k)):
            print("not a reduction output: mss metadata needs integer xs, t and k")
            return EXIT_INVALID
        expected = hardness.reduce_mss_to_2dkr(xs, t, k)
        same = (
            expected.instance == inst_file.instance
            and expected.k_prime == meta.get("k_prime")
            and meta.get("constants") == _constants_payload(expected.constants)
        )
        if not same:
            print("reduction file does not match the deterministic construction")
            return EXIT_INVALID
        print("reduction verified")
        return EXIT_OK

    if args.instance is None:
        raise _UsageError("verify solution/packing needs --instance")
    inst_file = fileio.load_instance(args.instance)
    sol = fileio.load_solution(args.file)
    if sol.instance_hash != inst_file.hash:
        print("instance hash mismatch")
        return EXIT_INVALID
    if args.what == "solution":
        if sol.kind != "misr-solution" or inst_file.kind != "misr":
            raise _UsageError("verify solution needs a misr pair")
        if _report_bad_indices(sol, inst_file):
            return EXIT_INVALID
        ok = validate_misr_solution(inst_file.instance, sol.selected or ())
        if not ok:
            print("solution contains overlapping rectangles")
            return EXIT_INVALID
        print(f"solution of size {len(sol.selected or ())} verified")
        return EXIT_OK
    if sol.kind != "gknap-packing" or inst_file.kind != "gknap":
        raise _UsageError("verify packing needs a gknap pair")
    if sol.packing.N != inst_file.instance.N:  # the board is the instance's, not the file's
        print(f"violation: packing board side {sol.packing.N} is not the instance's {inst_file.instance.N}")
        return EXIT_INVALID
    messages = [
        f"placement {i} is rotated but the instance forbids rotations"
        for i, pl in enumerate(sol.packing.placements)
        if pl.rotated and not inst_file.instance.rotations
    ]
    messages += [viol.message for viol in validate_packing(sol.packing, inst_file.instance.items).violations]
    if messages:
        for message in messages:
            print(f"violation: {message}")
        return EXIT_INVALID
    print(f"packing of {sol.packing.size} items verified")
    return EXIT_OK


def _cmd_render(args) -> int:
    inst_file = fileio.load_instance(args.instance)
    selected = None
    packing = None
    if args.solution is not None:
        sol = fileio.load_solution(args.solution)
        if sol.instance_hash != inst_file.hash:
            print("instance hash mismatch")
            return EXIT_INVALID
        if _report_bad_indices(sol, inst_file):
            return EXIT_INVALID
        selected = sol.selected
        packing = sol.packing
    grid = None
    if args.k is not None and inst_file.kind == "misr":
        outcome = misr.build_grid(normalize_instance(inst_file.instance), args.k)
        if outcome.is_grid:
            grid = outcome.grid
    instance = inst_file.instance
    if inst_file.kind == "misr" and grid is not None:
        instance = normalize_instance(instance)
    text = svg.render_svg(instance, selected=selected, packing=packing, grid=grid)
    _emit(text, args.out)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "kernel": _cmd_kernel,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def cli_dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    # The MISR set packing recurses once per candidate; a family larger than
    # the recursion limit ends here too. OSError covers every IO failure: a
    # missing file, a directory given as a file, a file that cannot be read.
    except (fileio.FileFormatError, OSError, ValueError, oracles.BudgetExceededError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
