"""Tests of the benchmark itself; stdlib only.

Run from the repository root with ``python3 perfbench/check_bench.py``.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

RP = run.load_rectpas()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "misr": replace(run.WORKLOADS["misr"], instances=2),
    "gknap_n24": replace(run.WORKLOADS["gknap_n24"], instances=3),
}
WORKDIR = run.ROOT / ".perfbench" / f"check-{os.getpid()}"


def tearDownModule() -> None:
    shutil.rmtree(WORKDIR, ignore_errors=True)


def printed(result) -> list[str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.report(result)
    return buf.getvalue().splitlines()


class TinyRunTest(unittest.TestCase):
    def test_spec_lists_the_workloads(self):
        self.assertEqual(SPEC["workloads"], [{"name": w.name, "why": w.why} for w in run.WORKLOADS.values()])

    def check_metrics(self, trace: bool, wl) -> None:
        result = run.run_workload(RP, wl, 0, 0.01, trace, WORKDIR / wl.name)
        lines = printed(result)
        last = json.loads(lines[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"], result["check_failures"])
        self.assertGreaterEqual(last["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(last["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(last["metrics"][m["name"]]["unit"], m["unit"])
            self.assertTrue(
                any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines[:-1]),
                f"{m['name']} not printed with its unit",
            )

    def test_end_to_end_metrics_printed(self):
        self.check_metrics(False, TINY["gknap_n24"])

    def test_per_layer_metrics_printed(self):
        for wl in TINY.values():
            with self.subTest(workload=wl.name):
                self.check_metrics(True, wl)


DIGEST_SNIPPET = """
import sys
from dataclasses import replace
from pathlib import Path
sys.path.insert(0, {here!r})
import run
rp = run.load_rectpas()
wl = replace(run.WORKLOADS[{name!r}], instances={instances})
res = run.run_workload(rp, wl, {seed}, 0.01, False, Path({workdir!r}))
print(res["digest"])
"""


class DigestTest(unittest.TestCase):
    def digest(self, wl, seed: int, hashseed: str) -> str:
        code = DIGEST_SNIPPET.format(
            here=str(HERE), name=wl.name, instances=wl.instances, seed=seed,
            workdir=str(WORKDIR / f"digest-{hashseed}"),
        )
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True
        )
        return out.stdout.split()[-1]

    def test_digest_repeats_and_follows_the_seed(self):
        for wl in TINY.values():
            with self.subTest(workload=wl.name):
                # The seed sets the instance order; these two seeds differ there.
                first = [op.inst.path.name for op in run.prepare(RP, wl, 3, WORKDIR / "order")]
                other = [op.inst.path.name for op in run.prepare(RP, wl, 0, WORKDIR / "order")]
                self.assertNotEqual(first, other)
                a = self.digest(wl, 3, "0")
                self.assertEqual(a, self.digest(wl, 3, "1"))
                self.assertNotEqual(a, self.digest(wl, 0, "0"))


class SelfTimeTest(unittest.TestCase):
    def test_union_of_intervals(self):
        self.assertEqual(spans.covered([(0, 2), (1, 3), (5, 6)], 0, 10), 4)
        self.assertEqual(spans.covered([(-1, 1), (9, 12)], 0, 10), 2)
        self.assertEqual(spans.covered([], 0, 10), 0)

    def test_synthetic_tree(self):
        S = spans.Span
        tree = [
            S("op", 0, 10, -1, 0),  # 0
            S("cli.dispatch", 1, 9, 0, 0),  # 1
            S("misr.pas_misr", 2, 8, 1, 0, note=7),  # 2
            S("misr.capped_mis", 3, 4, 2, 0),  # 3
            S("misr.capped_mis", 5, 6, 2, 0),  # 4
            S("aux.kernel", 11, 15, -1, 0),  # 5
            S("misr.kernel_misr", 11.5, 14.5, 5, 0, note=7),  # 6
            S("misr.capped_mis", 12, 13, 6, 0),  # 7
            S("setup", 20, 30, -1, None),  # 8
            S("oracles.mis_exact", 21, 24, 8, None),  # 9
        ]
        self.assertEqual(spans.self_times(tree), [2, 2, 4, 1, 1, 1, 2, 1, 7, 3])
        m = {k: v for k, (v, _) in spans.layer_metrics(tree).items()}
        self.assertEqual(m["cli.self_s"], 2)
        self.assertEqual(m["misr.capped_mis_s"], 2)
        self.assertEqual(m["misr.capped_mis_calls"], 2)
        self.assertEqual(m["misr.family_s"], 2)
        self.assertEqual(m["misr.set_packing_s"], 2)
        self.assertEqual(m["misr.candidates"], 7)
        self.assertEqual(m["oracles.mis_exact_s"], 3)
        self.assertEqual(m["trace.coverage_frac"], 0.8)


class ReferenceSpeedTest(unittest.TestCase):
    def test_scale_is_nominal_over_mean_loop_time(self):
        with mock.patch.object(run, "reference_time", side_effect=[0.002, 0.004]):
            result, scale = run.at_reference_speed(lambda: "done")
        self.assertEqual(result, "done")
        self.assertAlmostEqual(scale, run.REFERENCE_LOOP_S / 0.003)


class FailureAccountingTest(unittest.TestCase):
    def setUp(self):
        self.ops = run.prepare(RP, TINY["gknap_n24"], 0, WORKDIR / "failures")

    def test_search_limit_exit_counts_as_failed(self):
        pas = next(op for op in self.ops if op.kind == "2dkr-pas")
        argv = list(pas.argv)
        argv[argv.index("--k") + 1] = "12"
        argv[argv.index("--eps") + 1] = "0.45"  # k' = 7 exceeds the search limit
        ops = self.ops[:1] + [run.Op(1, "2dkr-pas", pas.inst, 12, argv)]
        ledger = run.Ledger(RP)
        with mock.patch.object(run, "BURST_S", 0.0):  # one execution per op
            metrics = run.measure(RP, ops, 0.0, ledger)
        self.assertEqual((ledger.attempted, ledger.failed), (2, 1))
        self.assertEqual(ledger.check_failures, [])
        self.assertEqual(metrics["ok_frac"][0], 0.5)
        self.assertEqual(ledger.answers[1], ("failed", []))

    def test_burst_checks_every_execution(self):
        op = next(op for op in self.ops if op.kind == "2dkr-kernel")  # a few milliseconds
        ledger = run.Ledger(RP)
        runs = run.burst(RP["cli"], op, ledger)
        self.assertGreater(len(runs), 1)
        self.assertEqual((ledger.attempted, ledger.failed), (len(runs), 0))
        self.assertTrue(all(ok for _, ok in runs))

    def test_wrong_answer_fails_the_check(self):
        op = next(op for op in self.ops if op.kind == "2dkr-exact")
        outcome = run.execute(RP["cli"], op)
        out = Path(op.argv[op.argv.index("--out") + 1])
        payload = json.loads(out.read_text())
        payload["placements"] = [[i, 0, 0, False] for i in range(2)]  # two items on one spot
        out.write_text(json.dumps(payload))
        ledger = run.Ledger(RP)
        self.assertFalse(ledger.record(op, outcome))
        self.assertEqual(ledger.failed, 1)
        self.assertEqual(len(ledger.check_failures), 1)


if __name__ == "__main__":
    unittest.main()
