#!/usr/bin/env python3
"""Tests of the analyst-gesture benchmark itself.

Run from the repository root (builds perfbench/ first, ~2 minutes):

    python3 perfbench/test_bench.py
"""

import filecmp
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True   # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's entry point, as a module)

BENCHMARK_JSON = run.BENCH_DIR.parent / "BENCHMARK.json"
# A run never stops before its second repetition, so a short measuring
# time gives exactly two.
SHORT_S = 0.1


def generate(binary, workload, seed, where, extra=()):
    run.subprocess.run([str(binary), "gen", "--workload", workload,
                        "--seed", str(seed), "--dir", str(where), *extra],
                       check=True, stdout=run.subprocess.DEVNULL)


class GestureBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        run.build_root().mkdir(parents=True, exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="tests-",
                                        dir=run.build_root()))
        cls.spec = json.loads(BENCHMARK_JSON.read_text())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def short_script(self, name, lines):
        """Grid'5000 inputs with a hand-written gesture list."""
        where = self.tmp / name
        where.mkdir()
        source = run.inputs(self.binary, "g5k-timeline", 1)
        shutil.copy(source / "trace.viva", where)
        (where / "gestures.txt").write_text("\n".join(lines) + "\n")
        return where

    def test_generator_is_deterministic_per_seed(self):
        for workload in run.WORKLOADS:
            a, b, c = (self.tmp / f"{workload}-{i}" for i in "abc")
            generate(self.binary, workload, 7, a)
            generate(self.binary, workload, 7, b)
            generate(self.binary, workload, 8, c)
            for name in ("gestures.txt", "commands.txt", "trace.viva"):
                self.assertTrue(filecmp.cmp(a / name, b / name,
                                            shallow=False),
                                f"{workload}/{name} differs for one seed")
            # The command script replays against a file the generator wrote.
            named = (a / "commands.txt").read_text().splitlines()[1].split()
            self.assertTrue((a / named[2]).is_file(), " ".join(named))
            self.assertNotEqual((a / "gestures.txt").read_text(),
                                (c / "gestures.txt").read_text(),
                                f"{workload}: seeds 7 and 8 give one script")
            if workload in run.SEED_FREE_TRACES:
                # Copying seed 7's trace gives seed 8 the same inputs.
                d = self.tmp / f"{workload}-d"
                generate(self.binary, workload, 8, d,
                         ["--trace-from", str(a / "trace.viva")])
                for name in ("gestures.txt", "commands.txt", "trace.viva"):
                    self.assertTrue(filecmp.cmp(c / name, d / name,
                                                shallow=False), name)

    def test_every_metric_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for traced, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, traced=traced):
                    _, result = run.replay(self.binary, workload, 1,
                                           SHORT_S, traced)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    printed = result["metrics"]
                    for metric in self.spec[key]:
                        self.assertIn(metric["name"], printed)
                        self.assertEqual(printed[metric["name"]]["unit"],
                                         metric["unit"])
                    self.assertEqual(len(printed), len(self.spec[key]))
                    if traced:
                        spans = (run.build_root() / "spans" /
                                 f"{workload}-1.json")
                        events = json.loads(spans.read_text())
                        self.assertTrue(events["traceEvents"])

    def test_bad_gesture_is_counted_as_failed(self):
        where = self.short_script("bad", [
            "probe 2", "focus no-such-container 2", "reset 2", "probe 2"])
        _, result = run.replay(self.binary, "g5k-timeline", 1, SHORT_S,
                               False, where=where)
        # Two repetitions of four gestures, one of them bad.
        self.assertEqual(result["attempted"], 2 * 4)
        self.assertEqual(result["failed"], 2 * 1)

    def test_one_thread_replay_gives_the_same_digest(self):
        where = self.short_script("threads", [
            "probe 2", "level cluster 20", "frame 3 10 3",
            "focus grenoble 5", "aggregate lyon 5", "disaggregate lyon 5",
            "reset 5", "slice 7 10 3", "probe 2"])
        digests = []
        for threads in ("1", "4"):
            lines, result = run.replay(
                self.binary, "g5k-timeline", 1, SHORT_S, False,
                extra=["--threads", threads], where=where)
            self.assertEqual(result["failed"], 0)
            digests += [l for l in lines if l.startswith("# digest=")]
        self.assertEqual(len(digests), 2)
        self.assertEqual(digests[0], digests[1])


if __name__ == "__main__":
    unittest.main()
