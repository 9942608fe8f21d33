"""Self-tests of the benchmark's own logic (no build, no servers):

    python3 perfbench/test_common.py

the percentile rule, the result validator, and seed reproducibility of
the schedule and the generated inputs (the file workloads' graphs only
once run.py has built ffp_gen).
"""

import json
import os
import random
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import common  # noqa: E402
import run  # noqa: E402

SELFTEST_DIR = os.path.join(os.path.dirname(HERE), ".bench_run", "selftest")
BIN_DIR = os.path.join(os.path.dirname(HERE), ".bench_build")


def result_line(parts, value, jid="a", seconds=0.25):
    return json.dumps({"event": "result", "id": jid, "state": "done",
                       "value": value, "seconds": seconds,
                       "partition": parts}, separators=(",", ":"))


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, n = common.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(1 for x in range(1, 101) if x > value), 10)

    def test_order_does_not_matter(self):
        xs = list(range(1, 51))
        random.Random(3).shuffle(xs)
        self.assertEqual(common.tail(xs), (40, 80.0, 50))

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(common.tail(list(range(20))), (9.5, 50.0, 20))
        value, pct, n = common.tail(list(range(21)))
        self.assertEqual((value, n), (10, 21))
        self.assertAlmostEqual(pct, 100 * 11 / 21)


class Validator(unittest.TestCase):
    def setUp(self):
        # 2x4 grid split into its two 2x2 halves: each half has 4 internal
        # edges (W = 8, ordered pairs) and 2 crossing edges.
        self.g = common.Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6),
                                  (6, 7), (0, 4), (1, 5), (2, 6), (3, 7)])
        self.parts = [0, 0, 1, 1, 0, 0, 1, 1]
        self.value = 2 / 8 + 2 / 8

    def test_mcut_by_hand(self):
        self.assertAlmostEqual(common.mcut(self.g, self.parts, 2), self.value)

    def test_accepts_valid(self):
        line = result_line(self.parts, self.value)
        self.assertEqual(common.validate_result(self.g, 2, line), self.value)

    def test_rejects_mismatched_value(self):
        line = result_line(self.parts, self.value * (1 + 1e-6))
        with self.assertRaisesRegex(common.InvalidResult, "recomputed"):
            common.validate_result(self.g, 2, line)

    def test_rejects_corrupted_partitions(self):
        bad = {
            "length": self.parts[:-1],
            "outside": [0, 0, 1, 1, 0, 0, 1, 2],
            "negative": [0, 0, 1, 1, 0, 0, 1, -1],
            "non-empty": [0] * 8,
        }
        for why, parts in bad.items():
            with self.subTest(why), self.assertRaises(common.InvalidResult):
                common.validate_result(self.g, 2, result_line(parts, 0.0))

    def test_rejects_error_events(self):
        with self.assertRaises(common.InvalidResult):
            common.validate_result(self.g, 2, '{"event":"error","id":"a"}')

    def test_chaco_round_trip(self):
        os.makedirs(SELFTEST_DIR, exist_ok=True)
        path = os.path.join(SELFTEST_DIR, "grid.graph")
        with open(path, "w") as f:
            f.write(common.chaco_text(self.g))
        back = common.read_chaco(path)
        self.assertEqual((back.n, sorted(back.edges())),
                         (self.g.n, sorted(self.g.edges())))
        shutil.rmtree(SELFTEST_DIR, ignore_errors=True)

    def test_payload_ignores_only_id_and_seconds(self):
        a = result_line(self.parts, self.value, jid="j1", seconds=0.5)
        b = result_line(self.parts, self.value, jid="j9", seconds=0)
        self.assertEqual(common.result_payload(a), common.result_payload(b))
        c = result_line([1, 1, 0, 0, 1, 1, 0, 0], self.value, jid="j1")
        self.assertNotEqual(common.result_payload(a), common.result_payload(c))


class Reproducibility(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(SELFTEST_DIR, ignore_errors=True)

    def test_schedule_repeats_for_a_seed(self):
        def sched(seed):
            return common.poisson_schedule(random.Random(seed), 60.0, 5.0,
                                           16, 4)
        self.assertEqual(sched(7), sched(7))
        self.assertNotEqual(sched(7), sched(8))
        s = sched(7)
        self.assertEqual(len(s), 300)
        self.assertEqual([t for t, *_ in s], sorted(t for t, *_ in s))
        self.assertEqual(sum(1 for *_, rep in s if rep), 225)
        fresh = {(g, seed) for _, g, seed, rep in s if not rep}
        for _, g, seed, rep in s:
            if rep:
                self.assertIn((g, seed), fresh)

    def inputs(self, name, cfg, seed):
        work = os.path.join(SELFTEST_DIR, f"{name}-{seed}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        ins = run.Inputs(name, cfg, seed, work, BIN_DIR)
        texts = []
        for path in ins.files:
            with open(path) as f:
                texts.append(f.read())
        return texts, [ins.submit("j", i, 5) for i in range(cfg["pool"])]

    def test_inline_inputs_repeat_for_a_seed(self):
        cfg = run.WORKLOADS["serve_mixed"]
        self.assertEqual(self.inputs("serve_mixed", cfg, 3),
                         self.inputs("serve_mixed", cfg, 3))
        self.assertNotEqual(self.inputs("serve_mixed", cfg, 3),
                            self.inputs("serve_mixed", cfg, 4))

    @unittest.skipUnless(os.path.exists(os.path.join(BIN_DIR, "ffp",
                                                     "ffp_gen")),
                         "ffp_gen not built yet (run.py builds it)")
    def test_file_inputs_repeat_for_a_seed(self):
        cfg = dict(run.WORKLOADS["ff_portfolio"])
        cfg["graph"] = ("geometric", "800,122")  # same family, smaller
        self.assertEqual(self.inputs("ff_portfolio", cfg, 3),
                         self.inputs("ff_portfolio", cfg, 3))
        self.assertNotEqual(self.inputs("ff_portfolio", cfg, 3),
                            self.inputs("ff_portfolio", cfg, 4))

    def test_job_seeds(self):
        self.assertEqual(common.job_seed(1, 5), common.job_seed(1, 5))
        self.assertEqual(len({common.job_seed(1, i) for i in range(200)}), 200)


class Declarations(unittest.TestCase):
    def test_workloads(self):
        self.assertEqual(sorted(w["name"] for w in run.DECLARED["workloads"]),
                         sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
