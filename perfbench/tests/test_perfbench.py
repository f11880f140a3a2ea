"""Tests of the benchmark itself: seeded inputs, metric names, result schema.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import random
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import gen  # noqa: E402
import obsreport  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def serve_inputs(seed):
    rng = random.Random(seed)
    pool = gen.serve_explore_pool(rng)
    calls = [gen.serve_call(rng, pool) for _ in range(300)]
    return pool, calls, gen.arrivals(rng, 300, run.NOMINAL_RPS)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (0, 1, 12345):
            self.assertEqual(gen.explore_round(random.Random(seed)),
                             gen.explore_round(random.Random(seed)))
            self.assertEqual(gen.yield_round(random.Random(seed)),
                             gen.yield_round(random.Random(seed)))
            self.assertEqual(serve_inputs(seed), serve_inputs(seed))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(gen.explore_round(random.Random(1)),
                            gen.explore_round(random.Random(2)))
        self.assertNotEqual(gen.yield_round(random.Random(1)),
                            gen.yield_round(random.Random(2)))
        self.assertNotEqual(serve_inputs(1), serve_inputs(2))

    def test_explore_round_keeps_the_design(self):
        shapes = sorted(json.dumps(s, sort_keys=True)
                        for s in gen.explore_design())
        for seed in range(5):
            got = sorted(
                json.dumps({"bits": a["bits"], "families": a["families"],
                            "radices": a["radices"], "stages": a["stages"],
                            "copies": a["copies"],
                            "n_fmults": len(a["fmults"]),
                            "signed": a["signed"],
                            "all_flavors": a["tech"] == "all"},
                           sort_keys=True)
                for a in gen.explore_round(random.Random(seed)))
            self.assertEqual(got, shapes)

    def test_yield_round_total(self):
        for seed in range(5):
            points = gen.yield_round(random.Random(seed))
            self.assertEqual(sum(p["dies"] for p in points),
                             sum(gen.YIELD_DIES))
            self.assertTrue(all(p["arch"] in gen.TABLE1 for p in points))

    def test_serve_frames_are_json_lines(self):
        _, calls, due = serve_inputs(3)
        for i, (method, params) in enumerate(calls):
            line = gen.frame(i, method, params)
            self.assertNotIn("\n", line)
            self.assertEqual(json.loads(line)["method"], method)
        self.assertEqual(due, sorted(due))


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)

    def test_benchmark_json_matches_run_py(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in b["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in b["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in b["per_layer"]],
                         run.PER_LAYER)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        for w in b["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


class ResultSchema(unittest.TestCase):
    def check(self, obj, names):
        self.assertEqual(set(obj), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIsInstance(obj["correct"], bool)
        self.assertIsInstance(obj["attempted"], int)
        self.assertIsInstance(obj["failed"], int)
        self.assertGreaterEqual(obj["attempted"], 1)
        self.assertEqual(obj["correct"], obj["failed"] == 0)
        self.assertEqual(set(obj["metrics"]), set(names))
        for m in obj["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], float)

    def test_result_object(self):
        for names in (run.END_TO_END, run.PER_LAYER):
            metrics = {n: {"value": 1.5, "unit": u} for n, u in names}
            for failed in (0, 2):
                line = json.dumps(run.result(10, failed, metrics))
                self.check(json.loads(line), [n for n, _ in names])


class Proc:
    def __init__(self, cpu, slow):
        self.cpu, self.slow, self.wall, self.units = cpu, slow, 1.2 * cpu, 1


class CpuScaling(unittest.TestCase):
    def test_host_speed_cancels(self):
        # 0.1 s and 0.3 s of work at the reference host's speed; the
        # second pass runs on a host twice as slow, the third at speed.
        passes = [[Proc(0.1, 1.0), Proc(0.3, 1.0)],
                  [Proc(0.2, 2.0), Proc(0.6, 2.0)],
                  [Proc(0.1, 1.0), Proc(0.3, 1.0)]]
        out = run.batch_metrics(run.Run(1, 1, False),
                                [{"points": [0, 1], "passes": passes}],
                                0.003, 1)
        self.assertAlmostEqual(out["cpu_s"], 0.4)
        self.assertEqual(out["setup_s"], 0.003)

    def test_bracket_averages_neighbouring_readings(self):
        # Each reading is the geometric mean of one run of each form.
        readings = iter([0.5, 2.0, 1.5, 6.0, 2.0, 2.0])
        saved = run.calibrate
        run.calibrate = lambda _run, _kind: next(readings)
        try:
            b = run.Bracket(None, ["plain", "explore"])
            self.assertEqual([b.after(), b.after(), b.after()],
                             [1.0, 2.0, 2.5])
        finally:
            run.calibrate = saved


REPORT = """\
space: 72 candidates
counters:
  dse.enumerated       72

span                                                    count       total        self
yield.run                                                   1    407.39ms         0ns
  yield.chunk                                              49    765.10ms    260.68ms
    opt.solve                                          200000    504.42ms    504.42ms
  opt.solve                                                 1       8.2us       8.2us
pool.join                                                   1         0ns         0ns

counters:
  mc.chunks                                                    49
  pool.items                                                   49

histograms (count / mean / min / max):
  pool.task_wait_ns                             2      10.8us      10.8us      10.8us
"""


class ObsReport(unittest.TestCase):
    def test_parse(self):
        r = obsreport.parse(REPORT)
        self.assertEqual(r["spans"]["opt.solve"][0], 200001)
        self.assertAlmostEqual(r["spans"]["opt.solve"][1], 504.4282)
        self.assertAlmostEqual(r["spans"]["yield.chunk"][2], 260.68)
        self.assertEqual(r["counters"], {"mc.chunks": 49, "pool.items": 49})
        self.assertEqual(r["hists"]["pool.task_wait_ns"], [2, 0.0108])
        self.assertEqual(obsreport.deterministic_counters(r),
                         {"mc.chunks": 49})

    def test_merge(self):
        r = obsreport.parse(REPORT)
        m = obsreport.merge([r, r])
        self.assertEqual(m["counters"]["mc.chunks"], 98)
        self.assertEqual(m["hists"]["pool.task_wait_ns"][0], 4)


if __name__ == "__main__":
    unittest.main()
