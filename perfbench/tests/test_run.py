"""Tests of run.py's output schema and of BENCHMARK.json's shape.

    python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent

spec_ = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
run = importlib.util.module_from_spec(spec_)
spec_.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def good_result(spec, trace):
    metrics = {name: {"value": 1.5, "unit": unit}
               for name, unit in run.expected_metrics(spec, trace).items()}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics,
            "info": {}, "provenance": {"workload": "train_spider"}}


class ValidateTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec(ROOT)

    def test_accepts_both_modes(self):
        for trace in (False, True):
            self.assertEqual(run.validate(good_result(self.spec, trace),
                                          self.spec, trace), [])

    def test_metric_set_must_match_the_mode(self):
        result = good_result(self.spec, False)
        self.assertTrue(run.validate(result, self.spec, True))
        del result["metrics"]["setup_s"]
        self.assertTrue(run.validate(result, self.spec, False))

    def test_rejects_bad_values_units_and_counts(self):
        cases = [
            ("metrics", "samples_per_s", {"value": math.inf, "unit": "1/s"}),
            ("metrics", "samples_per_s", {"value": 1.0, "unit": "ms"}),
            ("metrics", "samples_per_s", {"value": True, "unit": "1/s"}),
            ("attempted", None, 0),
            ("attempted", None, True),
            ("failed", None, -1),
            ("correct", None, "yes"),
        ]
        for key, name, value in cases:
            result = good_result(self.spec, False)
            if name is None:
                result[key] = value
            else:
                result[key][name] = value
            self.assertTrue(run.validate(result, self.spec, False), (key, value))

    def test_contract_line_has_exactly_the_result_keys(self):
        line = run.contract_line(good_result(self.spec, False))
        self.assertEqual(list(json.loads(line)),
                         ["correct", "attempted", "failed", "metrics"])


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec(ROOT)

    def test_top_level_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end", "per_layer"})
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_names_units_and_bounds(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        bounds = {}
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            bounds[m["name"]] = m["bound"]
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = bounds.pop("setup_s")
        self.assertTrue(all(b < setup for b in bounds.values()))

    def test_per_layer_list_matches_the_binary(self):
        table = re.findall(r'LayerMetric\{"([^"]+)", "([^"]+)"\}',
                           (PERFBENCH / "cpp" / "layers.hpp").read_text())
        self.assertEqual(table, [(m["name"], m["unit"])
                                 for m in self.spec["per_layer"]])


class MissingSourcesTest(unittest.TestCase):
    def test_exits_non_zero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(PERFBENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "train_spider",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
