"""Self-tests for phillybench/run.py: the median, quartile, and bound
arithmetic, strict rejection of bad inputs, the build guard, and the output
checks.

    python3 -m unittest discover -s phillybench/tests
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class StatisticsTest(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_use_the_exclusive_method(self):
        self.assertEqual(run.quartiles([float(v) for v in range(1, 11)]), (2.75, 8.25))

    def test_quartiles_of_a_single_value(self):
        self.assertEqual(run.quartiles([5.0]), (5.0, 5.0))

    def test_spread_is_a_share_of_the_median(self):
        self.assertAlmostEqual(run.spread([float(v) for v in range(1, 11)]), 1.0)
        self.assertEqual(run.spread([2.0, 2.0, 2.0]), 0.0)

    def test_spread_of_a_zero_median(self):
        self.assertEqual(run.spread([0.0, 0.0, 0.0]), 0.0)

    def test_steadiness_against_the_bound(self):
        self.assertEqual(run.steadiness(0.05, 0.25), "steady")
        self.assertEqual(run.steadiness(0.10, 0.25), "within")
        self.assertEqual(run.steadiness(0.25, 0.25), "within")
        self.assertEqual(run.steadiness(0.26, 0.25), "WIDE")

    def test_quartile_table_reports_spread_and_verdict(self):
        metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
        per_run = [{"wall_s": v} for v in (10.0, 10.0, 10.0, 10.0, 11.0)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            run.print_quartiles("paper75", [metric], per_run, [])
        row = stdout.getvalue().splitlines()[-1].split()
        self.assertEqual(row[0], "wall_s")
        self.assertEqual(row[4], "5.00%")
        self.assertEqual(row[-1], "steady")


class ArgumentTest(unittest.TestCase):
    def reject(self, argv, fragment):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), self.assertRaises(SystemExit) as exit_:
            run.parse_args(argv, SPEC)
        self.assertNotEqual(exit_.exception.code, 0)
        self.assertIn(fragment, stderr.getvalue())

    def test_defaults(self):
        args = run.parse_args(["--workload", "paper75"], SPEC)
        self.assertEqual((args.seed, args.seconds, args.trace, args.runs),
                         (42, SPEC["run_seconds"], 0, 1))

    def test_unknown_workload(self):
        self.reject(["--workload", "paper76"], "'paper76'")

    def test_malformed_seed(self):
        self.reject(["--workload", "paper75", "--seed", "4x2"], "'4x2'")

    def test_negative_seed(self):
        self.reject(["--workload", "paper75", "--seed", "-3"], "'-3'")

    def test_malformed_run_count(self):
        self.reject(["--workload", "paper75", "--runs", "two"], "'two'")

    def test_negative_and_zero_run_counts(self):
        self.reject(["--workload", "paper75", "--runs", "-1"], "'-1'")
        self.reject(["--workload", "paper75", "--runs", "0"], "'0'")

    def test_metric_name_outside_the_alphabet(self):
        self.reject(["--workload", "paper75", "--metric", "wall s"], "'wall s'")
        self.reject(["--workload", "paper75", "--metric", "wall/s"], "'wall/s'")

    def test_unknown_metric(self):
        self.reject(["--workload", "paper75", "--metric", "wall_ms"], "'wall_ms'")

    def test_benchmark_json_names_are_valid(self):
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["name"], r"^[A-Za-z0-9_.-]+$")

    def test_command_line_rejection_prints_no_result(self):
        result = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "nope"],
            capture_output=True, text=True, timeout=60)
        self.assertEqual(result.returncode, 2)
        self.assertIn("'nope'", result.stderr)
        self.assertEqual(result.stdout, "")


class BuildGuardTest(unittest.TestCase):
    RELEASE = {"CMAKE_BUILD_TYPE": "Release", "CMAKE_CXX_FLAGS": "",
               "CMAKE_CXX_FLAGS_RELEASE": "-O3 -DNDEBUG", "PHILLY_SANITIZE": ""}

    def test_release_is_accepted(self):
        self.assertIsNone(run.self_check_reason(self.RELEASE))

    def test_debug_is_refused(self):
        cache = {"CMAKE_BUILD_TYPE": "Debug", "CMAKE_CXX_FLAGS_DEBUG": "-g"}
        self.assertIn("Debug", run.self_check_reason(cache))

    def test_sanitizer_build_is_refused(self):
        cache = dict(self.RELEASE, PHILLY_SANITIZE="address")
        self.assertIn("PHILLY_SANITIZE=address", run.self_check_reason(cache))

    def test_explicit_self_check_is_refused(self):
        cache = dict(self.RELEASE, CMAKE_CXX_FLAGS="-DPHILLY_INDEX_SELF_CHECK")
        self.assertIsNotNone(run.self_check_reason(cache))

    def test_cache_parsing(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "CMakeCache.txt"
            path.write_text("// comment\nCMAKE_BUILD_TYPE:STRING=Release\n"
                            "PHILLY_SANITIZE:STRING=\n")
            self.assertEqual(run.read_cmake_cache(path),
                             {"CMAKE_BUILD_TYPE": "Release", "PHILLY_SANITIZE": ""})


class OutputCheckTest(unittest.TestCase):
    def write_run(self, root, events):
        out = root / "out"
        out.mkdir()
        (out / "events.ndjson").write_text(events)
        (out / "metrics.json").write_text('{"wall": 1}')
        manifest = {"outputs": {"events": "out/events.ndjson", "metrics": "out/metrics.json"},
                    "digests": {"events": hashlib.sha256(b"a\n").hexdigest(),
                                "metrics": hashlib.sha256(b'{"wall": 1}').hexdigest()}}
        (out / "manifest.json").write_text(json.dumps(manifest))

    def test_matching_manifest_and_ignored_metrics(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.write_run(Path(tmp), "a\n")
            digests, problems = run.output_digests(Path(tmp))
        self.assertEqual(problems, [])
        self.assertNotIn("out/metrics.json", digests)
        self.assertIn("out/manifest.json", digests)

    def test_tampered_stream_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.write_run(Path(tmp), "b\n")
            _, problems = run.output_digests(Path(tmp))
        self.assertEqual(len(problems), 1)
        self.assertIn("'events'", problems[0])


if __name__ == "__main__":
    unittest.main()
