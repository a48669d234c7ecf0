"""Runs the C++ self-tests of the percentile summary and the exact checks
(perfbench selftest). Builds the benchmark first, into the same build
directory run.py uses, resolved against the repository root.

  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402


class CppSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(os.path.join(
            run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))

    def test_selftest_passes(self):
        proc = subprocess.run([self.binary, "selftest"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(result["selftest_failures"], 0)


if __name__ == "__main__":
    unittest.main()
