#!/usr/bin/env python3
"""Tests for trace_summarize.py's phase-table duration rule.

Run directly (``python3 tools/test_trace_summarize.py``) or through ctest
(registered in tools/CMakeLists.txt with label ``obs-tail``).  The
critical-path walk is C++ (obs::critical_path, tested in
tests/tail_test.cpp; ``vmp_inspect critical-path`` runs it on a dump).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trace_summarize as ts  # noqa: E402


class DurationTest(unittest.TestCase):
    def test_missing_end_attributes_zero(self):
        self.assertEqual(ts.duration_of({"start": 0.5}), 0.0)

    def test_end_before_start_clamps_to_zero(self):
        self.assertEqual(ts.duration_of({"start": 2.0, "end": 1.0}), 0.0)


if __name__ == "__main__":
    unittest.main()
