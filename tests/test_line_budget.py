"""The line budget of src/diffops (ROADMAP direction 5): the same behaviour
from no more code than this."""

import glob
import os

BUDGET = 3_514
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "diffops")


def test_src_within_line_budget():
    lines = 0
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")  # as wc -l counts
    assert lines <= BUDGET, f"src/diffops has {lines} lines, over the budget of {BUDGET}"
