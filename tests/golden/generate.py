"""Regenerate the golden stdout files for the pinned CLI invocations.

Run from the repository root:  python tests/golden/generate.py
Inspect diffs before committing; the files are byte-exact contracts.
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from cli_cases import CASES, expand

from diffops.cli import main


def run():
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    for name, argv in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(expand(argv))
        if rc != 0:
            raise SystemExit(f"case {name} exited with {rc}")
        with open(os.path.join(HERE, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        print(f"wrote {name}.txt")


if __name__ == "__main__":
    run()
