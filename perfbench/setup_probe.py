"""Set-up of one workload in a fresh interpreter, timed from outside.

Usage: python3 perfbench/setup_probe.py <workload>

Imports diffops and diffops.cli, then builds the workload's fixed
contexts and rings, which is everything before the first request can be
sent.  Prints {"cli_import_s": ...}, the time of the two imports.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import diffops  # noqa: E402,F401
import diffops.cli  # noqa: E402,F401

T1 = time.perf_counter()
importlib.import_module(sys.argv[1].replace("-", "_")).build()
print(json.dumps({"cli_import_s": T1 - T0}))
