"""The fixed CLI invocations pinned by golden files.

Paths use the {FIX} placeholder for the fixtures directory.  Each case is
(name, argv); expected stdout lives in golden/<name>.txt.  The --help
cases depend on the terminal width, so they run with COLUMNS=80.
"""

import os

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def expand(argv):
    return [a.replace("{FIX}", FIXTURES) for a in argv]


CASES = [
    ("normalize_yx", ["normalize", "y1*x1", "--n", "1"]),
    ("normalize_square_char2", ["normalize", "(x1+y1)^2", "--char", "2"]),
    ("normalize_structured", ["normalize", "y1*x1", "--format", "structured"]),
    ("normalize_weyl", ["normalize", "y1*x1", "--mode", "weyl"]),
    ("comm_xy", ["comm", "x1", "y1", "--n", "1", "--char", "0"]),
    ("comm_h_central", ["comm", "h", "x1*y1^2"]),
    ("apply_dh", ["apply", "dh", "h^2*x1"]),
    ("apply_reversed", ["apply", "Dh", "y1*x1"]),
    ("apply_structured", ["apply", "dx1", "x1^3", "--format", "structured"]),
    ("compose_dx_x", ["compose", "dx1", "x1"]),
    ("compose_dh_y", ["compose", "dh", "y1"]),
    ("compose_structured", ["compose", "dh", "y1", "--format", "structured"]),
    ("mdeg_dh", ["mdeg", "dh"]),
    ("mdeg_mixed", ["mdeg", "x1*dx1[2]*dy1", "--format", "structured"]),
    ("order_divided", ["order", "t^3*d[t]^[2]"]),
    ("order_char5", ["order", "d[t]^[5]", "--char", "5"]),
    ("reduce_dh", ["reduce", "dh", "--n", "1", "--char", "0"]),
    ("reduce_lambda_x", ["reduce", "x1"]),
    ("reduce_structured", ["reduce", "x1*dy1", "--format", "structured"]),
    ("weyl_decompose_dx", ["weyl-decompose", "dx1"]),
    (
        "weyl_decompose_product",
        ["weyl-decompose", "dx1*dy1", "--format", "structured"],
    ),
    ("decompose_m2", ["decompose", "{FIX}/m2_f3t.json", "{FIX}/m2_f3t_matrix.json"]),
    (
        "reconstruct_m2",
        ["reconstruct", "{FIX}/m2_f3t.json", "{FIX}/m2_f3t_matrix.json"],
    ),
    ("zeta_m2", ["zeta", "{FIX}/m2_f3t.json", "{FIX}/m2_f3t_matrix.json"]),
    ("eta_m2", ["eta", "{FIX}/m2_f3t.json", "t*d[t]", "d[t]^[2]"]),
    ("azumaya_m2", ["azumaya-check", "{FIX}/m2_f3t.json"]),
    ("azumaya_dual", ["azumaya-check", "{FIX}/dual_f3t.json"]),
    ("azumaya_h1p2", ["azumaya-check", "{FIX}/h1_p2.json"]),
    ("zfilt_dual", ["zfilt", "{FIX}/fin_dual_f7.json"]),
    ("zfilt_m2", ["zfilt", "{FIX}/fin_m2_f5.json"]),
    ("zfilt_dual_structured", ["zfilt", "{FIX}/fin_dual_f7.json", "--format", "structured"]),
    (
        "zfilt_relative",
        [
            "zfilt",
            "{FIX}/fin_m2_dual_f5.json",
            "--central",
            "{FIX}/fin_m2_dual_f5_centre.json",
        ],
    ),
]

COMMANDS = [
    "normalize",
    "comm",
    "apply",
    "compose",
    "mdeg",
    "order",
    "reduce",
    "weyl-decompose",
    "decompose",
    "reconstruct",
    "zeta",
    "eta",
    "azumaya-check",
    "zfilt",
]

CASES += [("help", ["--help"])] + [
    (f"help_{cmd.replace('-', '_')}", [cmd, "--help"]) for cmd in COMMANDS
]
