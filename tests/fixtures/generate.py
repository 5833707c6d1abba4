"""Regenerate the committed JSON fixtures used by the CLI tests.

Run from the repository root:  python tests/fixtures/generate.py [OUT_DIR]
(OUT_DIR defaults to this directory.)
"""

import json
import os
import sys

from diffops.azumaya import (
    algebra_to_record,
    build_dual_numbers,
    build_heisenberg_charp,
    build_matrix_algebra,
    diagonal_extend,
    matrix_to_record,
    matrix_unit_op,
)
from diffops.fields import FieldSpec
from diffops.findim import (
    dual_numbers_algebra,
    finalgebra_to_record,
    matrix_algebra,
    tensor_algebra,
)
from diffops.parsing import pdop_from_text
from diffops.polyring import PolyRing

HERE = os.path.dirname(os.path.abspath(__file__))


def main(out=HERE):
    def dump(name, record):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True, indent=1)
            fh.write("\n")

    rt3 = PolyRing(("t",), FieldSpec(3))
    m2 = build_matrix_algebra(2, rt3)
    dump("m2_f3t.json", algebra_to_record(m2))

    h1 = build_heisenberg_charp(1, 2)
    rec = algebra_to_record(h1)
    rec["heisenberg_params"] = [1, 2]
    dump("h1_p2.json", rec)

    dump("dual_f3t.json", algebra_to_record(build_dual_numbers(rt3)))

    # a sample operator matrix on M_2(F_3[t]): extension of t*d[t] plus a basis unit
    phi = diagonal_extend(m2, pdop_from_text(rt3, "t*d[t]")) + matrix_unit_op(m2, 1, 2)
    dump("m2_f3t_matrix.json", matrix_to_record(phi))

    dump("fin_dual_f7.json", finalgebra_to_record(dual_numbers_algebra(FieldSpec(7))))
    f5 = FieldSpec(5)
    dump("fin_m2_f5.json", finalgebra_to_record(matrix_algebra(2, f5)))
    big = tensor_algebra(matrix_algebra(2, f5), dual_numbers_algebra(f5))
    dump("fin_m2_dual_f5.json", finalgebra_to_record(big))

    # central subalgebra 1 (x) F_5[eps] of M_2(F_5[eps]), as coordinates
    unit = ["1" if lab == "1.1" else "0" for lab in big.labels]
    eps = ["1" if lab == "1.eps" else "0" for lab in big.labels]
    dump("fin_m2_dual_f5_centre.json", {"basis": [unit, eps]})


if __name__ == "__main__":
    main(*sys.argv[1:])
