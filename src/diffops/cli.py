"""Command-line interface: batch subcommands over the expression language.

Exit codes: 0 success; 1 syntax/validation errors (bad expressions, bad
flags, bad files); 2 violated mathematical preconditions (wrong
characteristic or mode, zero operator, size guards).

The default characteristic can be set with the DIFFOPS_CHAR environment
variable; --char always wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import MathError, ParseError, ValidationError
from .fields import FieldSpec
from .heisenberg import AlgebraContext, HElement, MODE_HEISENBERG, MODE_WEYL
from .operators import DOperator, mdeg, op_apply, op_compose, reduce_to_scalar
from .operators import inner_decompose
from .polydiff import PDOp, p_order
from .polyring import PolyRing
from . import azumaya as az
from . import findim
from .parsing import (
    element_from_text,
    infer_ring_variables,
    operator_from_text,
    pdop_from_text,
)
from .printing import (
    element_records,
    format_element,
    format_operator,
    format_pdop,
    operator_records,
    pdop_records,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    @staticmethod
    def _fail(message):
        print(f"error: {message}", file=sys.stderr)
        return 1


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _context(args) -> AlgebraContext:
    return AlgebraContext(args.n, FieldSpec(args.char), args.mode)


def _default_char() -> int:
    raw = os.environ.get("DIFFOPS_CHAR", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"bad DIFFOPS_CHAR value {raw!r}") from None


def _add_context_flags(sub, mode_default=MODE_HEISENBERG):
    sub.add_argument("--n", type=int, default=1, help="algebra rank (default 1)")
    sub.add_argument(
        "--char",
        type=int,
        default=None,
        help="field characteristic (default: DIFFOPS_CHAR or 0)",
    )
    sub.add_argument(
        "--mode",
        choices=[MODE_HEISENBERG, MODE_WEYL],
        default=mode_default,
        help=f"algebra mode (default {mode_default})",
    )
    _add_format_flag(sub)


def _add_format_flag(sub):
    sub.add_argument(
        "--format",
        choices=["text", "structured"],
        default="text",
        help="output form (default text)",
    )


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON in {path}: {exc}") from None


#: text form and record form of each printable value type
_FORMS = {
    HElement: (format_element, element_records),
    DOperator: (format_operator, operator_records),
    PDOp: (format_pdop, pdop_records),
}


def _print_value(v, fmt):
    text, records = _FORMS[type(v)]
    if fmt == "structured":
        for rec in records(v):
            print(_dumps(rec))
    else:
        print(text(v))


def _print_matrix(m, fmt, prefix=""):
    if fmt == "structured":
        for i, row in enumerate(m.entries):
            for j, e in enumerate(row):
                rec = {"row": i, "col": j, "terms": pdop_records(e)}
                if prefix:
                    rec["generator"] = prefix
                print(_dumps(rec))
    else:
        lead = f"{prefix} " if prefix else ""
        for i, row in enumerate(m.entries):
            for j, e in enumerate(row):
                print(f"{lead}entry {i} {j}: {format_pdop(e)}")


def _write_out(path, record):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _degree_text(value) -> str:
    return "-inf" if value == float("-inf") else str(int(value))


# -- command handlers -------------------------------------------------------------


def _cmd_normalize(args):
    ctx = _context(args)
    _print_value(element_from_text(ctx, args.expr), args.format)
    return 0


def _cmd_comm(args):
    ctx = _context(args)
    a = element_from_text(ctx, args.left)
    b = element_from_text(ctx, args.right)
    _print_value(a * b - b * a, args.format)
    return 0


def _cmd_apply(args):
    ctx = _context(args)
    d = operator_from_text(ctx, args.operator)
    a = element_from_text(ctx, args.element)
    _print_value(op_apply(d, a), args.format)
    return 0


def _cmd_compose(args):
    ctx = _context(args)
    d1 = operator_from_text(ctx, args.left)
    d2 = operator_from_text(ctx, args.right)
    _print_value(op_compose(d1, d2), args.format)
    return 0


def _cmd_mdeg(args):
    ctx = _context(args)
    d = operator_from_text(ctx, args.operator)
    value = _degree_text(mdeg(d))
    print(_dumps({"mdeg": value}) if args.format == "structured" else value)
    return 0


def _cmd_order(args):
    char = args.char if args.char is not None else _default_char()
    if args.vars:
        names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    else:
        names = infer_ring_variables(args.operator)
    ring = PolyRing(names, FieldSpec(char))
    d = pdop_from_text(ring, args.operator)
    value = _degree_text(p_order(d))
    print(_dumps({"order": value}) if args.format == "structured" else value)
    return 0


def _cmd_reduce(args):
    ctx = _context(args)
    d = operator_from_text(ctx, args.operator)
    witness = reduce_to_scalar(d)
    scalar = ctx.field.format(witness.scalar)
    if args.format == "structured":
        print(_dumps({"witness": list(witness.partners), "scalar": scalar}))
    else:
        print(f"witness: [{', '.join(witness.partners)}]")
        print(f"scalar: {scalar}")
    return 0


def _cmd_weyl_decompose(args):
    ctx = _context(args)
    d = operator_from_text(ctx, args.operator)
    pairs = inner_decompose(d)
    if args.format == "structured":
        for a, b in pairs:
            print(
                _dumps({"left": element_records(a), "right": element_records(b)})
            )
    else:
        for a, b in pairs:
            print(f"({format_element(a)}, {format_element(b)})")
    return 0


def _cmd_decompose(args):
    alg = az.algebra_from_record(_load_json(args.algebra))
    phi = az.matrix_from_record(_load_json(args.matrix))
    comps = az.decompose_operator(alg, phi)
    result = az.OperatorMatrix(alg.ring, comps)
    _print_matrix(result, args.format)
    if args.out:
        _write_out(args.out, az.matrix_to_record(result))
    return 0


def _cmd_reconstruct(args):
    alg = az.algebra_from_record(_load_json(args.algebra))
    comps = az.matrix_from_record(_load_json(args.components))
    result = az.reconstruct_operator(alg, comps.entries)
    _print_matrix(result, args.format)
    if args.out:
        _write_out(args.out, az.matrix_to_record(result))
    return 0


def _cmd_zeta(args):
    alg = az.algebra_from_record(_load_json(args.algebra))
    phi = az.matrix_from_record(_load_json(args.matrix))
    _print_value(az.restrict_to_base(alg, phi), args.format)
    return 0


def _cmd_eta(args):
    alg = az.algebra_from_record(_load_json(args.algebra))
    gens = [pdop_from_text(alg.ring, text) for text in args.generators]
    lifted = az.lift_from_base(alg, gens)
    for k, mat in enumerate(lifted):
        prefix = f"generator {k}" if len(lifted) > 1 else ""
        _print_matrix(mat, args.format, prefix=prefix)
    if args.out:
        _write_out(args.out, [az.matrix_to_record(m) for m in lifted])
    return 0


def _cmd_azumaya_check(args):
    alg = az.algebra_from_record(_load_json(args.algebra))
    ok = az.is_azumaya(alg, max_dim=args.max_dim)
    if args.format == "structured":
        print(_dumps({"azumaya": ok}))
    else:
        print(f"azumaya: {'true' if ok else 'false'}")
    return 0


def _cmd_zfilt(args):
    alg = findim.finalgebra_from_record(_load_json(args.algebra))
    if args.central:
        rec = _load_json(args.central)
        try:
            basis = [[str(c) for c in vec] for vec in rec["basis"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad central-basis file: {exc}") from None
        report = findim.relative_z_filtration(alg, basis, args.i_max)
    else:
        report = findim.z_filtration(alg, args.i_max)
    if args.format == "structured":
        for i, sub in report.levels:
            print(_dumps({"level": i, "dim": sub.dim}))
        print(_dumps({"stabilized_at": report.stabilized_at}))
    else:
        for i, sub in report.levels:
            print(f"level {i}: dim {sub.dim}")
        if report.stabilized_at is None:
            print("not stabilized within cap")
        else:
            print(f"stabilized at {report.stabilized_at}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffops", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("normalize", help="PBW normal form of an element expression")
    p.add_argument("expr")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_normalize)

    p = subs.add_parser("comm", help="commutator [a, b] of two elements")
    p.add_argument("left")
    p.add_argument("right")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_comm)

    p = subs.add_parser("apply", help="apply an operator to an element")
    p.add_argument("operator")
    p.add_argument("element")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_apply)

    p = subs.add_parser("compose", help="normal-ordered composition of two operators")
    p.add_argument("left")
    p.add_argument("right")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_compose)

    p = subs.add_parser("mdeg", help="filtration degree of an operator")
    p.add_argument("operator")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_mdeg)

    p = subs.add_parser("order", help="order of a polynomial differential operator")
    p.add_argument("operator")
    p.add_argument("--vars", help="comma-separated ring variables (default: inferred)")
    p.add_argument("--char", type=int, default=None)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_order)

    p = subs.add_parser("reduce", help="collapse a nonzero operator to a scalar by brackets")
    p.add_argument("operator")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_reduce)

    p = subs.add_parser(
        "weyl-decompose", help="write a Weyl-mode operator as sums lambda_a rho_b"
    )
    p.add_argument("operator")
    _add_context_flags(p, mode_default=MODE_WEYL)
    p.set_defaults(func=_cmd_weyl_decompose)

    p = subs.add_parser("decompose", help="components f_i Phi rho_j of an operator matrix")
    p.add_argument("algebra", help="structure-constant JSON file")
    p.add_argument("matrix", help="operator-matrix JSON file")
    p.add_argument("--out", help="write the component matrix as JSON")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("reconstruct", help="assemble an operator matrix from components")
    p.add_argument("algebra")
    p.add_argument("components", help="component-matrix JSON file")
    p.add_argument("--out", help="write the assembled matrix as JSON")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = subs.add_parser("zeta", help="restrict an operator matrix to the base ring")
    p.add_argument("algebra")
    p.add_argument("matrix")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_zeta)

    p = subs.add_parser("eta", help="lift base-ring operators to the algebra")
    p.add_argument("algebra")
    p.add_argument("generators", nargs="+", help="base-ring operator expressions")
    p.add_argument("--out", help="write the lifted matrices as JSON")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_eta)

    p = subs.add_parser(
        "azumaya-check", help="two-sided multiplication isomorphism test"
    )
    p.add_argument("algebra")
    p.add_argument("--max-dim", type=int, default=8, help="size guard (default 8)")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_azumaya_check)

    p = subs.add_parser("zfilt", help="differential filtration of a finite-dimensional algebra")
    p.add_argument("algebra")
    p.add_argument("--i-max", type=int, default=None, help="level cap (default dim^2)")
    p.add_argument("--central", help="JSON file with a central subalgebra basis")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_zfilt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "char") and args.char is None:
            args.char = _default_char()
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
