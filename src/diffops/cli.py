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
from functools import partial

from .errors import DiffopsError, MathError, ValidationError
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
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _default_char() -> int:
    raw = os.environ.get("DIFFOPS_CHAR", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"bad DIFFOPS_CHAR value {raw!r}") from None


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON in {path}: {exc}") from None


def _write_out(path, record):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, sort_keys=True, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from None


# -- output -----------------------------------------------------------------------


def _emit(fmt, record, text):
    """Print one JSON record in the structured form, else the text."""
    print(_dumps(record) if fmt == "structured" else text)


#: text form and record form of each printable value type
_FORMS = {
    HElement: (format_element, element_records),
    DOperator: (format_operator, operator_records),
    PDOp: (format_pdop, pdop_records),
}


def _print_value(fmt, v):
    text, records = _FORMS[type(v)]
    if fmt == "structured":
        for rec in records(v):
            print(_dumps(rec))
    else:
        print(text(v))


def _print_degree(fmt, name, value):
    text = "-inf" if value == float("-inf") else str(int(value))
    _emit(fmt, {name: text}, text)


def _print_matrix(fmt, m, prefix=""):
    lead = f"{prefix} " if prefix else ""
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            rec = {"row": i, "col": j, "terms": pdop_records(e)}
            if prefix:
                rec["generator"] = prefix
            _emit(fmt, rec, f"{lead}entry {i} {j}: {format_pdop(e)}")


# -- commands in an algebra context -----------------------------------------------


def _run_in_context(inputs, show, args):
    """Read each positional by its kind in AlgebraContext(--n, --char,
    --mode), in the written order, and pass the values to show."""
    ctx = AlgebraContext(args.n, FieldSpec(args.char), args.mode)
    show(args.format, *[read(ctx, getattr(args, name)) for name, read in inputs])


def _show_reduce(fmt, d):
    witness = reduce_to_scalar(d)
    scalar = d.ctx.field.format(witness.scalar)
    partners = list(witness.partners)
    text = f"witness: [{', '.join(partners)}]\nscalar: {scalar}"
    _emit(fmt, {"witness": partners, "scalar": scalar}, text)


def _show_pairs(fmt, d):
    for a, b in inner_decompose(d):
        record = {"left": element_records(a), "right": element_records(b)}
        _emit(fmt, record, f"({format_element(a)}, {format_element(b)})")


# -- commands on polynomial operators and algebra files ---------------------------


def _cmd_order(args):
    if args.vars:
        names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    else:
        names = infer_ring_variables(args.operator)
    d = pdop_from_text(PolyRing(names, FieldSpec(args.char)), args.operator)
    _print_degree(args.format, "order", p_order(d))


def _cmd_decompose(args):
    alg = az.algebra_from_record(_load_json(args.algebra))
    phi = az.matrix_from_record(_load_json(args.matrix))
    result = az.OperatorMatrix(alg.ring, az.decompose_operator(alg, phi))
    _print_matrix(args.format, result)
    _write_out(args.out, az.matrix_to_record(result))


def _cmd_reconstruct(args):
    alg = az.algebra_from_record(_load_json(args.algebra))
    comps = az.matrix_from_record(_load_json(args.components))
    result = az.reconstruct_operator(alg, comps.entries)
    _print_matrix(args.format, result)
    _write_out(args.out, az.matrix_to_record(result))


def _cmd_zeta(args):
    alg = az.algebra_from_record(_load_json(args.algebra))
    phi = az.matrix_from_record(_load_json(args.matrix))
    _print_value(args.format, az.restrict_to_base(alg, phi))


def _cmd_eta(args):
    alg = az.algebra_from_record(_load_json(args.algebra))
    gens = [pdop_from_text(alg.ring, text) for text in args.generators]
    lifted = az.lift_from_base(alg, gens)
    for k, mat in enumerate(lifted):
        _print_matrix(args.format, mat, f"generator {k}" if len(lifted) > 1 else "")
    _write_out(args.out, [az.matrix_to_record(m) for m in lifted])


def _cmd_azumaya_check(args):
    alg = az.algebra_from_record(_load_json(args.algebra))
    ok = az.is_azumaya(alg, max_dim=args.max_dim)
    _emit(args.format, {"azumaya": ok}, f"azumaya: {_dumps(ok)}")


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
    for i, sub in report.levels:
        _emit(args.format, {"level": i, "dim": sub.dim}, f"level {i}: dim {sub.dim}")
    at = report.stabilized_at
    text = "not stabilized within cap" if at is None else f"stabilized at {at}"
    _emit(args.format, {"stabilized_at": at}, text)


# -- the command table ------------------------------------------------------------


def _context_flags(mode_default):
    return [
        ("--n", dict(type=int, default=1, help="algebra rank (default 1)")),
        ("--char", dict(type=int, default=None,
                        help="field characteristic (default: DIFFOPS_CHAR or 0)")),
        ("--mode", dict(choices=[MODE_HEISENBERG, MODE_WEYL], default=mode_default,
                        help=f"algebra mode (default {mode_default})")),
    ]


_CONTEXT = _context_flags(MODE_HEISENBERG)
_FORMAT = ("--format", dict(choices=["text", "structured"], default="text",
                            help="output form (default text)"))
_EL, _OP = element_from_text, operator_from_text  # kinds of context positionals


def _arg(name, help_text=None, nargs=None):
    """A positional without a kind: its handler reads it."""
    return (name, None, dict(help=help_text, nargs=nargs))


def _out(help_text):
    return ("--out", dict(help=help_text))


#: name, help, positionals as (name, kind, add_argument keywords), flags other
#: than --format, and the handler: show(format, *values) when the positionals
#: have kinds, else handler(args)
_COMMANDS = [
    ("normalize", "PBW normal form of an element expression",
     [("expr", _EL, {})], _CONTEXT, _print_value),
    ("comm", "commutator [a, b] of two elements",
     [("left", _EL, {}), ("right", _EL, {})], _CONTEXT,
     lambda fmt, a, b: _print_value(fmt, a * b - b * a)),
    ("apply", "apply an operator to an element",
     [("operator", _OP, {}), ("element", _EL, {})], _CONTEXT,
     lambda fmt, d, a: _print_value(fmt, op_apply(d, a))),
    ("compose", "normal-ordered composition of two operators",
     [("left", _OP, {}), ("right", _OP, {})], _CONTEXT,
     lambda fmt, d1, d2: _print_value(fmt, op_compose(d1, d2))),
    ("mdeg", "filtration degree of an operator",
     [("operator", _OP, {})], _CONTEXT,
     lambda fmt, d: _print_degree(fmt, "mdeg", mdeg(d))),
    ("order", "order of a polynomial differential operator",
     [_arg("operator")],
     [("--vars", dict(help="comma-separated ring variables (default: inferred)")),
      ("--char", dict(type=int, default=None))],
     _cmd_order),
    ("reduce", "collapse a nonzero operator to a scalar by brackets",
     [("operator", _OP, {})], _CONTEXT, _show_reduce),
    ("weyl-decompose", "write a Weyl-mode operator as sums lambda_a rho_b",
     [("operator", _OP, {})], _context_flags(MODE_WEYL), _show_pairs),
    ("decompose", "components f_i Phi rho_j of an operator matrix",
     [_arg("algebra", "structure-constant JSON file"),
      _arg("matrix", "operator-matrix JSON file")],
     [_out("write the component matrix as JSON")], _cmd_decompose),
    ("reconstruct", "assemble an operator matrix from components",
     [_arg("algebra"), _arg("components", "component-matrix JSON file")],
     [_out("write the assembled matrix as JSON")], _cmd_reconstruct),
    ("zeta", "restrict an operator matrix to the base ring",
     [_arg("algebra"), _arg("matrix")], [], _cmd_zeta),
    ("eta", "lift base-ring operators to the algebra",
     [_arg("algebra"), _arg("generators", "base-ring operator expressions", "+")],
     [_out("write the lifted matrices as JSON")], _cmd_eta),
    ("azumaya-check", "two-sided multiplication isomorphism test",
     [_arg("algebra")],
     [("--max-dim", dict(type=int, default=8, help="size guard (default 8)"))],
     _cmd_azumaya_check),
    ("zfilt", "differential filtration of a finite-dimensional algebra",
     [_arg("algebra")],
     [("--i-max", dict(type=int, default=None, help="level cap (default dim^2)")),
      ("--central", dict(help="JSON file with a central subalgebra basis"))],
     _cmd_zfilt),
]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffops", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, positionals, flags, handler in _COMMANDS:
        p = subs.add_parser(name, help=help_text)
        for arg, _kind, options in positionals:
            p.add_argument(arg, **options)
        for flag, options in [*flags, _FORMAT]:
            p.add_argument(flag, **options)
        inputs = [(arg, kind) for arg, kind, _ in positionals if kind]
        p.set_defaults(func=partial(_run_in_context, inputs, handler) if inputs else handler)
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
        args.func(args)
    except DiffopsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, MathError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
