"""Command-line surface.

Exit codes: 0 when the requested check holds (or the computation succeeded),
1 when a checked property fails, 2 on usage or input errors.  ``--json``
emits canonical JSON (sorted keys, fixed separators), so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .algebra import Algebra, IDENTITY_TAGS, check_identity, json_pair
from .actions import (
    ActionData,
    DEFAULT_BUDGET,
    VARIETIES,
    SplitExtension,
    enumerate_actions,
    extract_action,
    is_acting_morphism,
    semidirect,
    validate_action,
    weak_actor,
)
from .catalog import MorphismData, open_problem_search, repro_suite
from .errors import AlgactError, InputError, InvalidAction
from .fields import Field, GF, Q
from .opspace import SPACE_KINDS, space_of_kind

USAGE_ERROR = 2
CHECK_FAILED = 1
OK = 0


def _dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad, too deeply nested or non-UTF-8 JSON
        raise InputError(f"{path} is not valid UTF-8 JSON: {exc}") from exc


def _write_output(path: str, data) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dump_json(data))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _parse_field(text: str) -> Field:
    if text in ("Q", "q"):
        return Q
    try:
        if not (text.isascii() and text.isdigit()):  # no sign, space, "_" or other digits
            raise ValueError
        return GF(int(text))
    except ValueError:
        raise InputError(f"field must be Q or an odd prime, got {text!r}") from None


def _cmd_check(args, out) -> int:
    A = Algebra.from_json_dict(_load_json_file(args.file))
    report = check_identity(A, args.identity)
    if args.json:
        out.write(_dump_json(report.to_json_dict(A.field)))
    else:
        if report.holds:
            out.write(f"{args.identity}: holds\n")
        else:
            defect = ", ".join(A.field.to_str(x) for x in report.defect)
            out.write(
                f"{args.identity}: fails ({report.failed_part}) at basis tuple "
                f"{report.witness}; defect [{defect}]\n"
            )
    return OK if report.holds else CHECK_FAILED


def _cmd_space(args, out) -> int:
    A = Algebra.from_json_dict(_load_json_file(args.file))
    space = space_of_kind(A, args.kind)
    alg = space.algebra
    if args.output:
        if alg is None:
            raise InputError(
                f"the {args.kind} space has no induced operations; "
                "use --json to export its basis"
            )
        _write_output(args.output, alg.to_json_dict())
    if args.json:
        out.write(_dump_json(space.to_json_dict()))
    else:
        ops = ", ".join(op.name for op in alg.ops) if alg is not None else "none"
        out.write(f"{args.kind}: dimension {space.dim}, induced operations: {ops}\n")
    return OK


def _cmd_action_validate(args, out) -> int:
    action = ActionData.from_json_dict(_load_json_file(args.file))
    report = validate_action(action)
    if args.json:
        out.write(_dump_json(report.to_json_dict(action.field)))
    else:
        for cond in report.conditions:
            status = "holds" if cond.holds else "FAILS"
            line = f"({cond.label}) {status}"
            if not cond.holds:
                defect = ", ".join(action.field.to_str(x) for x in cond.defect)
                line += f" at {cond.witness}; defect [{defect}]"
            out.write(line + "\n")
        out.write(f"action: {'valid' if report.passed else 'invalid'}\n")
    return OK if report.passed else CHECK_FAILED


def _cmd_action_semidirect(args, out) -> int:
    action = ActionData.from_json_dict(_load_json_file(args.file))
    try:
        ext = semidirect(action)
    except InvalidAction as exc:
        if args.json:
            out.write(_dump_json(exc.report.to_json_dict(action.field)))
        else:
            out.write(f"invalid action: fails {', '.join(exc.report.failed_labels())}\n")
        return CHECK_FAILED
    _write_output(args.output, ext.to_json_dict())
    if args.json:
        out.write(_dump_json(ext.to_json_dict()))
    else:
        out.write(
            f"semidirect product of dimension {ext.total.dim} written to {args.output}\n"
        )
    return OK


def _cmd_action_extract(args, out) -> int:
    ext = SplitExtension.from_json_dict(_load_json_file(args.file))
    action = extract_action(ext, args.variety)
    data = action.to_json_dict()
    if args.output:
        _write_output(args.output, data)
    if args.json or not args.output:
        out.write(_dump_json(data))
    else:
        out.write(f"derived action written to {args.output}\n")
    return OK


def _cmd_morphism_check(args, out) -> int:
    data = MorphismData.from_json_dict(_load_json_file(args.file))
    space = weak_actor(data.kernel, data.variety)
    mor = space.morphism(data.acting, space.matrix_of(data.images))
    verdict = is_acting_morphism(mor)
    if verdict.acting:
        if args.json:
            out.write(_dump_json({"acting": True}))
        else:
            out.write("acting: the morphism corresponds to a split extension\n")
        return OK
    report = validate_action(verdict.action)
    failed = report.failed_labels()
    f = data.acting.field
    if args.json:
        payload = verdict.to_json_dict(f)
        payload["failed_conditions"] = failed
        out.write(_dump_json(payload))
    else:
        parts = []
        for label in failed:
            cond = report.condition(label)
            defect = ", ".join(f.to_str(x) for x in cond.defect)
            parts.append(f"({label}) defect [{defect}] at {cond.witness}")
        out.write("not acting: " + "; ".join(parts) + "\n")
    return CHECK_FAILED


def _cmd_repro(args, out) -> int:
    field = _parse_field(args.field)
    fact_ids = set(args.fact) if args.fact else None
    report = repro_suite(field, fact_ids)
    if args.json:
        out.write(_dump_json(report.to_json_dict()))
    else:
        out.write(report.to_text() + "\n")
    return OK if report.passed else CHECK_FAILED


def _cmd_hunt(args, out) -> int:
    report = open_problem_search(GF(args.p), args.dim, args.samples, args.seed)
    if args.json:
        out.write(_dump_json(report.to_json_dict()))
    else:
        out.write(report.to_text() + "\n")
    return OK


def _cmd_enumerate(args, out) -> int:
    variety, acting, kernel = json_pair(_load_json_file(args.pairfile), "pair file")
    found = enumerate_actions(acting, kernel, variety, budget=args.budget)
    if args.json:
        out.write(
            _dump_json(
                {
                    "count": len(found),
                    "actions": [a.to_json_dict() for a in found],
                }
            )
        )
    else:
        out.write(f"{len(found)} valid actions\n")
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="algact",
        description="exact computations with actions and actors of "
        "finite-dimensional algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options of every command
    common.add_argument("--json", action="store_true")

    def command(subparsers, name, fn, file=None, **kwargs):
        """The parser of one command, which ``fn`` runs, reading ``file`` if given."""
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        if file:
            p.add_argument(file)
        p.set_defaults(fn=fn)
        return p

    p = command(sub, "check", _cmd_check, "file", help="test a named identity of an algebra file")
    p.add_argument("--identity", required=True, choices=IDENTITY_TAGS)

    p = command(sub, "space", _cmd_space, "file", help="compute an operator space")
    p.add_argument("--kind", required=True, choices=SPACE_KINDS)
    p.add_argument("-o", "--output", help="write the induced algebra as a file")

    p_action = sub.add_parser("action", help="validate, build or split actions")
    action_sub = p_action.add_subparsers(dest="subcommand", required=True)
    command(action_sub, "validate", _cmd_action_validate, "file")
    p = command(action_sub, "semidirect", _cmd_action_semidirect, "file")
    p.add_argument("-o", "--output", required=True)
    p = command(action_sub, "extract", _cmd_action_extract, "file")
    p.add_argument("--variety", required=True, choices=VARIETIES)
    p.add_argument("-o", "--output")

    p_mor = sub.add_parser("morphism", help="test morphisms into a weak actor")
    mor_sub = p_mor.add_subparsers(dest="subcommand", required=True)
    command(mor_sub, "check", _cmd_morphism_check, "file")

    p = command(sub, "repro", _cmd_repro, help="replay the built-in fact suite")
    p.add_argument("--fact", action="append", help="restrict to a fact id (repeatable)")
    p.add_argument("--field", default="Q", help="Q or an odd prime")

    p = command(sub, "hunt", _cmd_hunt, help="random search for an actor-space counterexample")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = command(sub, "enumerate", _cmd_enumerate, "pairfile",
                help="exhaust all valid actions of a pair")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most matrices into the weak actor to try, p^(dim E * dim B) "
                   "(default: 3^10)")

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, 0 on --help
        return USAGE_ERROR if exc.code not in (0, None) else OK
    try:
        return args.fn(args, out)
    except AlgactError as exc:
        err.write(f"error [{type(exc).__name__}]: {exc}\n")
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
