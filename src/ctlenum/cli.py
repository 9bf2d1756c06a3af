"""Command-line front end.

Exit codes: 0 command evaluated (whatever the answer) or output pipe
closed by the reader, 2 parse or validation error or input nested too
deeply, 3 oracle/fragment mismatch, 4 trim inapplicable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator

from . import formula as F
from .enumeration import (
    EnumerationStats,
    OracleKind,
    brute_force_enumerate,
    enumerate_submodels,
    exists_submodel,
)
from .errors import (
    CapExceeded,
    FormulaSyntaxError,
    InvalidModelError,
    ModelFormatError,
    NotAFAGChain,
    NotNNF,
    OracleFragmentMismatch,
)
from .kripke import canonical_serialize, load_model, require_valid, save_model
from .modelcheck import check
from .reductions import REDUCTIONS, load_digraph


def _add_formula_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text")
    group.add_argument("--formula-file", help="path to a formula text file")


def _read_formula(args: argparse.Namespace) -> F.Formula:
    if args.formula is not None:
        text = args.formula
    else:
        with open(args.formula_file, encoding="utf-8") as fh:
            text = fh.read()
    return F.parse_formula(text)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, not {text!r}"
        )
    return value


def _read_model(args: argparse.Namespace):
    model = load_model(args.model)
    require_valid(model)
    return model


def cmd_check(args: argparse.Namespace) -> int:
    model = _read_model(args)
    phi = _read_formula(args)
    print("true" if check(model, phi) else "false")
    return 0


def cmd_exists(args: argparse.Namespace) -> int:
    model = _read_model(args)
    phi = _read_formula(args)
    print("true" if exists_submodel(model, phi) else "false")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    model = _read_model(args)
    phi = _read_formula(args)
    connected = not args.include_disconnected
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        if args.oracle == "brute":
            stats = EnumerationStats()
            # brute force makes no oracle calls
            lines = stats.record(_brute_lines(model, phi, connected, args), lambda: 0)
        else:
            session = enumerate_submodels(
                model,
                phi,
                oracle=OracleKind(args.oracle),
                connected=connected,
                limit=args.limit,
            )
            stats = session.stats
            lines = map(canonical_serialize, session)
        for line in lines:
            out.write(line + "\n")
            out.flush()
        if args.stats:
            out.write(json.dumps(stats.to_dict()) + "\n")
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _brute_lines(model, phi, connected, args) -> Iterator[str]:
    """Brute-force solutions in sorted serialized order, up to the limit."""
    solutions = brute_force_enumerate(model, phi, connected=connected, cap=args.cap)
    yield from sorted(canonical_serialize(s) for s in solutions)[: args.limit]


def cmd_trim(args: argparse.Namespace) -> int:
    phi = _read_formula(args)
    trimmed = F.afag_trim(phi)
    print(F.render_formula(trimmed.to_formula()))
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    if args.kind == "sat-ag":
        if args.formula is None and args.formula_file is None:
            print(
                "error: reduce sat-ag needs --formula or --formula-file",
                file=sys.stderr,
            )
            return 2
        phi = _read_formula(args)
        try:
            instance = REDUCTIONS["sat-ag"](phi, encoding=args.encoding)
        except ValueError as exc:  # a formula without variables
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        if args.digraph is None:
            print(f"error: reduce {args.kind} needs --digraph", file=sys.stderr)
            return 2
        digraph = load_digraph(args.digraph)
        instance = REDUCTIONS[args.kind](digraph)
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.json")
    formula_path = os.path.join(args.out, "formula.txt")
    provenance_path = os.path.join(args.out, "provenance.json")
    save_model(instance.model, model_path)
    with open(formula_path, "w", encoding="utf-8") as fh:
        fh.write(F.render_formula(instance.formula) + "\n")
    with open(provenance_path, "w", encoding="utf-8") as fh:
        json.dump(instance.provenance, fh, indent=2)
        fh.write("\n")
    for path in (model_path, formula_path, provenance_path):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctlenum",
        description="Enumerate, check and generate CTL submodel instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="model-check a formula at the root")
    p_check.add_argument("--model", required=True)
    _add_formula_args(p_check)
    p_check.set_defaults(func=cmd_check)

    p_exists = sub.add_parser("exists", help="does any satisfying submodel exist")
    p_exists.add_argument("--model", required=True)
    _add_formula_args(p_exists)
    p_exists.set_defaults(func=cmd_exists)

    p_enum = sub.add_parser("enumerate", help="stream all satisfying submodels")
    p_enum.add_argument("--model", required=True)
    _add_formula_args(p_enum)
    p_enum.add_argument(
        "--oracle",
        choices=["auto", "exhaustive", "monotone", "afag", "brute"],
        default="auto",
    )
    p_enum.add_argument("--limit", type=_positive_int)
    p_enum.add_argument("--stats", action="store_true")
    p_enum.add_argument("--include-disconnected", action="store_true")
    p_enum.add_argument("--out", help="write the stream to a file")
    p_enum.add_argument("--cap", type=int, default=20, help="brute-force ground cap")
    p_enum.set_defaults(func=cmd_enumerate)

    p_trim = sub.add_parser("trim", help="normalize an AF/AG chain")
    _add_formula_args(p_trim)
    p_trim.set_defaults(func=cmd_trim)

    p_reduce = sub.add_parser("reduce", help="materialize a hardness instance")
    p_reduce.add_argument(
        "kind",
        choices=["sat-ag", "hampath-af", "hampath-ax", "hampath-au", "hampath-ar"],
    )
    p_reduce.add_argument("--formula")
    p_reduce.add_argument("--formula-file")
    p_reduce.add_argument("--digraph")
    p_reduce.add_argument("--encoding", choices=["negation", "relabel"], default="negation")
    p_reduce.add_argument("--out", default=".")
    p_reduce.set_defaults(func=cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader has gone, as when --limit stops early; point stdout at
        # the null device so the flush at interpreter exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormulaSyntaxError, ModelFormatError, InvalidModelError, NotNNF) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleFragmentMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotAFAGChain as exc:
        print(f"error: not an AF/AG chain: {exc}", file=sys.stderr)
        return 4
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
