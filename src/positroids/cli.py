"""Command line interface.

Verbs: necklace, perm, bases, rank, bounds, morph-trace, from-matrix,
check, repro. Inputs arrive as JSON files (or '-' for stdin): a positroid
is {"n": ..., "pi": [...], "colors": {"3": "white", ...}} with colors
omitted when there are no fixed points, a necklace is {"n": ..., "sets":
[[...], ...]}, a matrix is a list of rows whose entries are integers or
"p/q" strings. Query sets are written like "1-3,8-10" (cyclic ranges
allowed, "" is the empty set).

Exit codes: 0 success, 1 invalid input or an enumeration cap hit,
2 internal contract violation (or a failed repro check). Set POSITROID_LOG
to debug, info, warning, error or critical (any case) to see diagnostics on
stderr; any other value means warning.

Start-up leaves out what most verbs never run: the repro verb imports
`repro` itself, and `logging` is imported only when POSITROID_LOG is set or
a caught error is logged, so the other verbs do not compile them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .cyclic import decompose, format_set_spec, parse_set_spec
from .errors import ContractViolationError, EnumerationLimitError, ValidationError
from .morph import MorphState, morph_sequence, witness_basis
from .positroid import GrassmannNecklace, Positroid, enumerate_bases, loops_and_coloops
from .rank import DEFAULT_PARTITION_LIMIT, RankCertificate, rank
from .realize import RationalMatrix, _signs, positroid_from_matrix

__all__ = ["main"]


def _read_json(path: str) -> Any:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    # ValueError covers JSONDecodeError, undecodable bytes and over-long
    # integers; a deeply nested file ends the decoder in RecursionError
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None


def _input_file(args: argparse.Namespace) -> tuple[str, str]:
    """The one input option given: perm, necklace or matrix, and its file."""
    given = [(k, path) for k in ("perm", "necklace", "matrix") if (path := getattr(args, k))]
    if not given:
        raise ValidationError("no positroid given; use --perm, --necklace or --matrix")
    if len(given) > 1:
        raise ValidationError("give exactly one of --perm, --necklace or --matrix")
    return given[0]


def _load_positroid(args: argparse.Namespace) -> Positroid:
    kind, path = _input_file(args)
    data = _read_json(path)
    if kind == "perm":
        return Positroid.from_json(data)
    if kind == "necklace":
        return Positroid.from_necklace(GrassmannNecklace.from_json(data))
    return positroid_from_matrix(RationalMatrix.from_json(data))


def _emit(args: argparse.Namespace, obj: Any, text_lines: list[str]) -> None:
    if args.text:
        for line in text_lines:
            print(line)
    else:
        print(json.dumps(obj, indent=2))


def _fmt_set(members) -> str:
    return "{" + ",".join(map(str, sorted(members))) + "}"


def _cmd_necklace(args: argparse.Namespace) -> int:
    P = _load_positroid(args)
    neck = P.necklace
    # sorted members straight off the masks; no frozenset is built
    sets = neck.to_json()["sets"]
    obj = {"n": neck.n, "d": neck.d, "sets": sets}
    lines = [f"I_{k} = {_fmt_set(I)}" for k, I in enumerate(sets, start=1)]
    _emit(args, obj, lines)
    return 0


def _cmd_perm(args: argparse.Namespace) -> int:
    P = _load_positroid(args)
    loops, coloops = loops_and_coloops(P)
    lines = [f"pi = {list(P.perm.images)}"]
    if loops:
        lines.append(f"white fixed points (loops): {sorted(loops)}")
    if coloops:
        lines.append(f"black fixed points (coloops): {sorted(coloops)}")
    _emit(args, P.to_json(), lines)
    return 0


def _cmd_bases(args: argparse.Namespace) -> int:
    P = _load_positroid(args)
    bases = [sorted(B) for B in enumerate_bases(P)]
    obj = {"n": P.n, "d": P.d, "count": len(bases), "bases": bases}
    lines = [_fmt_set(B) for B in bases]
    _emit(args, obj, lines)
    return 0


def _note_reduction(cert: RankCertificate, obj: dict[str, Any], lines: list[str]) -> None:
    """Mark an answer read off the reduction, with the coloops it adds."""
    if cert.reduced:
        obj["reduced"] = True
        obj["coloop_bonus"] = cert.coloop_bonus
        lines.append(
            f"(loops and coloops were stripped first; {cert.coloop_bonus} coloops counted)"
        )


def _cmd_rank(args: argparse.Namespace) -> int:
    P = _load_positroid(args)
    members = parse_set_spec(args.set, P.n)
    cert = rank(P, members, all_bounds=args.all_bounds, limit=args.limit_s)
    obj: dict[str, Any] = {
        "set": format_set_spec(members, P.n),
        "rank": cert.value,
        "intervals": [list(iv) for iv in cert.decomposition.intervals],
        "partition": [list(b) for b in cert.partition.blocks],
        "per_block_bounds": list(cert.per_block_bounds),
    }
    lines = [
        f"set = {obj['set'] or '(empty)'}",
        f"rank = {cert.value}",
        f"partition = {cert.partition}",
    ]
    _note_reduction(cert, obj, lines)
    if cert.all_bounds is not None:
        obj["bounds"] = {str(p): v for p, v in cert.all_bounds}
        lines += [f"nbd {p} = {v}" for p, v in cert.all_bounds]
    if args.witness:
        # the table and the witness's tight partition prove the rank apart
        W = witness_basis(P, members)
        if len(W & members) != cert.value:
            raise ContractViolationError(
                f"witness meets the set in {len(W & members)} elements, not rank {cert.value}"
            )
        obj["witness"] = sorted(W)
        lines.append(f"witness basis = {_fmt_set(W)}")
    _emit(args, obj, lines)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    P = _load_positroid(args)
    members = parse_set_spec(args.set, P.n)
    cert = rank(P, members, all_bounds=True, limit=args.limit_s)
    bounds = cert.all_bounds or ()  # never None here: all_bounds was asked for
    obj: dict[str, Any] = {
        "set": format_set_spec(members, P.n),
        "s": cert.decomposition.s,
        "bounds": {str(p): v for p, v in bounds},
        "rank": cert.value,
    }
    lines = [f"nbd {p} = {v}" for p, v in bounds]
    _note_reduction(cert, obj, lines)
    if cert.reduced:
        low, bonus = cert.value - cert.coloop_bonus, cert.coloop_bonus
        lines.append(f"minimum + coloops (= rank) = {low} + {bonus} = {cert.value}")
    else:
        lines.append(f"minimum (= rank) = {cert.value}")
    _emit(args, obj, lines)
    return 0


def _state_obj(st: MorphState) -> dict[str, Any]:
    return {
        "start": st.start,
        "stage": st.stage,
        "members": sorted(st.members),
        "status": st.status.value if st.status else None,
        "window": list(st.window) if st.window else None,
        "center": st.center,
        "exchange": None
        if st.exchange is None
        else {
            "kind": st.exchange.kind.value,
            "removed": list(st.exchange.removed),
            "added": list(st.exchange.added),
        },
    }


def _state_line(st: MorphState, anchor: int) -> str:
    if st.stage == 0:
        return f"stage 0: start from I_{anchor} = {_fmt_set(st.members)}"
    ex = st.exchange
    b, d = st.window
    move = f"-{_fmt_set(ex.removed)} +{_fmt_set(ex.added)}" if ex.removed else "no move"
    return (
        f"stage {st.stage}: mimic I_{st.center} in ({b},{d}]: {move} "
        f"-> {_fmt_set(st.members)} ({st.status.value})"
    )


def _cmd_morph_trace(args: argparse.Namespace) -> int:
    P = _load_positroid(args)
    members = parse_set_spec(args.set, P.n)
    if not members:
        _emit(args, [], ["(empty set: nothing to morph)"])
        return 0
    decomp = decompose(members, P.n)
    states = morph_sequence(P, decomp, args.start)
    anchor = decomp.intervals[args.start - 1][0]
    _emit(
        args,
        [_state_obj(st) for st in states],
        [_state_line(st, anchor) for st in states],
    )
    return 0


def _cmd_from_matrix(args: argparse.Namespace) -> int:
    P = positroid_from_matrix(RationalMatrix.from_json(_read_json(args.matrix)))
    lines = [f"pi = {list(P.perm.images)}", f"n = {P.n}, d = {P.d}"]
    _emit(args, P.to_json(), lines)
    return 0


def _fraction_str(value) -> str:
    return str(value) if value.denominator != 1 else str(value.numerator)


def _cmd_check(args: argparse.Namespace) -> int:
    kind, path = _input_file(args)
    try:
        if kind == "matrix":
            A = RationalMatrix.from_json(_read_json(path))
            full, witness = _signs(A)
            obj: dict[str, Any] = {
                "valid": full and witness is None,
                "kind": "matrix",
                "rows": A.r,
                "columns": A.n,
                "full_row_rank": full,
                "totally_nonnegative": witness is None,
            }
            if witness is not None:
                cols, value = witness
                obj["negative_minor"] = {
                    "columns": list(cols),
                    "value": _fraction_str(value),
                }
        else:
            P = _load_positroid(args)
            obj = {
                "valid": True,
                "kind": "permutation" if kind == "perm" else "necklace",
                "n": P.n,
                "d": P.d,
            }
            if kind == "perm":
                loops, coloops = loops_and_coloops(P)
                obj.update(loops=sorted(loops), coloops=sorted(coloops))
            else:
                obj["pi"] = list(P.perm.images)
    except ValidationError as exc:
        _emit(args, {"valid": False, "kind": kind, "error": str(exc)}, [f"invalid: {exc}"])
        return 1
    ok = bool(obj["valid"])
    lines = [f"{'valid' if ok else 'invalid'} {obj['kind']}"] + [
        f"{key} = {val}" for key, val in obj.items() if key not in ("valid", "kind")
    ]
    _emit(args, obj, lines)
    return 0 if ok else 1


def _cmd_repro(args: argparse.Namespace) -> int:
    from .repro import run_all

    results = run_all()
    obj = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    lines = [
        f"ok   {r.name}" if r.ok else f"FAIL {r.name}: {r.detail}" for r in results
    ]
    failed = sum(1 for r in results if not r.ok)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        if failed
        else f"all {len(results)} checks passed"
    )
    _emit(args, obj, lines)
    return 2 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    fmt = output.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="text", action="store_false", help="JSON output (default)")
    fmt.add_argument("--text", dest="text", action="store_true", help="plain text output")
    output.set_defaults(text=False)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--perm", metavar="FILE", help="positroid JSON file, or - for stdin")
    inputs.add_argument("--necklace", metavar="FILE", help="necklace JSON file, or - for stdin")
    inputs.add_argument("--matrix", metavar="FILE", help="matrix JSON file, or - for stdin")

    subset = argparse.ArgumentParser(add_help=False)
    subset.add_argument("--set", required=True, help='subset like "1-3,8-10" ("" = empty)')

    limit = argparse.ArgumentParser(add_help=False)
    limit.add_argument(
        "--limit-s", type=int, default=DEFAULT_PARTITION_LIMIT, metavar="N",
        help="max interval count for listing bounds (default %(default)s)",
    )

    parser = argparse.ArgumentParser(
        prog="positroid",
        description="Positroid toolkit: necklaces, bases, subset ranks, morphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("necklace", parents=[inputs, output], help="print the Grassmann necklace")
    sub.add_parser("perm", parents=[inputs, output], help="print the decorated permutation")
    sub.add_parser("bases", parents=[inputs, output], help="enumerate all bases (n <= 20)")

    # rank's own flags, kept between --set and --limit-s in its usage line
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--all-bounds", action="store_true", help="list every partition bound")
    flags.add_argument("--witness", action="store_true", help="also build a witness basis")
    query = [inputs, output, subset]
    sub.add_parser("rank", parents=[*query, flags, limit], help="rank of a subset")
    sub.add_parser("bounds", parents=[*query, limit], help="every non-crossing partition bound")

    p_morph = sub.add_parser("morph-trace", parents=query, help="stage-by-stage morph states")
    p_morph.add_argument(
        "--start", type=int, default=1, metavar="I", help="interval to start from (default 1)"
    )

    p_fm = sub.add_parser(
        "from-matrix", parents=[output], help="positroid of a totally nonnegative matrix"
    )
    p_fm.add_argument("--matrix", metavar="FILE", required=True, help="matrix JSON, - for stdin")

    sub.add_parser("check", parents=[inputs, output], help="validate an input file")
    sub.add_parser("repro", parents=[output], help="re-run the built-in reference checks")
    return parser


_COMMANDS = {
    "necklace": _cmd_necklace,
    "perm": _cmd_perm,
    "bases": _cmd_bases,
    "rank": _cmd_rank,
    "bounds": _cmd_bounds,
    "morph-trace": _cmd_morph_trace,
    "from-matrix": _cmd_from_matrix,
    "check": _cmd_check,
    "repro": _cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("POSITROID_LOG", "").upper()
    if level:
        import logging

        known = level in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
        logging.basicConfig(level=level if known else "WARNING", stream=sys.stderr)
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (ValidationError, EnumerationLimitError, ContractViolationError) as exc:
        import logging

        logging.getLogger("positroids").debug("%s failed", args.verb, exc_info=True)
        internal = isinstance(exc, ContractViolationError)
        print(f"{'internal error' if internal else 'error'}: {exc}", file=sys.stderr)
        return 2 if internal else 1


if __name__ == "__main__":
    sys.exit(main())
