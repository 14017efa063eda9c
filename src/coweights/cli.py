"""Command-line front end: single queries, reordering walkthroughs, sweeps.

Each subcommand is a row of :func:`_commands` (its help, handler and
flags), and each flag a row of :data:`_FLAGS`; ``coweights --help`` lists
the subcommands.

The small commands write text lines, or with ``--format json`` one record
opening with ``schema, command, family, sector``; ``eta`` reports a failed
precondition as ``precondition_failed`` with ``"ok": false``.  ``verify``
and ``sweep`` write newline-delimited JSON: each instance's record as soon
as it is done, in grid order also with ``sweep --jobs`` (at least 1), then
a summary, so output is byte-identical for identical inputs.  ``sweep``
draws at most ``4 * jobs`` instances ahead of the record it writes.

Exit codes: 0 all requested relations hold; 1 a mathematical verdict is
false (or a reordering precondition fails); 2 usage or validation error,
an unwritable ``--out`` included; 3 enumeration cap or any unexpected
internal error, reported on one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence

from .core import (
    CapExceeded,
    Coweight,
    Family,
    GroupKind,
    MismatchError,
    NotDominantError,
    PreconditionError,
    Scalar,
    Sector,
    coweight,
    in_hull,
    is_dominant,
    leq,
    order_rows,
    same_class_XG,
    weyl_orbit_equivalent,
    ShapeError,
)
from .levi import LeviShape, class_of, minuscule_lift, project
from .oracle import (
    BOX_CAP,
    SweepConfig,
    VerificationReport,
    enumerate_Pmu,
    run_instance,
    sweep_instances,
)
from .reorder import dominant_reordering

SCHEMA = 1

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _family(text: str) -> Family:
    try:
        return Family(text.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown family {text!r} (expected A, B, or D)")


def _sector(text: str) -> Sector:
    try:
        return Sector(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown sector {text!r} (expected integral or half)")


def _families(text: str) -> tuple[Family, ...]:
    return tuple(_family(part) for part in text.split(","))


def _sectors(text: str) -> tuple[Sector, ...]:
    return tuple(_sector(part) for part in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _parse_rationals(text: str) -> tuple[Scalar, ...]:
    out: list[Scalar] = []
    for part in text.split(","):
        try:
            out.append(int(part))
        except ValueError:
            try:
                out.append(Fraction(part))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"expected an integer or fraction, got {part!r}")
    return tuple(out)


def _parse_shape(text: str, family: Family, rank: int | None = None) -> LeviShape:
    """``"2,1;2"`` as GL blocks (2, 1) and orthogonal rank 2, of the given
    rank or else of the rank the blocks fill, which must not pass
    ``BOX_CAP``: a lift builds one entry per coordinate.  That rank is
    taken as at least 1, so that :class:`LeviShape`, not
    :class:`GroupKind`, names a size below zero."""
    gl_text, _, so_text = text.partition(";")
    gl = _parse_ints(gl_text) if gl_text else ()
    so = int(so_text) if so_text else 0
    if rank is None:
        rank = max(sum(gl) + so, 1)
        if rank > BOX_CAP:
            raise CapExceeded(f"a shape of rank {rank} exceeds the cap of {BOX_CAP}")
    return LeviShape(GroupKind(family, rank), gl, so)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _scalar_json(value: Scalar) -> Any:
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def _class_json(cls) -> dict[str, Any]:
    return {
        "sums": list(cls.batch_sums),
        "so_class": cls.so_class,
        "lift": list(cls.canonical_lift.entries),
    }


def _instance_json(shape: LeviShape, mu: Coweight) -> dict[str, Any]:
    """The fields that open every per-instance record."""
    return {
        "schema": SCHEMA,
        "family": shape.kind.family.value,
        "rank": shape.kind.rank,
        "sector": mu.sector.value,
        "shape": str(shape),
        "mu": list(mu.entries),
    }


def report_json(report: VerificationReport) -> dict[str, Any]:
    record: dict[str, Any] = {
        **_instance_json(report.shape, report.mu),
        "lhs": [_class_json(c) for c, _ in report.witnesses],
        "rhs": [_class_json(c) for c in sorted(report.rhs_classes, key=lambda c: c.sort_key())],
        "equal": report.equal,
        "missing_from_lhs": [_class_json(c) for c in report.missing_from_lhs],
        "missing_from_rhs": [_class_json(c) for c in report.missing_from_rhs],
        "witnesses": [
            {"class": _class_json(c), "nu": list(w.entries)}
            for c, w in report.witnesses
        ],
    }
    if report.property_failures:
        record["property_failures"] = list(report.property_failures)
    return record


class _Writer:
    """Standard output, or the ``--out`` file, opened only once every
    argument has been validated; an unwritable path is a usage error."""

    def __init__(self, path: str | None):
        try:
            self._file = open(path, "w", encoding="utf-8") if path else sys.stdout
        except OSError as exc:
            raise ValueError(f"cannot write --out {path}: {exc.strerror or exc}")
        self._owned = path is not None

    def record(self, payload: dict[str, Any]) -> None:
        self._file.write(json.dumps(payload, separators=(", ", ": ")) + "\n")

    def line(self, text: str) -> None:
        self._file.write(text + "\n")

    def close(self) -> None:
        if self._owned:
            self._file.close()
        else:
            self._file.flush()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _order_members(
    family: Family, x: Sequence[Scalar], mu: Sequence[Scalar]
) -> list[dict[str, Any]]:
    """The rows of the order relation (:func:`order_rows`), with both sides."""
    n = len(mu)
    labels = [f"S_{k}" for k in range(1, n + 1)]
    if family is Family.D:
        labels[n - 2] = f"S_{n - 1}-x_{n}"
    members = []
    for k, (label, lhs, rhs) in enumerate(zip(labels, *order_rows(family, x, mu)), 1):
        equality = family is Family.A and k == n
        members.append({
            "label": label,
            "lhs": _scalar_json(lhs),
            "rhs": _scalar_json(rhs),
            "relation": "==" if equality else "<=",
            "ok": lhs == rhs if equality else lhs <= rhs,
        })
    return members


# Each small command returns (JSON fields after the common header, text
# lines, verdict); :func:`_emit` writes one or the other.
Emitted = tuple[dict[str, Any], list[str], bool]


def _lattice_point(
    family: Family, x_vec: tuple[Scalar, ...], sector: Sector
) -> Coweight | None:
    """``x_vec`` (in the units of ``sector``) as a lattice point of its own
    sector, or None, decided by denominators: all entries in Z, or in
    family D all in Z + 1/2.  Doubled, that is all even or all odd."""
    doubled = [Fraction(e) * 2 / sector.unit for e in x_vec]
    parities = {e.numerator % 2 if e.denominator == 1 else None for e in doubled}
    if parities == {0}:
        return coweight(family, tuple(e.numerator // 2 for e in doubled), Sector.INTEGRAL)
    if parities == {1} and family is Family.D:
        return coweight(family, tuple(e.numerator for e in doubled), Sector.HALF)
    return None


def cmd_check(args: argparse.Namespace, family: Family, sector: Sector) -> Emitted:
    mu = coweight(family, _parse_ints(args.mu), sector)
    if not is_dominant(mu):
        raise ValueError(f"--mu {args.mu} is not dominant")
    x_vec = _parse_rationals(args.x)
    if len(x_vec) != mu.kind.rank:
        raise ValueError("--x and --mu must have the same length")

    x_cw = _lattice_point(family, x_vec, sector)
    class_match = None if x_cw is None else same_class_XG(x_cw, mu)
    members = _order_members(family, x_vec, mu.entries)
    order_ok = leq(x_vec, mu)
    hull_ok = in_hull(x_vec, mu)
    ok = order_ok and hull_ok and class_match is not False

    fields = {
        "mu": list(mu.entries),
        "x": [_scalar_json(e) for e in x_vec],
        "inequalities": members,
        "leq": order_ok,
        "class_match": class_match,
        "in_hull": hull_ok,
        "ok": ok,
    }
    lines = [
        f"ineq {m['label']}: {m['lhs']} {m['relation']} {m['rhs']}  "
        f"{'ok' if m['ok'] else 'FAIL'}"
        for m in members
    ]
    lines.append(f"leq: {'ok' if order_ok else 'FAIL'}")
    if class_match is None:
        lines.append("class: n/a (x is not a lattice point)")
    else:
        lines.append(f"class: {'match' if class_match else 'MISMATCH'}")
    lines.append(f"hull: {'member' if hull_ok else 'OUTSIDE'}")
    lines.append(f"verdict: {'ok' if ok else 'false'}")
    return fields, lines, ok


def cmd_class(args: argparse.Namespace, family: Family, sector: Sector) -> Emitted:
    x = coweight(family, _parse_ints(args.x), sector)
    shape = _parse_shape(args.shape, family, x.kind.rank)
    cls = class_of(shape, x)
    fields = {"shape": str(shape), "x": list(x.entries), **_class_json(cls)}
    lines = [
        f"sums: {','.join(str(s) for s in cls.batch_sums)}",
        f"so_class: {cls.so_class}",
        f"lift: {cls.canonical_lift}",
    ]
    return fields, lines, True


def cmd_project(args: argparse.Namespace, family: Family, sector: Sector) -> Emitted:
    x = coweight(family, _parse_ints(args.x), sector)
    shape = _parse_shape(args.shape, family, x.kind.rank)
    point = project(shape, x)
    fields = {
        "shape": str(shape),
        "x": list(x.entries),
        "averages": [str(a) for a in point.averages],
        "expanded": [str(e) for e in point.expand()],
    }
    lines = [
        f"averages: {','.join(fields['averages'])}",
        f"expanded: {','.join(fields['expanded'])}",
    ]
    return fields, lines, True


def cmd_lift(args: argparse.Namespace, family: Family, sector: Sector) -> Emitted:
    shape = _parse_shape(args.shape, family)  # the one rank no vector bounds
    sums = _parse_ints(args.sums) if args.sums else ()
    lift = minuscule_lift(shape, sums, args.so_class, sector)
    fields = {
        "shape": str(shape),
        "sums": list(sums),
        "so_class": args.so_class,
        "lift": list(lift.entries),
    }
    return fields, [f"lift: {lift}"], True


def cmd_eta(args: argparse.Namespace, family: Family, sector: Sector) -> Emitted:
    nu = coweight(family, _parse_ints(args.nu), sector)
    shape = _parse_shape(args.shape, family, nu.kind.rank)
    fields: dict[str, Any] = {"shape": str(shape), "nu": list(nu.entries)}
    try:
        res = dominant_reordering(shape, nu)
    except PreconditionError as exc:
        fields.update(precondition_failed=str(exc), ok=False)
        return fields, [f"precondition failed: {exc}"], False

    checks = {
        "dominant": is_dominant(res.result),
        "orbit": weyl_orbit_equivalent(res.result, nu),
    }
    ok = all(checks.values())
    fields.update(
        merged=list(res.merged.entries),
        coarse_shape=str(res.coarse_shape),
        result=list(res.result.entries),
        checks=checks,
        ok=ok,
    )
    lines = [f"nu:     {nu}", f"merged: {res.merged}"]
    if sector is Sector.HALF:
        fields.update(
            sign_fixed=list(res.sign_fixed.entries), flip_count=res.flip_count
        )
        lines.append(f"signs:  {res.sign_fixed} ({res.flip_count} flips)")
    status = " ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in checks.items())
    lines += [
        f"coarse: {res.coarse_shape}",
        f"result: {res.result}",
        f"checks: {status}",
    ]
    return fields, lines, ok


def cmd_pmu(args: argparse.Namespace, family: Family, sector: Sector) -> Emitted:
    mu = coweight(family, _parse_ints(args.mu), sector)
    points = sorted(enumerate_Pmu(mu), key=lambda c: c.entries)
    fields = {
        "mu": list(mu.entries),
        "count": len(points),
        "points": [list(p.entries) for p in points],
    }
    return fields, [str(p) for p in points] + [f"count: {len(points)}"], True


def _emit(compute: Callable[..., Emitted], args: argparse.Namespace) -> int:
    """Run a small command; write its record (``--format json``) or lines."""
    fields, lines, ok = compute(args, args.family, args.sector)
    writer = _Writer(args.out)
    if args.format == "json":
        header = {"schema": SCHEMA, "command": args.command}
        writer.record({**header, "family": args.family.value,
                       "sector": args.sector.value, **fields})
    else:
        for text in lines:
            writer.line(text)
    writer.close()
    return EXIT_OK if ok else EXIT_FALSE


def _verify_worker(
    instance: tuple[LeviShape, Coweight], check_properties: bool
) -> VerificationReport | dict[str, Any]:
    """One instance's report, or the record of the error that stopped it."""
    shape, mu = instance
    try:
        return run_instance(shape, mu, check_properties=check_properties)
    except (CapExceeded, MismatchError, NotDominantError, ShapeError) as exc:
        return {**_instance_json(shape, mu), "error": f"{type(exc).__name__}: {exc}"}


def _results(worker: Callable, instances: Iterable, jobs: int) -> Iterator:
    """``worker`` over ``instances``, in order: serially, or on ``jobs``
    processes with at most ``4 * jobs`` instances in flight, so a grid is
    drawn as its records are written rather than all up front."""
    if jobs == 1:
        yield from map(worker, instances)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        window: deque[Future] = deque()
        for instance in instances:
            window.append(pool.submit(worker, instance))
            if len(window) == 4 * jobs:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def _run_instances(out: str | None, instances: Iterable[tuple[LeviShape, Coweight]],
                   check_properties: bool, jobs: int = 1) -> int:
    """Write one record per instance, in order, as each arrives; then a
    summary, which counts them.  Stopped instances also get one stderr
    line: their count and the first one's error."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    worker = functools.partial(_verify_worker, check_properties=check_properties)
    count = unequal = errors = 0
    first_error = ""
    writer = _Writer(out)
    try:
        for result in _results(worker, instances, jobs):
            count += 1
            if isinstance(result, dict):
                errors += 1
                first_error = first_error or result["error"]
            else:
                unequal += not result.ok
                result = report_json(result)
            writer.record(result)
        writer.record({"schema": SCHEMA, "summary": True, "instances": count,
                       "ok": count - unequal - errors, "failed": unequal,
                       "errors": errors})
    finally:
        writer.close()
    if errors:
        print(f"instances stopped: {errors} of {count}; first: {first_error}",
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_FALSE if unequal else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    mu = coweight(args.family, _parse_ints(args.mu), args.sector)
    shape = _parse_shape(args.shape, args.family, mu.kind.rank)
    if not is_dominant(mu):
        raise ValueError(f"--mu {args.mu} is not dominant")
    return _run_instances(args.out, [(shape, mu)], check_properties=False)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        families=args.family,
        ranks=_parse_ints(args.ranks),
        max_entry=args.max_entry,
        sectors=args.sectors,
        check_properties=not args.skip_properties,
    )
    return _run_instances(
        args.out, sweep_instances(config), config.check_properties, args.jobs
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Every flag once: its spellings, then its ``add_argument`` keywords.
_FLAGS: dict[str, tuple[tuple[str, ...], dict[str, Any]]] = {
    "family": (("--family",), dict(required=True, type=_family, help="A, B, or D")),
    "families": (("--family",), dict(
        required=True, type=_families, help="comma list of A, B, D")),
    "sector": (("--sector",), dict(
        default="integral", type=_sector,
        help="integral (default) or half (doubled odd entries)")),
    "sectors": (("--sectors", "--sector"), dict(
        default="integral", type=_sectors,
        help="comma list of integral (default) and half")),
    "format": (("--format",), dict(choices=("text", "json"), default="text")),
    "out": (("--out",), dict(default=None, help="write output to a file")),
    "mu": (("--mu",), dict(required=True)),
    "x": (("--x",), dict(required=True)),
    "x_fraction": (("--x",), dict(
        required=True, help="comma-separated integers or fractions like 3/2")),
    "nu": (("--nu",), dict(required=True)),
    "shape": (("--shape",), dict(required=True, help="e.g. 2,1,1;2")),
    "sums": (("--sums",), dict(default="", help="comma-separated batch sums")),
    "so_class": (("--so-class",), dict(type=int, default=None)),
    "ranks": (("--ranks",), dict(required=True, help="comma list, e.g. 2,3")),
    "max_entry": (("--max-entry",), dict(type=int, default=2)),
    "jobs": (("--jobs",), dict(type=int, default=1, help="worker processes, at least 1")),
    "skip_properties": (("--skip-properties",), dict(action="store_true")),
}


def _commands() -> list[tuple[str, str, Callable[[argparse.Namespace], int], str]]:
    """(name, help, handler, flags) of every subcommand; the small commands'
    handlers hand their record to :func:`_emit`.  Built with the parser, so
    each handler is the module's current function."""
    small = "family sector format out"
    return [
        ("check", "order, class and hull membership of x against mu",
         functools.partial(_emit, cmd_check), f"{small} mu x_fraction"),
        ("class", "canonical lift of x modulo a Levi's coroot lattice",
         functools.partial(_emit, cmd_class), f"{small} shape x"),
        ("project", "batch averages of x for a Levi shape",
         functools.partial(_emit, cmd_project), f"{small} shape x"),
        ("lift", "canonical lift from batch sums plus an orthogonal class",
         functools.partial(_emit, cmd_lift), f"{small} shape sums so_class"),
        ("eta", "the merge-and-repair reordering, stage by stage",
         functools.partial(_emit, cmd_eta), f"{small} shape nu"),
        ("pmu", "hull lattice points sharing mu's central class",
         functools.partial(_emit, cmd_pmu), f"{small} mu"),
        ("verify", "the projected set equality of one (shape, mu) instance",
         cmd_verify, "family sector out shape mu"),
        ("sweep", "the set equality, plus the property bundle, over every shape "
         "and dominant weight of the listed families, ranks and sectors",
         cmd_sweep, "families sectors out ranks max_entry jobs skip_properties"),
    ]


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """``--x -1,0`` as ``--x=-1,0``: argparse reads a token that starts with
    ``-`` as a flag unless it is one plain number, so a value that starts
    with ``-`` and a digit is joined to the value-taking flag before it."""
    valued = {s for spellings, options in _FLAGS.values() if "action" not in options
              for s in spellings}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in valued and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors, so :func:`main` reports them in one line
    with exit code 2; subcommand parsers are of the same class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coweights",
        description="Exact coweight-order and Levi-class computations "
                    "for the split classical families",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags in _commands():
        sub = subs.add_parser(name, help=help_text)
        for flag in flags.split():
            spellings, options = _FLAGS[flag]
            sub.add_argument(*spellings, **options)
        sub.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser().parse_args(_join_negative_values(argv))
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # the exit-code contract holds for every input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
