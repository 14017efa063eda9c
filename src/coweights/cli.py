"""Command-line front end: single queries, reordering walkthroughs, sweeps.

Subcommands
-----------
check    order, class, and hull membership of one point against one weight
class    canonical lift of a point modulo a Levi's coroot lattice
project  batch averages of a point for a Levi shape
lift     canonical lift from batch sums plus an orthogonal class
eta      the merge-and-repair reordering, stage by stage
pmu      lattice points of the orbit hull sharing the central class
verify   the projected set equality for one (shape, mu) instance
sweep    the set equality, plus the per-instance property bundle, over the
         grid of every shape and dominant weight of the listed families,
         ranks and sectors

The small commands write text lines, or with ``--format json`` one record
opening with ``schema, command, family, sector``; ``eta`` reports a failed
precondition as ``precondition_failed`` with ``"ok": false``.  ``verify``
and ``sweep`` write newline-delimited JSON: each instance's record as soon
as it is done, in grid order also with ``sweep --jobs`` (at least 1), then
a summary, so output is byte-identical for identical inputs; timing is
opt-in via ``--timing``.

Exit codes: 0 all requested relations hold; 1 a mathematical verdict is
false (or a reordering precondition fails); 2 usage or validation error;
3 enumeration cap or any unexpected internal error, reported on one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from fractions import Fraction
from typing import Any, Iterable, NoReturn, Sequence

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

def _parse_family(text: str) -> Family:
    try:
        return Family(text.upper())
    except ValueError:
        raise ValueError(f"unknown family {text!r} (expected A, B, or D)")


def _parse_sector(text: str) -> Sector:
    aliases = {"int": Sector.INTEGRAL, "integral": Sector.INTEGRAL,
               "half": Sector.HALF}
    try:
        return aliases[text.lower()]
    except KeyError:
        raise ValueError(f"unknown sector {text!r} (expected integral or half)")


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


def _parse_shape(text: str, kind: GroupKind) -> LeviShape:
    gl_text, _, so_text = text.partition(";")
    gl = _parse_ints(gl_text) if gl_text else ()
    so = int(so_text) if so_text else 0
    return LeviShape(kind, gl, so)


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


def report_json(report: VerificationReport, timing: bool) -> dict[str, Any]:
    record: dict[str, Any] = {
        **_instance_json(report.shape, report.mu),
        "lhs": [_class_json(c) for c in sorted(report.lhs_classes, key=lambda c: c.sort_key())],
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
    if timing:
        record["millis"] = report.millis
    return record


class _Writer:
    def __init__(self, path: str | None):
        self._file = open(path, "w", encoding="utf-8") if path else sys.stdout
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
    doubled = [Fraction(e) * (1 if sector is Sector.HALF else 2) for e in x_vec]
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
    shape = _parse_shape(args.shape, x.kind)
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
    shape = _parse_shape(args.shape, x.kind)
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
    shape = _parse_shape(args.shape, GroupKind(family, args.rank))
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
    shape = _parse_shape(args.shape, nu.kind)
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


def _emit(args: argparse.Namespace) -> int:
    """Run a small command; write its record (``--format json``) or lines."""
    family, sector = _parse_family(args.family), _parse_sector(args.sector)
    fields, lines, ok = args.compute(args, family, sector)
    writer = _Writer(args.out)
    if args.format == "json":
        writer.record({
            "schema": SCHEMA,
            "command": args.command,
            "family": family.value,
            "sector": sector.value,
            **fields,
        })
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


def _run_instances(
    args: argparse.Namespace,
    instances: Iterable[tuple[LeviShape, Coweight]],
    check_properties: bool,
    jobs: int = 1,
) -> int:
    """Write one record per instance, in order, as each arrives; then a
    summary, which counts them.  Stopped instances also get one stderr
    line: their count and the first one's error."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    worker = functools.partial(_verify_worker, check_properties=check_properties)
    count = unequal = errors = 0
    first_error = ""
    writer = _Writer(args.out)
    try:
        with (
            ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext()
        ) as pool:
            for result in (pool.map if pool else map)(worker, instances):
                count += 1
                if isinstance(result, dict):
                    errors += 1
                    first_error = first_error or result["error"]
                    writer.record(result)
                    continue
                if not result.ok:
                    unequal += 1
                writer.record(report_json(result, args.timing))
        writer.record({
            "schema": SCHEMA,
            "summary": True,
            "instances": count,
            "ok": count - unequal - errors,
            "failed": unequal,
            "errors": errors,
        })
    finally:
        writer.close()
    if errors:
        print(
            f"instances stopped: {errors} of {count}; first: {first_error}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    return EXIT_FALSE if unequal else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    family, sector = _parse_family(args.family), _parse_sector(args.sector)
    mu = coweight(family, _parse_ints(args.mu), sector)
    shape = _parse_shape(args.shape, mu.kind)
    if not is_dominant(mu):
        raise ValueError(f"--mu {args.mu} is not dominant")
    return _run_instances(args, [(shape, mu)], check_properties=False)


def cmd_sweep(args: argparse.Namespace) -> int:
    families = tuple(_parse_family(f) for f in args.family.split(","))
    sectors = tuple(_parse_sector(s) for s in args.sectors.split(","))
    config = SweepConfig(
        families=families,
        ranks=_parse_ints(args.ranks),
        max_entry=args.max_entry,
        sectors=sectors,
        check_properties=not args.skip_properties,
    )
    return _run_instances(
        args, sweep_instances(config), config.check_properties, args.jobs
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    """The flags of the small commands."""
    sub.add_argument("--family", required=True, help="A, B, or D")
    sub.add_argument("--sector", default="integral",
                     help="integral (default) or half (doubled odd entries)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", default=None, help="write output to a file")


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

    p = subs.add_parser("check", help="order/class/hull of x against mu")
    _add_common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--x", required=True,
                   help="comma-separated integers or fractions like 3/2")
    p.set_defaults(func=_emit, compute=cmd_check)

    p = subs.add_parser("class", help="canonical lift of x for a Levi shape")
    _add_common(p)
    p.add_argument("--shape", required=True, help="e.g. 2,1,1;2")
    p.add_argument("--x", required=True)
    p.set_defaults(func=_emit, compute=cmd_class)

    p = subs.add_parser("project", help="batch averages of x for a Levi shape")
    _add_common(p)
    p.add_argument("--shape", required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(func=_emit, compute=cmd_project)

    p = subs.add_parser("lift", help="canonical lift from class data")
    _add_common(p)
    p.add_argument("--shape", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--sums", default="", help="comma-separated batch sums")
    p.add_argument("--so-class", dest="so_class", type=int, default=None)
    p.set_defaults(func=_emit, compute=cmd_lift)

    p = subs.add_parser("eta", help="dominant reordering of a block-minuscule point")
    _add_common(p)
    p.add_argument("--shape", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=_emit, compute=cmd_eta)

    p = subs.add_parser("pmu", help="hull lattice points sharing mu's class")
    _add_common(p)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=_emit, compute=cmd_pmu)

    p = subs.add_parser("verify", help="projected set equality of one instance")
    p.add_argument("--family", required=True, help="A, B, or D")
    p.add_argument("--sector", default="integral",
                   help="integral (default) or half (doubled odd entries)")
    p.add_argument("--out", default=None, help="write output to a file")
    p.add_argument("--shape", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--timing", action="store_true",
                   help="include per-instance milliseconds (non-deterministic)")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("sweep", help="verify plus property bundle over a grid")
    p.add_argument("--family", required=True, help="comma list of A, B, D")
    p.add_argument("--sectors", "--sector", default="integral",
                   help="comma list of integral (default) and half")
    p.add_argument("--out", default=None, help="write output to a file")
    p.add_argument("--ranks", required=True, help="comma list, e.g. 2,3")
    p.add_argument("--max-entry", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1")
    p.add_argument("--timing", action="store_true",
                   help="include per-instance milliseconds (non-deterministic)")
    p.add_argument("--skip-properties", action="store_true")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
