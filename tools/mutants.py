"""Mutation gate for the checks that guard correctness.

    python tools/mutants.py

Each mutant below is one exact edit of one source file plus the pytest
node IDs that must catch it.  The listed tests first run on an unmutated
copy of the tree and must pass there.  Then, for each mutant, the tree is
copied to a temporary directory, the edit applied, and its tests run in
the copy; the mutant is killed when they fail or run past ``TIMEOUT``
seconds (a broken search can loop forever).  The exit code is 0 only when every
mutant is killed.  A survivor is a gap in the tests: add a test that
kills it; never edit or drop the mutant to make the gate pass.

Standard library only; run from anywhere inside the checkout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 60  # seconds per mutant; each is killed in a few seconds
ORACLE, CORE, LEVI, CLI = (
    f"src/coweights/{m}.py" for m in ("oracle", "core", "levi", "cli")
)
HULL_SAMPLE = "tests/test_hull_sample.py"
CARATHEODORY = "tests/test_oracle.py::TestCaratheodory"
ROOT_DATUM = "tests/test_root_datum.py"
BUNDLE = "tests/test_oracle.py::test_property_failures_reach_the_report"

# (name, file, exact old text, replacement, pytest node IDs)
MUTANTS: list[tuple[str, str, str, str, tuple[str, ...]]] = [
    ("combination-recheck-debug-only", ORACLE,
     "        _check_combination(points, target, weights)\n",
     "        if __debug__:\n            _check_combination(points, target, weights)\n",
     (f"{CARATHEODORY}::test_certificate_rechecked_under_optimize",)),
    ("sector-check-dropped", CORE,
     "        if x.sector is not mu.sector:\n            raise MismatchError(",
     "        if False:\n            raise MismatchError(",
     (f"{CARATHEODORY}::test_wrong_sector_raises",)),
    ("negative-weight-check-dropped", ORACLE,
     "    if any(s < 0 for s in num.values()) or sum(num.values()) != common or any(",
     "    if sum(num.values()) != common or any(",
     (f"{CARATHEODORY}::test_negative_weight_raises",)),
    ("combination-coordinates-ignored", ORACLE,
     "sum(num.values()) != common or any(",
     "sum(num.values()) != common or False and any(",
     (f"{CARATHEODORY}::test_wrong_combination_raises",)),
    ("outside-recheck-skipped", ORACLE,
     "    if sum(map(mul, c, scaled)) <= den * _support(family, c, entries):",
     "    if False:",
     (f"{HULL_SAMPLE}::test_non_separating_functional_raises",)),
    ("orbit-membership-check-skipped", ORACLE,
     "        if any(_vec_dominant_rep(family, p) != entries for p in points):",
     "        if False:",
     (f"{HULL_SAMPLE}::test_wrong_parity_normaliser_raises",)),
    ("normaliser-d-parity-dropped", ORACLE,
     "        if family is Family.D and signs.count(-1) % 2:",
     "        if False:",
     (f"{HULL_SAMPLE}::test_orbit_free_certificates_pinned",)),
    ("dinkelbach-first-functional-only", ORACLE,
     "        found = _violated_row(family, mu, b * d, exit_point)",
     "        found = None",
     (f"{HULL_SAMPLE}::test_reach_past_the_cap",)),
    ("lift-box-check-inside-generator", ORACLE,
     '    _check_box(size, f"the lift box of {size}")\n    return (\n'
     "        minuscule_lift(",
     "    return (\n"
     '        _check_box(size, f"the lift box of {size}") or minuscule_lift(',
     ("tests/test_oracle.py::TestScanCaps",)),
    ("batch-end-dropped", LEVI,
     "for end in accumulate(shape.gl_sizes))",
     "for end in list(accumulate(shape.gl_sizes))[:-1])",
     ("tests/test_levi.py::TestLeqBatchEnds",)),
    ("so-class-mod-2-when-doubled", LEVI,
     "% (2 * x.sector.unit)",
     "% 2",
     (f"{ROOT_DATUM}::test_class_rules_match_the_coroot_lattice",)),
    ("dominant-rep-d-parity-dropped", CORE,
     "    if negatives % 2 == 1 and all(e != 0 for e in v):",
     "    if False:",
     ("tests/test_core.py::TestDominantRepresentative",)),
    ("spin-row-dropped", CORE,
     "    if family is Family.D:\n        rows_x[-2] -= x[-1]",
     "    if False:\n        rows_x[-2] -= x[-1]",
     (f"{ROOT_DATUM}::test_row_functionals_are_fundamental_weights",
      "tests/test_metamorphic.py::test_b_and_d_agree_when_the_last_entry_is_zero")),
    ("lift-half-offset-dropped", LEVI,
     "[unit * (q + 1) + offset] * t + [unit * q + offset] * (size - t)",
     "[unit * (q + 1)] * t + [unit * q] * (size - t)",
     ("tests/test_levi.py::TestMinusculeLift::test_half_sector_example",)),
    ("batch-sum-parity-offset-dropped", ORACLE,
     "range(-bound + (bound - size) % unit, bound + 1, unit)",
     "range(-bound, bound + 1, unit)",
     ("tests/test_oracle.py::TestSweep::test_family_d_rank2_both_sectors",)),
    ("eta-dominance-check-dropped", ORACLE,
     "    if not is_dominant(eta):",
     "    if False:",
     (f"{BUNDLE}[eta-not-dominant]",)),
    ("order-transfer-check-dropped", ORACLE,
     "        if leq(nu_avg, mu) and not leq(eta_avg, mu):",
     "        if False:",
     (f"{BUNDLE}[order-transfer]",)),
    ("batch-order-report-dropped", ORACLE,
     '        return [f"batch first-entry order fails for {nu} under {shape}", *failures]',
     "        return failures",
     (f"{BUNDLE}[batch-order-refused]",
      "tests/test_reorder.py::TestPreconditions::"
      "test_refused_reordering_is_reported_with_positivity")),
    ("dominance-check-dropped", CORE,
     "    if not is_dominant(mu):\n        raise NotDominantError(",
     "    if False:\n        raise NotDominantError(",
     ("tests/test_core.py::test_non_dominant_mu_has_one_message",)),
    ("kind-check-dropped", CORE,
     "    if a != b:\n        raise MismatchError(",
     "    if False:\n        raise MismatchError(",
     ("tests/test_core.py::test_kind_mismatch_has_one_message",)),
    ("eta-block-dominance-check-dropped", ORACLE,
     "    if not is_M_dominant(coarse, eta):",
     "    if False:",
     (f"{BUNDLE}[eta-not-block-dominant]",)),
    ("half-early-minus-one-check-dropped", ORACLE,
     "            if e == -1 and i < lo:",
     "            if False:",
     (f"{BUNDLE}[half-minus-one-early]",)),
    ("descend-pull-back-skipped", ORACLE,
     "            return [tuple(_pull_back(w, p)) for p in points], weights",
     "            return points, weights",
     (f"{HULL_SAMPLE}::test_orbit_points_certify_themselves",)),
    ("in-hull-mu-unscaled", CORE,
     "    return _vec_leq(family, rep, [den * e for e in mu.entries])",
     "    return _vec_leq(family, rep, mu.entries)",
     (f"{HULL_SAMPLE}::test_float_and_mixed_targets",)),
    ("leq-mu-unscaled", CORE,
     "    return _vec_leq(mu.kind.family, scaled, [den * e for e in mu.entries])",
     "    return _vec_leq(mu.kind.family, scaled, mu.entries)",
     (f"{HULL_SAMPLE}::test_float_and_mixed_targets",)),
    ("batch-ends-mu-unscaled", LEVI,
     "order_rows(shape.kind.family, vec, [den * e for e in mu.entries])",
     "order_rows(shape.kind.family, vec, mu.entries)",
     ("tests/test_levi.py::TestLeqBatchEnds::test_family_a_precondition_text",)),
    ("projection-batch-factor-dropped", LEVI,
     "sum(x.entries[sl]) * (scale // size)",
     "sum(x.entries[sl])",
     ("tests/test_levi.py::TestHasDominantProjection::test_averages_decide_not_sums",)),
    ("worker-catch-narrowed", CLI,
     "    shape, mu = instance\n    try:\n"
     "        return run_instance(shape, mu, check_properties=check_properties)\n"
     "    except Exception as exc:",
     "    from .core import MismatchError, NotDominantError, ShapeError\n"
     "    shape, mu = instance\n    try:\n"
     "        return run_instance(shape, mu, check_properties=check_properties)\n"
     "    except (CapExceeded, MismatchError, NotDominantError, ShapeError) as exc:",
     ("tests/test_cli.py::test_unexpected_instance_error_is_recorded",)),
]

_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", ".perfbench_out"
)


def _copy(into: Path) -> Path:
    tree = into / "tree"
    shutil.copytree(ROOT, tree, ignore=_SKIP)
    return tree


def _pytest(tree: Path, node_ids: tuple[str, ...], timeout: float) -> str:
    """``"passed"``, ``"failed"`` or ``"timeout"``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *node_ids],
            cwd=tree, env=env, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def _mutate(tree: Path, path: str, old: str, new: str) -> None:
    source = tree / path
    text = source.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{path}: the old text occurs {text.count(old)} times:\n{old}")
    source.write_text(text.replace(old, new), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory() as base:
        baseline = _copy(Path(base))
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m[4]))
        if _pytest(baseline, every_test, TIMEOUT * len(MUTANTS)) != "passed":
            print("the listed tests do not pass on the unmutated tree", file=sys.stderr)
            return 1
    survivors = []
    for name, path, old, new, node_ids in MUTANTS:
        with tempfile.TemporaryDirectory() as work:
            tree = _copy(Path(work))
            _mutate(tree, path, old, new)
            start = time.monotonic()
            outcome = _pytest(tree, node_ids, TIMEOUT)
        verdict = "survived" if outcome == "passed" else f"killed ({outcome})"
        print(f"{name}: {verdict} in {time.monotonic() - start:.1f} s", flush=True)
        if outcome == "passed":
            survivors.append(name)
    if survivors:
        print(f"survivors: {', '.join(survivors)}", file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
