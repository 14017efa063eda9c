"""Run one workload of the coweights benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Every program run is a fresh child process, closed
loop, one caller: ``python -m coweights`` untraced, ``probe.py`` for traced
runs and ``hull_oracle`` passes.  ``--trace 0`` repeats the workload
until ``--seconds`` have been measured (at least once) and reports the
end-to-end metrics; ``--trace 1`` makes one untraced and one traced run
and reports the per-layer metrics.  Every output is checked against the
references in ``ref/``.

Standard output ends with two lines: the run environment, then the result
``{"correct", "attempted", "failed", "metrics"}``.  A readable table goes
to standard error.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    REF_DIR,
    ROOT,
    SRC,
    describe_record,
    load_reference,
    mismatched_records,
    record_digests,
    verdict_digest,
)
from tracer import layer_metrics  # noqa: E402

SWEEPS = {
    "sweep_B5_core": ["sweep", "--family", "B", "--ranks", "5",
                      "--max-entry", "2", "--skip-properties"],
    "sweep_B4_props": ["sweep", "--family", "B", "--ranks", "4",
                       "--max-entry", "2"],
    "sweep_D4_jobs2": ["sweep", "--family", "D", "--sectors", "integral,half",
                       "--ranks", "4", "--max-entry", "3", "--skip-properties",
                       "--jobs", "2"],
}
HULL = "hull_oracle"
WORKLOADS = (*SWEEPS, HULL)
SETUP_RUNS = 6  # before the runs, and again after them
SHOWN_MISMATCHES = 3
PROBE = str(BENCH_DIR / "probe.py")


@dataclass
class Run:
    """One child process, from spawn to exit."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    line_s: list[float]  # arrival of the first newline-terminated lines
    data: bytes
    rc: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        if len(self.notes) < SHOWN_MISMATCHES:
            self.notes.append(text)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], out: Path, marks: int = 1) -> Run:
    """Run a child to exit, reading its stdout through a pipe.

    CPU time and peak resident set come from ``wait4``, which covers the
    child and every descendant it waited for (the process pool).
    """
    with open(out / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        try:
            fd = proc.stdout.fileno()
            chunks, line_s = [], []
            while chunk := os.read(fd, 1 << 20):
                if len(line_s) < marks and b"\n" in chunk:
                    seen = min(chunk.count(b"\n"), marks - len(line_s))
                    line_s += [time.perf_counter() - start] * seen
                chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        tail = (out / "stderr.txt").read_bytes()[-400:].decode(errors="replace")
        print(f"perfbench: {argv[1:4]} exited {proc.returncode}: {tail}",
              file=sys.stderr)
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               line_s, b"".join(chunks), proc.returncode)


def check_records(tally: Tally, reference: list[str], data: bytes, rc: int) -> None:
    """Count every record that is missing, extra or not byte-identical.

    A nonzero exit code fails every record of the run.
    """
    bad = mismatched_records(reference, record_digests(data))
    tally.attempted += len(reference)
    tally.failed += len(reference) if rc != 0 else len(bad)
    if rc != 0:
        tally.note(f"exit code {rc}")
    for index in bad:
        tally.note(describe_record(data, index))


# ---------------------------------------------------------------------------
# Sweeps: `coweights sweep` in a child process
# ---------------------------------------------------------------------------

def cli_run(argv: list[str], out: Path, trace: Path | None = None) -> Run:
    """One ``coweights`` run; traced through the probe when ``trace`` is set."""
    if trace is None:
        return spawn([sys.executable, "-m", "coweights", *argv], out)
    return spawn([sys.executable, PROBE, "cli", str(trace), "--", *argv], out)


def _with(argv: list[str], flag: str, value: str) -> list[str]:
    """``argv`` with ``flag`` set to ``value``."""
    out = list(argv)
    if flag in out:
        out[out.index(flag) + 1] = value
    else:
        out += [flag, value]
    return out


def setup_times(argv: list[str], out: Path, count: int) -> list[float]:
    """Spawn-to-exit of the same command over an empty grid.

    That is interpreter start, ``import coweights`` and argument parsing.
    """
    empty = _with(argv, "--max-entry", "-1")
    times = []
    for _ in range(count):
        run = cli_run(empty, out)
        if run.rc != 0 or b'"instances": 0' not in run.data:
            raise RuntimeError(f"empty-grid command failed: {run.data[-200:]!r}")
        times.append(run.wall_s)
    return times


def sweep_untraced(name: str, seconds: float, out: Path, tally: Tally) -> dict:
    """Set-up is timed before and after the runs, so that its median spans
    the run rather than one moment of a shared machine's speed."""
    argv, reference = SWEEPS[name], load_reference(name)
    setup_times(argv, out, 1)  # compiles the package's bytecode
    setups = setup_times(argv, out, SETUP_RUNS)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        run = cli_run(argv, out)
        check_records(tally, reference, run.data, run.rc)
        runs.append(run)
    setups += setup_times(argv, out, SETUP_RUNS)
    return {
        "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "first_record_s": (statistics.median(
            r.line_s[0] if r.line_s else r.wall_s for r in runs), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
    }


def sweep_traced(name: str, out: Path, tally: Tally) -> dict:
    """Untraced run for parallelism, then a serial traced run to a file.

    When the workload runs a pool, an untraced serial run is the base of
    the tracing overhead, so that it compares like with like.
    """
    argv, reference = SWEEPS[name], load_reference(name)
    plain = cli_run(argv, out)
    check_records(tally, reference, plain.data, plain.rc)
    serial = _with(argv, "--jobs", "1")
    base = plain
    if serial != argv:
        base = cli_run(serial, out)
        check_records(tally, reference, base.data, base.rc)
    ndjson, trace = out / "traced.ndjson", out / "trace.json"
    traced = cli_run(_with(serial, "--out", str(ndjson)), out, trace)
    check_records(tally, reference, ndjson.read_bytes(), traced.rc)
    metrics = layer_metrics(json.loads(trace.read_text()), ndjson.stat().st_size)
    metrics["cli.parallelism"] = (plain.cpu_s / plain.wall_s, "ratio")
    metrics["trace.overhead_s"] = (traced.wall_s - base.wall_s, "s")
    return metrics


# ---------------------------------------------------------------------------
# hull_oracle: in_hull against caratheodory_in_hull on a seeded sample
# ---------------------------------------------------------------------------

def hull_pass(seed: int, out: Path, tally: Tally, trace: Path | None = None):
    """One pass over the sample in a fresh process; returns (run, summary)."""
    run = spawn([sys.executable, PROBE, "hull", str(seed),
                 str(trace) if trace else "-"], out, marks=2)
    refs = json.loads((REF_DIR / f"{HULL}.json").read_text())
    expected = refs["digests"].get(str(seed))
    summary = json.loads(run.data.splitlines()[-1]) if run.rc == 0 else None
    tally.attempted += refs["points"]
    if summary is None or len(run.line_s) < 2:
        tally.failed += refs["points"]
        tally.note(f"hull pass exited {run.rc}")
    elif expected is not None and verdict_digest(summary["verdicts"]) != expected:
        tally.failed += refs["points"]
        tally.note(f"verdict digest differs from the reference of seed {seed}")
    else:
        tally.failed += len(summary["disagree"])
        for index in summary["disagree"]:
            tally.note(f"in_hull and caratheodory_in_hull disagree at point {index}")
    return run, summary


def hull_starts(seed: int, out: Path, count: int) -> list[Run]:
    """Processes that stop after the first verdict: import, sample
    generation and one call, sampled like the sweeps' set-up."""
    starts = []
    for _ in range(count):
        run = spawn([sys.executable, PROBE, "hull", str(seed), "-", "first"],
                    out, marks=2)
        if run.rc != 0 or len(run.line_s) < 2:
            raise RuntimeError("hull_oracle start failed")
        starts.append(run)
    return starts


def hull_untraced(seed: int, seconds: float, out: Path, tally: Tally) -> dict:
    """Passes until ``seconds`` are measured; set-up and first verdict are
    also timed in short processes before and after the passes."""
    hull_starts(seed, out, 1)  # compiles the package's bytecode
    starts = hull_starts(seed, out, SETUP_RUNS)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        run, summary = hull_pass(seed, out, tally)
        if summary is None:
            raise RuntimeError("hull_oracle pass failed")
        runs.append(run)
    starts += hull_starts(seed, out, SETUP_RUNS) + runs
    return {
        "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
        "setup_s": (statistics.median(r.line_s[0] for r in starts), "s"),
        "first_record_s": (statistics.median(r.line_s[1] for r in starts), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
    }


def hull_traced(seed: int, out: Path, tally: Tally) -> dict:
    plain, _ = hull_pass(seed, out, tally)
    trace = out / "trace.json"
    traced, _ = hull_pass(seed, out, tally, trace)
    metrics = layer_metrics(json.loads(trace.read_text()), 0)
    metrics["cli.parallelism"] = (plain.cpu_s / plain.wall_s, "ratio")
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return metrics


# ---------------------------------------------------------------------------
# Environment record and entry point
# ---------------------------------------------------------------------------

def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "coweights").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coweights" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'coweights'}", file=sys.stderr)
        return 2
    out = OUT_DIR / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
        "speed_probe_ms_start": speed_probe_ms(),
    }
    tally = Tally()
    if args.workload == HULL:
        env["reference"] = ("digest" if str(args.seed) in json.loads(
            (REF_DIR / f"{HULL}.json").read_text())["digests"] else "agreement")
        metrics = (hull_traced(args.seed, out, tally) if args.trace
                   else hull_untraced(args.seed, args.seconds, out, tally))
    else:
        metrics = (sweep_traced(args.workload, out, tally) if args.trace
                   else sweep_untraced(args.workload, args.seconds, out, tally))
    env["loadavg_end"] = loadavg()
    env["speed_probe_ms_end"] = speed_probe_ms()

    for note in tally.notes:
        print(f"perfbench: FAIL {note}", file=sys.stderr)
    print(f"perfbench: fail_frac {tally.failed / tally.attempted} "
          f"({tally.failed}/{tally.attempted})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"perfbench: {name} {value} {unit}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
