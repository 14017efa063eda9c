"""Helpers shared by the runner, the probe and the self-tests.

Nothing here imports the package under test, so the runner can load this
module in a checkout that lacks it and fail with a clear message.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path
from typing import Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REF_DIR = BENCH_DIR / "ref"
OUT_DIR = ROOT / ".perfbench_out"


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median.

    The quartiles are ``statistics.quantiles(values, n=4)``, the same
    arithmetic used to judge whether the benchmark is steady.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def record_digests(data: bytes) -> list[str]:
    """SHA-256 of every newline-terminated record, in output order."""
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return [hashlib.sha256(line).hexdigest() for line in lines]


def mismatched_records(reference: Sequence[str], got: Sequence[str]) -> list[int]:
    """Positions whose record is missing, extra, or not byte-identical."""
    return [
        i
        for i in range(max(len(reference), len(got)))
        if i >= len(reference) or i >= len(got) or reference[i] != got[i]
    ]


def describe_record(data: bytes, index: int) -> str:
    """A short label for record ``index`` of an NDJSON output."""
    lines = data.split(b"\n")
    if index >= len(lines) or not lines[index]:
        return f"record {index}: missing"
    try:
        rec = json.loads(lines[index])
    except ValueError:
        return f"record {index}: not JSON"
    keys = ("family", "rank", "sector", "shape", "mu", "error", "summary")
    fields = " ".join(f"{k}={rec[k]}" for k in keys if k in rec)
    return f"record {index}: {fields}"


def load_reference(workload: str) -> list[str]:
    return (REF_DIR / f"{workload}.sha256").read_text().split()


def verdict_digest(verdicts: str) -> str:
    """Digest of a string of 0/1 hull verdicts, truncated to 16 hex digits."""
    return hashlib.sha256(verdicts.encode()).hexdigest()[:16]
