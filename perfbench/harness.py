"""Closed-loop measurement, correctness accounting and robust summaries.

A workload hands out rounds of operations; one process runs them one at
a time.  Rounds are whole: the loop stops at the first round boundary
after the busy time reaches the run length.  Each operation is checked
right after its timed call returns, so checks never run inside a timed
region and results are not kept.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Op:
    """One closed-loop operation: `run` is timed, `check` is not.  Ops
    with the same `kind` are expected to cost the same."""

    item: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    count: Callable[[Any], int] = lambda _result: 1


@dataclass
class Record:
    """What is kept of one operation: no result, no inputs."""

    item: str
    kind: str
    seconds: float
    items: int = 0
    problems: list = field(default_factory=list)


def measure(
    rounds, seconds: float, min_ops: int = 0, between_ops: Callable[[float], None] | None = None
) -> tuple[list[Record], float]:
    """Run whole rounds until the busy time reaches `seconds` and at
    least `min_ops` operations have run, checking each operation after
    it returns.  `between_ops`, if given, is called with the busy time
    so far after each operation, outside the timed region."""
    records: list[Record] = []
    busy = 0.0
    for ops in rounds:
        if busy >= seconds and len(records) >= min_ops:
            break
        for op in ops:
            record, result = run_op(op)
            check(op, record, result)
            records.append(record)
            busy += record.seconds
            if between_ops is not None:
                between_ops(busy)
    return records, busy


def run_op(op: Op) -> tuple[Record, Any]:
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        record = Record(op.item, op.kind, time.perf_counter() - t0)
        record.problems = [f"{type(exc).__name__}: {exc}"]
        return record, None
    return Record(op.item, op.kind, time.perf_counter() - t0), result


def check(op: Op, record: Record, result):
    if record.problems:
        return
    try:
        record.problems = list(op.check(result))
        record.items = op.count(result)
    except Exception as exc:  # a check that cannot run is a failure too
        record.problems = [f"check raised {type(exc).__name__}: {exc}"]


def failures(records: list[Record]) -> int:
    failed = [r for r in records if r.problems]
    for r in failed[:20]:
        print(f"FAILED {r.item}: {'; '.join(map(str, r.problems))[:500]}", file=sys.stderr)
    return len(failed)


def typical_rate(records: list[Record]) -> float:
    """Items per second of a typical visit of every kind of operation:
    for each kind, the median over its visits of items and of seconds.
    Medians keep a short slow spell of the machine from moving the
    figure; summing over kinds keeps the mix of the workload."""
    by_kind: dict[str, list[Record]] = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r)
    items = sum(statistics.median(r.items for r in rs) for rs in by_kind.values())
    seconds = sum(statistics.median(r.seconds for r in rs) for rs in by_kind.values())
    return items / seconds


def percentile(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    xs = sorted(latencies)
    rank = max(math.ceil(pct / 100 * len(xs)), 1)
    return xs[rank - 1], len(xs) - rank


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def fresh_import_seconds(modules, src: str, root: str) -> float:
    """Import time of `modules` in a new interpreter."""
    code = (
        "import time, sys\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "sys.stdout.write(repr(time.perf_counter() - t))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env=program_env(src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout)


def program_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("PYTHONSTARTUP", None)
    return env


def median(xs) -> float:
    return statistics.median(xs)
