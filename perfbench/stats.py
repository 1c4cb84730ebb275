"""Statistics and accounting helpers shared by every workload.

Nothing here imports the program under test, so the benchmark's own
tests exercise these helpers without building anything.
"""

from __future__ import annotations

import math
import re
import statistics

#: A tail percentile is reported only with at least this many samples
#: strictly beyond its nearest rank.
MIN_BEYOND = 10

#: Metric names: ``<layer>.<metric>`` or a bare end-to-end name.
_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Tail percentiles tried, highest first, by :func:`tail`.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def nearest_rank(values, q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond the rank, so a tail figure never rests on a handful of samples.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    beyond = n - rank
    if n == 0 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond its rank; "
            f"{n} sample(s) leave {max(beyond, 0)}"
        )
    return sorted(values)[rank - 1]


def tail(values) -> tuple[float, float] | None:
    """``(q, value)`` of the highest candidate percentile ``values`` support."""
    for q in TAIL_CANDIDATES:
        try:
            return q, nearest_rank(values, q)
        except ValueError:
            continue
    return None


def median(values) -> float:
    return float(statistics.median(values))


def check_name(name: str) -> str:
    if not _NAME.fullmatch(name) or len(name) > 64:
        raise ValueError(f"bad metric name {name!r}")
    return name


def failed_frames(
    attempted: int,
    statuses: dict[int, str],
    receipts: dict[int, int],
    mismatched: set[int] = frozenset(),
) -> set[int]:
    """Frame indices among ``range(attempted)`` that do not count as stored.

    ``statuses`` maps a frame index to the client's final status for it,
    ``receipts`` maps a frame index to how many server receipts name it
    and ``mismatched`` holds frames whose stored bytes failed a
    round-trip check.  A frame is failed when the client never saw it
    stored (dropped, quarantined, still pending or never sent), when the
    server holds no receipt or more than one for it, or when its bytes
    are wrong.
    """
    failed = set(mismatched)
    for index in range(attempted):
        if statuses.get(index) != "stored" or receipts.get(index, 0) != 1:
            failed.add(index)
    return failed


def open_loop(
    n: int, rate_hz: float, start: float, produce, clock, sleep, idle=None
) -> list[float]:
    """Run ``produce(i)`` for ``i < n`` on a fixed schedule; return lags.

    Frame ``i`` is due at ``start + i / rate_hz`` whatever happened to
    the frames before it: a producer that falls behind never skips or
    thins frames, it only starts later.  Latency is therefore measured
    from the due time, so a stall shows as growing latency rather than
    as a reduced offered load.  ``idle(due)``, when given, runs before
    each wait and may use the time left until ``due``.  Returns each
    frame's lag, the seconds between its due time and its start.
    """
    lags = []
    for i in range(n):
        due = start + i / rate_hz
        if idle is not None:
            idle(due)
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        lags.append(clock() - due)
        produce(i)
    return lags
