"""Order statistics shared by worker.py and run.py."""

from __future__ import annotations

# Tail rungs as (numerator, denominator): p50, p90, p99, p99.9, ...
TAIL_RUNGS = ((1, 2), (9, 10), (99, 100), (999, 1000), (9999, 10000), (99999, 100000))
MIN_BEYOND = 10


def rank(num: int, den: int, n: int) -> int:
    """1-based nearest rank of the num/den quantile among n samples."""
    return max(1, -(-num * n // den))


def percentile(sorted_values: list, num: int, den: int):
    """Nearest-rank quantile num/den of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[rank(num, den, len(sorted_values)) - 1]


def tail_rung(n: int) -> tuple[int, int]:
    """Highest rung that leaves at least MIN_BEYOND samples above its rank.

    Falls back to the median when even p50 leaves fewer than that.
    """
    best = TAIL_RUNGS[0]
    for num, den in TAIL_RUNGS:
        if n - rank(num, den, n) >= MIN_BEYOND:
            best = (num, den)
    return best


def rung_label(num: int, den: int) -> str:
    """'p99.9' style name of a rung."""
    text = f"{100 * num / den:.5f}".rstrip("0").rstrip(".")
    return f"p{text}"


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
