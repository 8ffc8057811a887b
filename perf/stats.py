"""Order statistics shared by the runner, selfcheck and compare."""

import math
import statistics


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with >= q of the sample at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))
