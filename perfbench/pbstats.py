"""Statistics helpers of the benchmark: medians, quartile spreads and
ratios. Percentiles of latency samples are taken in C++ (support.hpp)."""

import math
import statistics


def median(values):
    """Median of a non-empty sequence of numbers."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them (two values or more)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartiles as a share of the
    median: the run-to-run spread a bound is compared against."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def ratio(numerator, denominator):
    """numerator / denominator, or 0.0 when there is nothing to divide by
    (a counter that a workload never exercises)."""
    return numerator / denominator if denominator else 0.0
