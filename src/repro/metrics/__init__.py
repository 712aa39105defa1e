"""Metrics: fairness, summary statistics, histograms, time series."""

from .fairness import jain_index
from .stats import histogram_pdf, mean, stdev
from .timeseries import settling_time

__all__ = [
    "jain_index",
    "mean",
    "stdev",
    "histogram_pdf",
    "settling_time",
]
