"""Isoparametric finite elements on stationary and evolving closed surfaces."""

__version__ = "0.1.0"
