"""Weak-saturation (graph bootstrap percolation) laboratory."""

__version__ = "0.1.0"
