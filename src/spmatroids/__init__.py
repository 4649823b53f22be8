"""Exact enumeration of series-parallel matroids.

Four count families are computed from closed formulas and
generating-function identities, and every formula is cross-checked against
an independent brute-force enumeration of series-parallel matroids, grown
as basis sets by series and parallel extensions.
"""

__version__ = "0.1.0"
