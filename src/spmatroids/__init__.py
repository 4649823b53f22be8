"""Exact enumeration of series-parallel matroids.

Four count families are computed from closed formulas and
generating-function identities, and every formula is cross-checked against
an independent brute-force enumeration of series-parallel matroids, grown
as basis sets by series and parallel extensions.
"""

from .combinum import (
    assoc_stirling1,
    binomial,
    double_factorial,
    h_value,
    stirling2,
)
from .powerseries import (
    BivariateSeries,
    build_F,
    count_coefficient,
    lagrange_invert,
    series_exp,
    series_log,
    series_reverse_x,
)
from .spcounts import (
    TriangularCountTable,
    build_tables,
    c_closed,
    e_closed,
    e_from_c,
    e_special,
    egf_exp,
    g_closed,
)
from .verify import run_verify

__version__ = "0.1.0"
