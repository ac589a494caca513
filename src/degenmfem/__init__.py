"""Backward Euler / lowest-order mixed finite element solvers for the
degenerate parabolic equation  d/dt b(u) - div(grad u) = f  on the unit
square, with three linear iterative schemes (Holder-adapted L-scheme,
regularized L-scheme, regularized Newton) and a benchmark harness that
compares their iteration counts.
"""

__version__ = "0.1.0"
