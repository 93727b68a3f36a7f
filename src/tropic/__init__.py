"""Exact-arithmetic toolkit for embedded tropical curves.

Validates balanced weighted polyhedral curves in R^n, prepares them against a
complete fan (subdivision and integral rescaling), computes deformation cones
and detects superabundance, checks genus-1 well-spacedness, and emits the
combinatorial certificate of the induced map to the fan's torus quotient.
"""

__version__ = "0.1.0"
