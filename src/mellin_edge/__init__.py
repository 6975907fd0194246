"""Symbolic-numeric Mellin/edge pseudo-differential calculus on the
half-line, with variable discrete asymptotics along an edge parameter.

Modules:
    kernels     the shared numerical kernels and certification constants
    mellin      weighted Mellin transform on a log grid, dilations, cut-offs
    symbols     meromorphic symbol families and pole-branch tracking
    asym_types  asymptotic types (pole/log-order data) and their algebra
    functionals analytic functionals, Laurent data, Mellin potentials
    cone        Fuchsian cone solver with coefficient harvesting
    edge_ops    Mellin edge symbols, Green symbols, weight-shift identities
    edge_spaces edge Sobolev fields, potential operators, decomposition
    checks      the acceptance checks, one function each, and the seeded
                corpora `verify` runs them on
    cli         batch front-end (poles / solve / verify / green-check /
                edge-apply)
"""

__version__ = "0.1.0"

from .errors import MellinEdgeError  # noqa: F401
