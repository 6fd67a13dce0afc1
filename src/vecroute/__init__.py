"""Iterative routing of vector sequences with additive credit assignment.

The package turns n_inp input vectors into n_out output vectors through
an expectation-maximization loop in which outputs compete for each
input's activated data. Two interchangeable engines implement the same
semantics: :mod:`vecroute.reference`, a pluggable formulation that
materializes every per-(input, output) proposal and serves as the
correctness oracle, and :mod:`vecroute.optimized`, a concrete
parameterization that contracts over inputs first and never allocates
the proposal tensor. Each pass yields a credit matrix attributing
outputs to inputs additively; :mod:`vecroute.credit` composes those
matrices across sequential, residual, summed, and concatenated network
structure. :mod:`vecroute.params_io` pins deterministic initialization
and a bit-exact file format, and :mod:`vecroute.bench` measures the
scaling story (``vecroute-bench`` on the command line).
"""

from importlib import import_module as _import_module

from .tensor import *
from .reference import *
from .optimized import *
from .credit import *
from .params_io import *
from .memtrack import *

__version__ = "0.1.0"

# Each submodule's __all__ is the one list of its public names.
__all__ = sorted(
    name
    for module in ("tensor", "reference", "optimized", "credit", "params_io", "memtrack")
    for name in _import_module(f"{__name__}.{module}").__all__
)
