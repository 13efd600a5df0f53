"""Granular counting and Bayesian inference for fuzzily reported counts."""

from .errors import GrancountError, NumericalError, ValidationError

__version__ = "0.1.0"
