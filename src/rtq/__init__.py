"""Two-class priority retrial queue: transforms, exact samplers, simulation,
tail asymptotics and cross-verification."""

from .model import (
    Erlang,
    Exponential,
    Mixture,
    ModelParams,
    ParetoShifted,
    ServiceDist,
    TailDescriptor,
)

__all__ = [
    "Erlang",
    "Exponential",
    "Mixture",
    "ModelParams",
    "ParetoShifted",
    "ServiceDist",
    "TailDescriptor",
]

__version__ = "0.1.0"
