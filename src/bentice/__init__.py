"""Exact symbolic workbench for six-vertex models with u-turn boundaries."""

from .laurent import GInt, LaurentPoly, Var
from .models import build_model
from .states import enumerate_states, partition_function, state_weight
from .weights import make_scheme

__version__ = "0.1.0"

__all__ = [
    "GInt", "LaurentPoly", "Var",
    "build_model", "enumerate_states", "partition_function", "state_weight",
    "make_scheme", "__version__",
]
