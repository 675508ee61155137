"""Interpreters for every IR level.

Differential execution across levels is the compiler's correctness story:
a model is run at NN, VECTOR, SIHE, CKKS and POLY levels and all outputs
must agree (within CKKS precision on encrypted levels).
"""

from repro.runtime.nn_interp import run_nn_function
from repro.runtime.vector_interp import run_vector_function
from repro.runtime.sihe_interp import run_sihe_function
from repro.runtime.ckks_interp import run_ckks_function
from repro.runtime.poly_interp import run_poly_function

__all__ = [
    "run_nn_function",
    "run_vector_function",
    "run_sihe_function",
    "run_ckks_function",
    "run_poly_function",
]
