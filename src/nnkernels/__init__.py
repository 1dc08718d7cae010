"""Infinite-width MLP kernels, fixed-point analysis, and GP regression."""

from .activations import (ACTIVATION_NAMES, ELU, ERF, GELU, RELU, Activation,
                          from_name, lrelu, selu)
from .deep import (LayerState, NetworkHyper, NtkState, deep_kernel_matrix,
                   deep_normalized_kernel, input_state, iterate_state,
                   kernel_grad, kernel_matrices_by_depth, ntk_iterate,
                   scaled_ntk_iterate, state_trajectory)
from .fixed_point import (EigenTriple, FixedPointReport, eigenvalues,
                          find_fixed_point, lambda3, lambda3_elu,
                          lambda3_gelu_lower, lambda3_lrelu, sigma_star)
from .gp import GpFit, fit, grid_search, predict, rmse
from .kernels import KernelArgs, kernel, kernel_dot
from .special import bvn_cdf_exp

__all__ = [
    "ACTIVATION_NAMES", "Activation", "ELU", "ERF", "GELU", "RELU",
    "EigenTriple", "FixedPointReport", "GpFit", "KernelArgs", "LayerState",
    "NetworkHyper", "NtkState",
    "bvn_cdf_exp", "deep_kernel_matrix", "deep_normalized_kernel",
    "eigenvalues", "find_fixed_point", "fit", "from_name", "grid_search",
    "input_state", "iterate_state", "kernel", "kernel_dot",
    "kernel_grad", "kernel_matrices_by_depth",
    "lambda3", "lambda3_elu", "lambda3_gelu_lower", "lambda3_lrelu", "lrelu",
    "ntk_iterate", "predict", "rmse", "scaled_ntk_iterate", "selu",
    "sigma_star", "state_trajectory",
]
