"""Central-difference hyperparameter gradient: the independent oracle
for the reverse-mode ``deep.kernel_grad``."""

from types import SimpleNamespace

import numpy as np
from nnkernels.deep import NetworkHyper, state_trajectory


def kernel_grad_fd(act, hyper: NetworkHyper, x1, x2,
                   rel_step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the depth-L kernel, any activation.

    Same layout as ``kernel_grad``. Perturbed evaluations bypass the
    nonnegativity validation of ``NetworkHyper`` so that a boundary
    value sigma_b^2 = 0 can be differenced symmetrically.
    """
    def k_final(sw, sb):
        hyper_h = SimpleNamespace(sigma_w2=sw, sigma_b2=sb)
        return state_trajectory(act, x1, x2, hyper_h)[-1][2]

    grads = np.zeros((hyper.depth + 1, 2))
    for l in range(hyper.depth + 1):
        for col, params in enumerate((hyper.sigma_w2, hyper.sigma_b2)):
            base = list(params)
            h = rel_step * max(abs(base[l]), 1.0)
            hi, lo = list(base), list(base)
            hi[l] += h
            lo[l] -= h
            if col == 0:
                grads[l, col] = (k_final(hi, list(hyper.sigma_b2))
                                 - k_final(lo, list(hyper.sigma_b2))) / (2 * h)
            else:
                grads[l, col] = (k_final(list(hyper.sigma_w2), hi)
                                 - k_final(list(hyper.sigma_w2), lo)) / (2 * h)
    return grads
