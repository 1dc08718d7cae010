"""Pointwise activations and their almost-everywhere derivatives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, ndtr

from .special import SQRT_2PI

ACTIVATION_NAMES = ("gelu", "elu", "selu", "relu", "lrelu", "erf")

# Non-differentiable points take the right-limit value; every consumer
# integrates against absolutely continuous measures, so the choice at a
# single point is immaterial.


@dataclass(frozen=True)
class Activation:
    """Tagged activation descriptor.

    ``lrelu_slope`` applies to "lrelu" only; ``selu_lambda``/``selu_alpha``
    to "selu" only (the ELU is the SELU at lambda = alpha = 1).
    """

    kind: str
    lrelu_slope: float = 0.2
    selu_lambda: float = 1.0
    selu_alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ACTIVATION_NAMES:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if not 0.0 <= self.lrelu_slope < 1.0:
            raise ValueError("lrelu slope must lie in [0, 1)")
        if self.selu_lambda <= 0.0 or self.selu_alpha <= 0.0:
            raise ValueError("selu scales must be positive")
        if self.kind != "lrelu" and self.lrelu_slope != 0.2:
            raise ValueError("lrelu_slope only applies to kind='lrelu'")
        if self.kind != "selu" and (self.selu_lambda != 1.0 or self.selu_alpha != 1.0):
            raise ValueError("selu scales only apply to kind='selu'")


GELU = Activation("gelu")
ELU = Activation("elu")
RELU = Activation("relu")
ERF = Activation("erf")


def lrelu(slope: float = 0.2) -> Activation:
    return Activation("lrelu", lrelu_slope=slope)


def selu(scale: float, alpha: float) -> Activation:
    return Activation("selu", selu_lambda=scale, selu_alpha=alpha)


def from_name(name: str, lrelu_slope: float = 0.2, selu_lambda: float = 1.0507009873554805,
              selu_alpha: float = 1.6732632423543772) -> Activation:
    """Build an Activation from its lowercase serialized name; "selu" takes
    the self-normalizing scales of Klambauer et al. (2017), sigma*(1) = 1."""
    name = name.lower()
    if name == "lrelu":
        return lrelu(lrelu_slope)
    if name == "selu":
        return selu(selu_lambda, selu_alpha)
    return Activation(name)


def _selu_params(act: Activation):
    if act.kind == "elu":
        return 1.0, 1.0
    return act.selu_lambda, act.selu_alpha


def eval(act: Activation, z):
    """psi(z), vectorized."""
    z = np.asarray(z, dtype=float)
    kind = act.kind
    if kind == "gelu":
        out = z * ndtr(z)
    elif kind in ("elu", "selu"):
        lam, alpha = _selu_params(act)
        out = lam * np.where(z > 0, z, alpha * np.expm1(np.minimum(z, 0.0)))
    elif kind == "relu":
        out = np.maximum(z, 0.0)
    elif kind == "lrelu":
        out = np.where(z > 0, z, act.lrelu_slope * z)
    else:  # erf
        out = erf(z)
    return out if out.shape else float(out)


def deriv(act: Activation, z):
    """psi'(z) almost everywhere (right limit at kinks), vectorized."""
    z = np.asarray(z, dtype=float)
    kind = act.kind
    if kind == "gelu":
        out = ndtr(z) + z * np.exp(-0.5 * z * z) / SQRT_2PI
    elif kind in ("elu", "selu"):
        lam, alpha = _selu_params(act)
        out = lam * np.where(z >= 0, 1.0, alpha * np.exp(np.minimum(z, 0.0)))
    elif kind == "relu":
        out = (z >= 0).astype(float)
    elif kind == "lrelu":
        out = np.where(z >= 0, 1.0, act.lrelu_slope)
    else:  # erf
        out = (2.0 / np.sqrt(np.pi)) * np.exp(-z * z)
    return out if out.shape else float(out)
