import numpy as np
import pytest


@pytest.fixture
def bvn_work(monkeypatch):
    """Counts the ELU/SELU work per band: ``calls`` gets (shape of the
    exponent coefficients, cos theta) of each call of the interior's Genz
    rule ``kernels._tilted_genz``, and ``work`` the columns (entries) that
    it takes ("genz") and the entries that the tail-band rule
    ``kernels._elu_tail`` takes ("tail")."""
    from nnkernels import kernels
    calls, work = [], {"genz": 0, "tail": 0}

    def counting(rule, key, arg):
        def wrapped(*args, **kwargs):
            if key == "genz":
                calls.append((args[0].shape, np.array(args[arg])))
            work[key] += args[arg].size
            return rule(*args, **kwargs)
        return wrapped

    for name, key, arg in (("_tilted_genz", "genz", 2), ("_elu_tail", "tail", 2)):
        monkeypatch.setattr(kernels, name, counting(getattr(kernels, name), key, arg))
    return calls, work


@pytest.fixture
def elu_calls(monkeypatch):
    """Records the arguments of each call of the ELU/SELU moment evaluator
    ``kernels._elu_moments``: a list of (s1, s2, rho, the other args)."""
    from nnkernels import kernels
    calls, evaluate = [], kernels._elu_moments

    def recorded(act, s1, s2, rho, *args, **kwargs):
        calls.append((np.array(s1), np.array(s2), np.array(rho), args, kwargs))
        return evaluate(act, s1, s2, rho, *args, **kwargs)

    monkeypatch.setattr(kernels, "_elu_moments", recorded)
    return calls
