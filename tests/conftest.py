import numpy as np
import pytest


@pytest.fixture
def bvn_work(monkeypatch):
    """Counts the ELU/SELU work per band: ``calls`` gets (shape of h, r) of
    each call of the Genz rule ``special._bvnu_genz``, and ``work`` the rows
    that it takes ("genz") and the entries that the tail-band rule
    ``kernels._elu_tail`` takes ("tail")."""
    from nnkernels import kernels, special
    calls, work = [], {"genz": 0, "tail": 0}

    def counting(rule, key, arg):
        def wrapped(*args, **kwargs):
            if key == "genz":
                calls.append((args[0].shape, np.array(args[2])))
            work[key] += args[arg].size
            return rule(*args, **kwargs)
        return wrapped

    for module, name, key, arg in ((special, "_bvnu_genz", "genz", 0),
                                   (kernels, "_elu_tail", "tail", 2)):
        monkeypatch.setattr(module, name, counting(getattr(module, name), key, arg))
    return calls, work
