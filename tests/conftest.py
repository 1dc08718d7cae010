import numpy as np
import pytest


@pytest.fixture
def bvn_work(monkeypatch):
    """Counts the bivariate normal work: ``calls`` gets (shape of h, r) of
    each ``special._bvnu_exp`` call, and ``work`` the rows that the Genz
    rule ("genz") and the tail rule ("tail") take."""
    from nnkernels import special
    calls, work = [], {"genz": 0, "tail": 0}

    def counting(rule, key):
        def wrapped(h, k, r, q, *args, **kwargs):
            if key is None:
                calls.append((h.shape, np.array(r)))
            else:
                work[key] += h.size
            return rule(h, k, r, q, *args, **kwargs)
        return wrapped

    for name, key in (("_bvnu_exp", None), ("_bvnu_genz", "genz"),
                      ("_bvnu_tail_1d", "tail")):
        monkeypatch.setattr(special, name, counting(getattr(special, name), key))
    return calls, work
