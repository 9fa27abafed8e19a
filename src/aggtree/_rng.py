"""Deterministic random streams keyed by purpose and tree node.

Every sampling routine receives a counter-based generator derived from a
single integer seed plus a (purpose, node path) key, so results do not
depend on scheduling or on how many values other nodes consume.
"""
import importlib.util
import sys

import numpy as np
from numpy.random import Generator, Philox, SeedSequence


def _special_ufuncs():
    """scipy.special's compiled ufuncs without the package ``__init__``, whose
    array-API layer costs about 0.3 s of every cold start. This relies on
    ``_ufuncs`` importing only sibling submodules, never a name defined in
    ``scipy/special/__init__.py``. A package already loaded is used as is."""
    name = "scipy.special"
    if name in sys.modules:
        return importlib.import_module(name + "._ufuncs")
    sys.modules[name] = importlib.util.module_from_spec(importlib.util.find_spec(name))
    try:
        return importlib.import_module(name + "._ufuncs")
    finally:
        del sys.modules[name]


_ufuncs = _special_ufuncs()
ndtr, ndtri, owens_t = _ufuncs.ndtr, _ufuncs.ndtri, _ufuncs.owens_t

_PURPOSES = {"marginal": 1, "copula": 2, "bootstrap": 3, "subsample": 4, "null": 5}


def node_stream(seed, purpose, path=()):
    """Return the generator for one (purpose, node) pair under ``seed``.

    Distinct keys give non-overlapping streams; the same key always
    restarts the same stream.
    """
    code = _PURPOSES[purpose]
    ss = SeedSequence(entropy=int(seed), spawn_key=(code, *path))
    return Generator(Philox(ss))


def standard_normals(rng, shape):
    """Standard normal draws by inverse transform on the uniform stream."""
    u = rng.random(shape)
    # rng.random() can emit exactly 0.0, which ndtri maps to -inf
    np.copyto(u, 2.0 ** -53, where=(u == 0.0))
    return ndtri(u, out=u)
