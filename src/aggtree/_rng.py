"""Deterministic random streams keyed by purpose and tree node.

Every sampling routine receives a counter-based generator derived from a
single integer seed plus a (purpose, node path) key, so results do not
depend on scheduling or on how many values other nodes consume.

``numpy.random`` and scipy's special functions load on first use, so the
commands that draw nothing never import them (about 11 MB of RSS with numpy
2.4 and scipy 1.17).
"""
import importlib.util
import sys
import threading

import numpy as np


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


_SPECIAL = ("ndtr", "ndtri", "owens_t")
_special_lock = threading.Lock()


def __getattr__(name):
    """``ndtr``, ``ndtri`` and ``owens_t``, loaded together on first access
    (PEP 562). They are then module globals, which later lookups find first."""
    if name not in _SPECIAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _special_lock:
        if name not in globals():
            ufuncs = _special_ufuncs()
            globals().update((f, getattr(ufuncs, f)) for f in _SPECIAL)
    return globals()[name]


_PURPOSES = {"marginal": 1, "copula": 2, "bootstrap": 3, "subsample": 4, "null": 5}


def node_stream(seed, purpose, path=()):
    """Return the generator for one (purpose, node) pair under ``seed``.

    Distinct keys give non-overlapping streams; the same key always
    restarts the same stream.
    """
    from numpy.random import Generator, Philox, SeedSequence

    code = _PURPOSES[purpose]
    ss = SeedSequence(entropy=int(seed), spawn_key=(code, *path))
    return Generator(Philox(ss))


def standard_normals(rng, shape):
    """Standard normal draws by inverse transform on the uniform stream."""
    u = rng.random(shape)
    # rng.random() can emit exactly 0.0, which ndtri maps to -inf
    np.copyto(u, 2.0 ** -53, where=(u == 0.0))
    # a bare ``ndtri`` here would not reach the module __getattr__
    return __getattr__("ndtri")(u, out=u)
