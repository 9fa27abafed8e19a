"""One benchmarked process: import ``aggtree.cli``, then call ``main`` once.

    python3 child.py RESULT_JSON TRACE -- ARGV...    time one CLI call
    python3 child.py --env                           print version info

The parent records the spawn time; this process records when ``main`` can
be called (``ready``) and when it returned (``end``), both on
``time.monotonic()``, which is one clock for every process of the machine.
With TRACE=1 it first wraps the functions at each layer boundary and keeps
one span per call in memory; the spans are written with the timings when
``main`` returns. Nothing under ``src/`` is changed.
"""
import json
import sys
import time
from functools import wraps


class Tracer:
    """Spans ``[name, start, end, parent index, counters]`` in call order."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._open = []

    def call(self, name, fn, args, kwargs, counters=None):
        index = len(self.spans)
        span = [name, time.perf_counter(), None,
                self._open[-1] if self._open else None, {}]
        self.spans.append(span)
        self._open.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._open.pop()
            span[2] = time.perf_counter()
        if counters is not None:
            span[4] = counters(out)
        return out

    def wrap(self, owner, attr, name, counters=None):
        """Replace ``owner.attr`` by a spanned version; note it if absent."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @wraps(fn)
        def spanned(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counters)

        setattr(owner, attr, spanned)


def _values(out):
    return {"values": int(out.size)}


def _search(out):
    return {"probes": int(out.info.get("probes", 0)),
            "dykstra_steps": int(out.info.get("steps", 0))}


def instrument(tracer):
    """Wrap the layer boundaries that the per-layer metrics are built from.

    Module-level names are wrapped where their caller looks them up, so
    ``aggtree.cli.run_reordering`` rather than ``aggtree.reorder``'s.
    """
    import aggtree.cli as cli
    import aggtree.distributions as distributions
    import aggtree.feasible as feasible
    import aggtree.reorder as reorder

    for cls in (distributions.Normal, distributions.Discrete):
        tracer.wrap(cls, "sample", "distributions.marginal", _values)
    for cls in (distributions.GaussianCopula, distributions.Independence):
        tracer.wrap(cls, "sample", "distributions.copula", _values)
    tracer.wrap(cli, "run_reordering", "reorder.run")
    tracer.wrap(reorder, "reorder_children", "reorder.children")
    tracer.wrap(cli, "run_mra", "mra.run", lambda out: {"rows": int(out.n)})
    tracer.wrap(cli, "extremal_correlation", "feasible.search", _search)
    tracer.wrap(cli, "symmetric_tree_constraints", "feasible.constraints")
    tracer.wrap(feasible, "minimize", "feasible.lbfgs")
    tracer.wrap(feasible, "tree_dependent_covariance", "gaussian.covariance")


def _env():
    import platform

    import numpy
    import scipy

    import aggtree.cli  # noqa: F401  (warms the file cache like a real run)

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }))


def main():
    if sys.argv[1:] == ["--env"]:
        _env()
        return 0
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print("usage: child.py RESULT_JSON 0|1 -- ARGV...", file=sys.stderr)
        return 2
    import aggtree.cli

    ready = time.monotonic()
    tracer = Tracer()
    if trace == "1":
        instrument(tracer)
    rc = 1
    try:
        rc = tracer.call("cli.main", aggtree.cli.main, (argv,), {})
    except SystemExit as exc:  # argparse exits on a bad command line
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        end = time.monotonic()
        with open(result_path, "w") as handle:
            json.dump({"ready": ready, "end": end, "rc": rc,
                       "spans": tracer.spans if trace == "1" else [],
                       "missing": tracer.missing}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
