"""Per-layer metrics from the spans of one traced CLI call.

A span is ``[name, start, end, parent index, counters]`` as written by
``child.py``; the root span is ``cli.main``. A span's self time is its
duration minus the durations of its direct children. Spans nest strictly
(one thread, one call stack), so the self times of all spans add up to the
duration of ``cli.main``.
"""
import statistics

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "startup.import_s.numpy": "s",
    "startup.import_s.scipy_special": "s",
    "startup.import_s.scipy_integrate": "s",
    "startup.import_s.aggtree": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "cli.encode_mb_per_s": "MB/s",
    "distributions.marginal_s": "s",
    "distributions.marginal_values": "count",
    "distributions.copula_s": "s",
    "distributions.copula_values": "count",
    "reorder.run_s": "s",
    "reorder.children_s": "s",
    "reorder.children_calls": "count",
    "reorder.self_s": "s",
    "mra.run_s": "s",
    "mra.self_s": "s",
    "mra.marginal_values": "count",
    "mra.rows": "count",
    "feasible.searches": "count",
    "feasible.searches_per_s": "1/s",
    "feasible.search_s_p50": "s",
    "feasible.search_s_max": "s",
    "feasible.probes": "count",
    "feasible.dykstra_steps": "count",
    "feasible.lbfgs_calls": "count",
    "feasible.constraints_s": "s",
    "gaussian.covariance_calls": "count",
    "gaussian.covariance_s": "s",
    "trace.main_s": "s",
    "trace.overhead_s": "s",
}

# Modules whose cumulative import time `python -X importtime` reports.
IMPORTS = {
    "numpy": "startup.import_s.numpy",
    "scipy.special": "startup.import_s.scipy_special",
    "scipy.integrate": "startup.import_s.scipy_integrate",
    "aggtree": "startup.import_s.aggtree",
}


def import_times(stderr):
    """Cumulative seconds per module of IMPORTS from -X importtime output.

    A module that was not imported reads 0.
    """
    out = dict.fromkeys(IMPORTS.values(), 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        name = IMPORTS.get(module.strip())
        if name is not None and cumulative.strip().isdigit():
            out[name] = int(cumulative) / 1e6
    return out


def self_times(spans):
    """Self time of every span, by span index."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _under(spans, index, name):
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def call_metrics(spans, out_bytes):
    """Per-layer metrics of one traced call, except startup and overhead.

    Returns (metrics, self-time sum minus the cli.main duration).
    """
    own = self_times(spans)
    dur = {}
    self_s = {}
    calls = {}
    counts = {}
    for k, (name, start, end, _, counters) in enumerate(spans):
        dur[name] = dur.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own[k]
        calls[name] = calls.get(name, 0) + 1
        for key, value in counters.items():
            counts[name, key] = counts.get((name, key), 0) + value
    searches = [end - start for name, start, end, _, _ in spans
                if name == "feasible.search"]
    main = dur["cli.main"]
    cli_self = self_s["cli.main"]
    mra_values = sum(c.get("values", 0) for k, (name, _, _, _, c) in enumerate(spans)
                     if name == "distributions.marginal" and _under(spans, k, "mra.run"))
    metrics = {
        "cli.self_s": cli_self,
        "cli.out_bytes": out_bytes,
        "cli.encode_mb_per_s": out_bytes / 1e6 / cli_self,
        "distributions.marginal_s": dur.get("distributions.marginal", 0.0),
        "distributions.marginal_values": counts.get(("distributions.marginal", "values"), 0),
        "distributions.copula_s": dur.get("distributions.copula", 0.0),
        "distributions.copula_values": counts.get(("distributions.copula", "values"), 0),
        "reorder.run_s": dur.get("reorder.run", 0.0),
        "reorder.children_s": dur.get("reorder.children", 0.0),
        "reorder.children_calls": calls.get("reorder.children", 0),
        "reorder.self_s": self_s.get("reorder.run", 0.0),
        "mra.run_s": dur.get("mra.run", 0.0),
        "mra.self_s": self_s.get("mra.run", 0.0),
        "mra.marginal_values": mra_values,
        "mra.rows": counts.get(("mra.run", "rows"), 0),
        "feasible.searches": len(searches),
        "feasible.searches_per_s": len(searches) / main,
        "feasible.search_s_p50": statistics.median(searches) if searches else 0.0,
        "feasible.search_s_max": max(searches, default=0.0),
        "feasible.probes": counts.get(("feasible.search", "probes"), 0),
        "feasible.dykstra_steps": counts.get(("feasible.search", "dykstra_steps"), 0),
        "feasible.lbfgs_calls": calls.get("feasible.lbfgs", 0),
        "feasible.constraints_s": dur.get("feasible.constraints", 0.0),
        "gaussian.covariance_calls": calls.get("gaussian.covariance", 0),
        "gaussian.covariance_s": dur.get("gaussian.covariance", 0.0),
        "trace.main_s": main,
    }
    return metrics, sum(own) - main


def self_table(spans):
    """Total self time per span name, for the printed breakdown."""
    out = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name] = out.get(name, 0.0) + own
    return out
