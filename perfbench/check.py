"""Output checks of the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
correct.

* Sampling, at the seed and size recorded in ``expected.json``: the CSV's
  SHA-256 must equal the recorded one (the README's determinism contract).
* Sampling, any other seed or size: header, row count and a Monte Carlo
  test against the exact law; mean and covariance against
  ``tree_dependent_law`` for normal models, leaf frequencies against the
  pmf for discrete ones. Tolerances are Z standard errors.
* ``exp-5.sym8``: every status ``optimal``, both slacks <= 0, and every
  endpoint within 1e-6 of the recorded one.
"""
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
Z = 6.0
ENDPOINT_TOL = 1e-6


def expected():
    return json.loads(EXPECTED_PATH.read_text())


def sha256(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def _label_key(label):
    return tuple(int(part) for part in label.split("."))


def check_sample(workload, csv_path, model_path, n, seed):
    recorded = expected()
    if seed == recorded["seed"]:
        want = recorded["sha256"].get(workload, {}).get(str(n))
        if want is not None:
            got = sha256([csv_path])
            return [] if got == want else [
                f"{workload}: sha256 {got} differs from the recorded {want} "
                f"(n={n}, seed={seed})"]
    return check_law(csv_path, model_path, n)


def check_law(csv_path, model_path, n):
    cfg = json.loads(Path(model_path).read_text())
    labels = sorted(cfg["marginals"], key=_label_key)
    with open(csv_path) as handle:
        header = handle.readline().rstrip("\n").split(",")
    if header != labels:
        return [f"header {header} is not the leaf order {labels}"]
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n, len(labels)):
        return [f"shape {data.shape} is not ({n}, {len(labels)})"]
    if not np.all(np.isfinite(data)):
        return ["non-finite values in the sample"]
    kinds = {spec["type"] for spec in cfg["marginals"].values()}
    if kinds == {"normal"}:
        return _normal_law(data, cfg, labels)
    if kinds == {"discrete"}:
        return _leaf_frequencies(data, cfg, labels)
    return [f"no law check for marginal types {sorted(kinds)}"]


def _normal_law(data, cfg, labels):
    sys.path.insert(0, str(HERE.parent / "src"))
    from aggtree.cli import model_from_config
    from aggtree.gaussian import tree_dependent_law
    from aggtree.tree import node_label

    model, _, _ = model_from_config(cfg)
    law = tree_dependent_law(model)
    if [node_label(leaf) for leaf in law.leaf_order] != labels:
        return ["exact law's leaf order differs from the CSV header"]
    n = data.shape[0]
    var = np.diag(law.covariance)
    problems = []
    mean_err = np.abs(data.mean(axis=0) - law.mean) / np.sqrt(var / n)
    if mean_err.max() > Z:
        problems.append(f"sample mean is {mean_err.max():.1f} standard errors off")
    cov = np.cov(data, rowvar=False)
    se = np.sqrt((np.outer(var, var) + law.covariance ** 2) / n)
    cov_err = np.abs(cov - law.covariance) / se
    if cov_err.max() > Z:
        problems.append(f"sample covariance is {cov_err.max():.1f} standard errors off")
    return problems


def _leaf_frequencies(data, cfg, labels):
    n = data.shape[0]
    problems = []
    for col, label in enumerate(labels):
        spec = cfg["marginals"][label]
        support = np.asarray(spec["support"], dtype=float)
        probs = np.asarray(spec["probs"], dtype=float)
        values = data[:, col]
        if not np.all(np.isin(values, support)):
            problems.append(f"leaf {label} has values outside its support")
            continue
        freq = (values[:, None] == support[None, :]).mean(axis=0)
        err = np.abs(freq - probs) / np.sqrt(probs * (1.0 - probs) / n + 1.0 / n**2)
        if err.max() > Z:
            problems.append(f"leaf {label} frequencies are {err.max():.1f} "
                            "standard errors off its pmf")
    return problems


def sym8_endpoints(out_dir):
    """{"rho:pair": [min, max]} and the statuses from symmetric.csv."""
    endpoints = {}
    statuses = []
    with open(Path(out_dir) / "symmetric.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            key = f"{float(row['rho']) + 0.0:.6f}:{row['pair']}"
            endpoints[key] = [float(row["min"]), float(row["max"])]
            statuses += [row["min_status"], row["max_status"]]
    return endpoints, statuses


def check_sym8(out_dir, full_grid):
    endpoints, statuses = sym8_endpoints(out_dir)
    recorded = expected()["sym8_endpoints"]
    problems = []
    bad = sorted(set(statuses) - {"optimal"})
    if bad:
        problems.append(f"statuses other than optimal: {bad}")
    summary = dict(line.split("=", 1)
                   for line in (Path(out_dir) / "summary.txt").read_text().split())
    for key in ("nesting_slack", "treedep_outside_slack"):
        value = float(summary.get(key, "nan"))
        if not value <= 0.0:
            problems.append(f"{key}={summary.get(key)} is not <= 0")
    if full_grid and set(endpoints) != set(recorded):
        problems.append(f"rows {sorted(endpoints)} differ from {sorted(recorded)}")
    for key, got in endpoints.items():
        want = recorded.get(key)
        if want is None:
            problems.append(f"no recorded endpoints for {key}")
        elif max(abs(g - w) for g, w in zip(got, want)) > ENDPOINT_TOL:
            problems.append(f"{key}: endpoints {got} differ from recorded {want}")
    return problems


def csv_rows(path):
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1
