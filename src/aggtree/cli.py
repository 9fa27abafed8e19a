"""Command line surface: JSON model configs in, CSV numbers out.

Subcommands cover model validation, the two sampling algorithms, the
exact Gaussian law, three-leaf correlation bounds, extremal correlation
search, and canned experiment presets. All runs are seeded; identical
invocations produce byte-identical output files.
"""
import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ._rng import node_stream
from .distributions import Discrete, GaussianCopula, Independence, Normal
from .errors import (
    AggTreeError,
    GenerationBudgetError,
    InfeasibleCorrelationError,
    SupportSizeError,
)
from .feasible import (
    build_constraints,
    extremal_correlation,
    psd_feasible,
    symmetric_tree_constraints,
    symmetric_tree_dep_corr,
)
from .gaussian import (
    ellipse_parameters,
    model_second_moments,
    three_leaf_corr_interval,
    three_leaf_covariance,
    tree_dependent_law,
)
from .mra import run_mra
from .reorder import run_reordering
from .stats import henze_zirkler, sample_mean_cov
from .tree import ROOT, AggregationTreeModel, RootedTree, node_id, node_label

__all__ = ["main", "model_from_config", "config_echo", "PRESETS"]
_CSV_CHUNK_ROWS = 2**12  # bounds the string one % format builds
# rows of the sampled root gathered at once for writing: a multiple of
# _CSV_CHUNK_ROWS, so only the last chunk is short; 16 chunks per gather
# ran faster than one
_GATHER_ROWS = 2**16
# %.17g of a cell with decimal exponent x in -6..16 is built in six words, 48
# little-endian bytes with NULs to drop: the sign, leading text ("0.00" for
# x < 0 in fixed notation) and digit 0, then digits 1-16, then the exponent
# suffix and the separator. Each digit byte is followed by a slot for the point.
_G_EXPONENTS = range(-6, 17)
_G_LEAD = np.array([int.from_bytes(b"\0" + b"0." + b"0" * (-x - 1), "little") if -4 <= x < 0
                    else 0 for x in _G_EXPONENTS])
_G_INT_DIGITS = np.array([1 if x < -4 else max(x + 1, 0) for x in _G_EXPONENTS])
_G_SUFFIX = np.array([int.from_bytes(b"e-0%d" % -x, "little") if x < -4 else 0
                      for x in _G_EXPONENTS])
# for each group of four digits: its digit bytes, one apart, and the place of
# its last nonzero digit (far below any group start for 0000)
_G4 = np.arange(10**4)
_SPREAD4 = sum((_G4 // 10**(3 - i) % 10 + ord("0")) << 16 * i for i in range(4))
_LAST4 = np.where(_G4 > 0, 4 - sum(_G4 % 10**k == 0 for k in (1, 2, 3)), -20)
_GROUP_START = np.array([[1], [5], [9], [13]])
# the bytes a group keeps when p digits are shown, at index p - start + 12
_KEEP_DIGITS = np.array([-1 if i >= 16 else (1 << 16 * max(i - 12, 0)) - 1 for i in range(29)])
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles


def _least_double_from(k):
    """The least double not below 10**k, for -22 <= k <= 22."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    t = num / den  # correctly rounded
    n, d = t.as_integer_ratio()
    return t if n * den >= num * d else math.nextafter(t, math.inf)


_DECADES = np.array([_least_double_from(k) for k in range(-6, 18)])


class ConfigError(ValueError):
    """A config file that parses as JSON but does not describe a model."""


def _object(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _require(mapping, key, where):
    if key not in _object(mapping, where):
        raise ConfigError(f"{where} is missing required field {key!r}")
    return mapping[key]


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(mapping, key, where):
    """mapping[key] as a float; it must be a finite JSON number."""
    value = _require(mapping, key, where)
    if not (_is_number(value) and math.isfinite(value)):
        raise ConfigError(f"{where}: {key!r} must be a finite number, got {value!r}")
    return float(value)


def _count(cfg, key):
    """cfg[key] as an int or None when absent; it must be a whole number >= 0."""
    value = cfg.get(key)
    if value is None:
        return None
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if not (_is_number(value) and whole and value >= 0):
        raise ConfigError(
            f"config field {key!r} must be a nonnegative integer, got {value!r}")
    return int(value)


def _marginal_from_spec(spec, where):
    kind = _require(spec, "type", where)
    if kind == "normal":
        return Normal(_finite(spec, "mean", where), _finite(spec, "var", where))
    if kind == "discrete":
        return Discrete(_require(spec, "support", where),
                        _require(spec, "probs", where))
    raise ConfigError(f"{where}: unknown marginal type {kind!r}")


def _copula_from_spec(spec, arity, where):
    kind = _require(spec, "type", where)
    if kind == "independence":
        return Independence(arity)
    if kind == "gaussian":
        if "rho" in spec:
            if arity != 2:
                raise ConfigError(
                    f"{where}: 'rho' shorthand needs a binary node, arity is {arity}"
                )
            return GaussianCopula.bivariate(_finite(spec, "rho", where))
        corr = np.asarray(_require(spec, "correlation", where), dtype=float)
        return GaussianCopula(corr)
    raise ConfigError(f"{where}: unknown copula type {kind!r}")


def model_from_config(cfg):
    """Build (model, seed, n) from a parsed config dict.

    seed and n are returned as ints or None when absent; commands that
    need them enforce their presence.
    """
    tree = RootedTree.from_nested(_require(cfg, "tree", "config"))
    marginals = {}
    for label, spec in _object(_require(cfg, "marginals", "config"),
                               "config field 'marginals'").items():
        marginals[node_id(label)] = _marginal_from_spec(spec, f"marginal {label!r}")
    copulas = {}
    for label, spec in _object(_require(cfg, "copulas", "config"),
                               "config field 'copulas'").items():
        node = node_id(label)
        # misplaced copulas get a placeholder arity; validate() reports them
        arity = tree.arity(node) if node in tree and tree.arity(node) > 0 else 2
        copulas[node] = _copula_from_spec(spec, arity, f"copula {label!r}")
    model = AggregationTreeModel(tree, marginals, copulas)
    return model, _count(cfg, "seed"), _count(cfg, "n")


def _marginal_spec(dist):
    if isinstance(dist, Normal):
        return {"type": "normal", "mean": dist.mean, "var": dist.variance}
    if isinstance(dist, Discrete):
        return {"type": "discrete", "support": dist.support.tolist(),
                "probs": dist.probs.tolist()}
    raise ConfigError(f"cannot serialize marginal {dist!r}")


def _copula_spec(copula):
    if isinstance(copula, Independence):
        return {"type": "independence"}
    if isinstance(copula, GaussianCopula):
        return {"type": "gaussian", "correlation": copula.correlation.tolist()}
    raise ConfigError(f"cannot serialize copula {copula!r}")


def config_echo(model, seed=None, n=None):
    """Normalized config dict; re-parsing it rebuilds the same model."""
    cfg = {
        "tree": model.tree.to_nested(),
        "marginals": {node_label(k): _marginal_spec(v)
                      for k, v in sorted(model.marginals.items())},
        "copulas": {node_label(k): _copula_spec(v)
                    for k, v in sorted(model.copulas.items())},
    }
    if seed is not None:
        cfg["seed"] = int(seed)
    if n is not None:
        cfg["n"] = int(n)
    return cfg


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return f"{float(value):.17g}"


def _check_out(path):
    """Reject an ``--out`` that cannot be opened for writing, before any work."""
    if path in (None, "-"):
        return
    target = Path(path)
    if target.is_dir() or not target.parent.is_dir():
        raise ConfigError(
            f"--out must be '-' or a file in an existing directory, got {path!r}")


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="") as handle:
            yield handle


def _write_csv(handle, header, rows):
    handle.write(",".join(header) + "\n")
    for row in rows:
        handle.write(",".join(_fmt(cell) for cell in row) + "\n")


def _two_product(a, b):
    """Dekker's TwoProduct: ``hi == fl(a * b)`` and ``hi + lo == a * b`` exactly."""
    def split(v):
        t = (2.0**27 + 1) * v
        h = t - (t - v)
        return h, v - h

    (a1, a2), (b1, b2), hi = split(a), split(b), a * b
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _encode_g17(flat, columns):
    """``%.17g`` of ±0 and 1e-6 <= |v| < 1e17, CSV rows of ``columns`` cells."""
    a = np.abs(flat)
    x = np.searchsorted(_DECADES[1:], a, side="right") - 6  # 10**x <= a < 10**(x+1)
    x[a == 0] = 0
    hi, lo = _two_product(a, _POW10[16 - x])  # 1e16 <= hi + lo < 1e17 unless a == 0
    whole = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # never 10**17
    q = [whole // 10**k for k in (16, 12, 8, 4)] + [whole]
    groups = np.stack([q[i + 1] - q[i] * 10**4 for i in range(4)])  # digits 1-4, ..., 13-16
    kept = (_LAST4[groups] + _GROUP_START).max(axis=0, initial=1)  # to the last nonzero
    left = _G_INT_DIGITS[x + 6]
    rec = np.empty((6, len(flat)), "<i8")
    rec[0] = _G_LEAD[x + 6] | np.signbit(flat) * ord("-") | (q[0] + ord("0")) << 48
    rec[1:5] = _SPREAD4[groups] & _KEEP_DIGITS[np.maximum(kept, left) - _GROUP_START + 12]
    rec[5] = _G_SUFFIX[x + 6] | ord(",") << 32
    rec[5, columns - 1::columns] += (ord("\n") - ord(",")) << 32
    point = np.flatnonzero((left > 0) & (kept > left))
    slot = 2 * left[point] + 5  # the byte after digit left - 1
    rec.ravel()[slot // 8 * len(flat) + point] |= ord(".") << 8 * (slot % 8)
    return rec.T.tobytes().translate(None, b"\0").decode("ascii")


def _write_block(handle, header, blocks):
    """Write row ``blocks`` as one ``%.17g`` CSV, byte for byte, a chunk at a time.

    A chunk of integers below 1e17 (no -0.0) is written with ``%d``. A chunk
    of ±0 and 1e-6 <= |v| < 1e17 is encoded in numpy without rounding error.
    Its decimal exponent x, 10**x <= |v| < 10**(x+1), comes from exact
    comparisons with the least doubles not below each power of ten. Then
    10**(16 - x) is an exact double, and Dekker's TwoProduct gives
    |v| * 10**(16 - x) exactly as hi + lo, in [1e16, 1e17). hi is an even
    integer above 2**53, so hi + rint(lo) is that product rounded half to
    even: the 17 digits ``%.17g`` prints. It never rounds up to 1e17, since
    the largest double below each power of ten 1e-5..1e17 is at least 8
    units of its 17th digit away. Every step is elementwise IEEE arithmetic
    or integer work, so the bytes do not depend on SIMD dispatch. Any other
    chunk (nan, inf, subnormal, tiny or huge values) is formatted by ``%``.
    """
    handle.write(",".join(header) + "\n")
    line = ",".join(["%.17g"] * len(header)) + "\n"
    for chunk in (block[start:start + _CSV_CHUNK_ROWS] for block in blocks
                  for start in range(0, len(block), _CSV_CHUNK_ROWS)):
        flat = chunk.ravel()
        a = np.abs(flat)
        if np.all(a < 1e17) and np.all(flat == np.rint(flat)) \
                and not np.signbit(flat[flat == 0]).any():
            handle.write(line.replace("%.17g", "%d") * len(chunk)
                         % tuple(flat.astype(np.int64).tolist()))
        elif np.all((a == 0) | ((a >= _DECADES[0]) & (a < _DECADES[-1]))):
            handle.write(_encode_g17(flat, len(header)))
        else:
            handle.write(line * len(chunk) % tuple(flat.tolist()))


def _load_config(path):
    with open(path) as handle:
        return json.load(handle)


def _need(value, flag, name):
    if flag is not None:
        if flag < 0:
            raise ConfigError(f"--{name} must be a nonnegative integer, got {flag!r}")
        return int(flag)
    if value is None:
        raise ConfigError(f"{name} must be set in the config or by flag")
    return int(value)


def cmd_validate(args):
    cfg = _load_config(args.config)
    model, seed, n = model_from_config(cfg)
    violations = model.validate()
    if violations:
        for line in violations:
            print(f"invalid: {line}", file=sys.stderr)
        return 2
    if args.echo:
        json.dump(config_echo(model, seed, n), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print("ok")
    return 0


def cmd_sample(args):
    cfg = _load_config(args.config)
    model, seed, n = model_from_config(cfg)
    seed = _need(seed, args.seed, "seed")
    n = _need(n, args.n, "n")
    if not 0.0 <= args.budget < math.inf:
        raise ConfigError(f"--budget must be finite and >= 0, got {args.budget!r}")
    sampler = run_mra if args.algorithm == "mra" else run_reordering
    atoms = sampler(model, n, seed, args.budget)
    # the root's rows are gathered as they are written
    blocks = (atoms.rows(s, s + _GATHER_ROWS) for s in range(0, n, _GATHER_ROWS))
    with _open_out(args.out) as handle:
        _write_block(handle, [node_label(leaf) for leaf in atoms.leaf_order], blocks)
    return 0


def cmd_treedep(args):
    cfg = _load_config(args.config)
    model, _, _ = model_from_config(cfg)
    law = tree_dependent_law(model)
    labels = [node_label(leaf) for leaf in law.leaf_order]
    with _open_out(args.out) as handle:
        _write_csv(handle, *_matrix_table(labels, law.covariance, law.mean))
    return 0


def _interval_row(s1, s2, s3, r12, r0):
    iv = three_leaf_corr_interval(s1, s2, s3, r12, r0)
    return [s1, s2, s3, r12, r0, iv.min, iv.mid, iv.half_length, iv.max,
            iv.tree_dep, iv.degenerate], iv


_BOUNDS_HEADER = ["sigma1", "sigma2", "sigma3", "rho12", "rho_root",
                  "min", "mid", "half_length", "max", "tree_dep", "degenerate"]


def cmd_bounds3(args):
    header = list(_BOUNDS_HEADER)
    row, _ = _interval_row(args.sigma1, args.sigma2, args.sigma3,
                           args.rho12, args.rho_root)
    if args.rho13 is not None:
        cov = three_leaf_covariance(args.sigma1, args.sigma2, args.sigma3,
                                    args.rho12, args.rho_root, args.rho13)
        _, lam = psd_feasible(cov)
        header += ["rho13", "sigma13", "sigma23", "lambda_min"]
        row += [args.rho13, cov[0, 2], cov[1, 2], lam]
    if args.ellipse:
        ell = ellipse_parameters(args.sigma1, args.sigma2, args.sigma3,
                                 args.rho12, args.rho_root)
        header += ["u", "v", "x0", "a", "b"]
        row += [ell["u"], ell["v"], ell["x0"], ell["a"], ell["b"]]
    with _open_out(args.out) as handle:
        _write_csv(handle, header, [row])
    return 0


def cmd_extremal(args):
    cfg = _load_config(args.config)
    model, _, _ = model_from_config(cfg)
    pair = [part.strip() for part in args.pair.split(",")]
    if len(pair) != 2:
        raise ConfigError(f"--pair must name two leaves, got {args.pair!r}")
    leaf_vars, corrs = model_second_moments(model)
    constraints = build_constraints(model.tree, leaf_vars, corrs, objective=pair)
    directions = ["max", "min"] if args.direction == "both" else [args.direction]
    results = {d: extremal_correlation(constraints, d) for d in directions}
    for d, res in results.items():
        print(f"direction={d} value={_fmt(res.value)} "
              f"covariance={_fmt(res.covariance)} status={res.status} "
              f"iterations={res.info['iterations']} gap={_fmt(res.info['gap'])}")
    if args.out:
        labels = [node_label(leaf) for leaf in constraints.leaf_order]
        rows = []
        for d, res in results.items():
            for label, wrow in zip(labels, res.witness):
                rows.append([d, label] + list(wrow))
        with _open_out(args.out) as handle:
            _write_csv(handle, ["direction", "leaf"] + labels, rows)
    return 0


def _four_leaf_model():
    """Two groups of two normal leaves, Gaussian copulas throughout."""
    tree = RootedTree.from_nested(
        {"children": [{"children": [{}, {}]}, {"children": [{}, {}]}]}
    )
    marginals = {
        (1, 1): Normal(4.0, 3.0),
        (1, 2): Normal(2.0, 4.0),
        (2, 1): Normal(0.0, 10.0),
        (2, 2): Normal(3.0, 2.0),
    }
    copulas = {
        (1,): GaussianCopula.bivariate(0.7),
        (2,): GaussianCopula.bivariate(0.5),
        ROOT: GaussianCopula.bivariate(0.2),
    }
    return AggregationTreeModel(tree, marginals, copulas)


def _regroup_models():
    """Two groupings of three standard normal risks X, Y, Z.

    The first groups (X, Y) at correlation 0.5 with Z independent on top;
    the second groups (X, Z) independently and couples their sum to Y.
    Returns (first, second, display) where display maps each model's leaf
    order to the common X, Y, Z order.
    """
    two_then_one = RootedTree.from_nested({"children": [{"children": [{}, {}]}, {}]})
    std = Normal(0.0, 1.0)
    first = AggregationTreeModel(
        two_then_one,
        {(1, 1): std, (1, 2): std, (2,): std},
        {(1,): GaussianCopula.bivariate(0.5), ROOT: Independence(2)},
    )
    second = AggregationTreeModel(
        two_then_one,
        {(1, 1): std, (1, 2): std, (2,): std},
        {(1,): Independence(2),
         ROOT: GaussianCopula.bivariate(1.0 / (2.0 * math.sqrt(2.0)))},
    )
    display = {"first": [0, 1, 2], "second": [0, 2, 1]}
    return first, second, display


def _matrix_table(labels, matrix, means=None):
    """A labelled square matrix, with an optional mean column, as (header, rows)."""
    header = ["leaf"] + (["mean"] if means is not None else []) + list(labels)
    rows = [[label] + ([means[i]] if means is not None else []) + list(matrix[i])
            for i, label in enumerate(labels)]
    return header, rows


def _preset_four_leaf(n, seed):
    n = _need(10**6, n, "n")
    seed = _need(1234, seed, "seed")
    model = _four_leaf_model()
    least = len(model.tree.leaves()) + 1  # else the subsample covariance is singular
    if n < least:
        raise ConfigError(f"--n must be >= {least} for exp-3.4, got {n}")
    atoms = run_reordering(model, n, seed)
    law = tree_dependent_law(model)
    labels = [node_label(leaf) for leaf in law.leaf_order]
    composition = atoms.composition
    mean, cov = sample_mean_cov(composition)
    sub = min(10**4, n)
    pick = node_stream(seed, "subsample").choice(n, size=sub, replace=False)
    hz = henze_zirkler(composition[pick])
    tables = {"treedep.csv": _matrix_table(labels, law.covariance, law.mean),
              "sample_cov.csv": _matrix_table(labels, cov, mean)}
    return tables, [
        ("n", n),
        ("seed", seed),
        ("max_abs_cov_deviation", float(np.max(np.abs(cov - law.covariance)))),
        ("hz_statistic", hz.statistic),
        ("hz_p_value", hz.p_value),
    ]


def _preset_regroup():
    first, second, display = _regroup_models()
    covs = {}
    for name, model in (("first", first), ("second", second)):
        perm = display[name]
        covs[name] = tree_dependent_law(model).covariance[np.ix_(perm, perm)]
    diff = float(np.max(np.abs(covs["first"] - covs["second"])))
    tables = {f"{name}_grouping.csv": _matrix_table(["x", "y", "z"], cov)
              for name, cov in covs.items()}
    return tables, [
        ("max_abs_difference", diff),
        ("covariances_equal", diff == 0.0),
    ]


def _preset_scale_limits():
    big = 1e6
    rows = []
    errors = {"case1": 0.0, "case2": 0.0, "case3": 0.0}
    small = [-0.9, -0.4, 0.0, 0.4, 0.9]
    for r12 in small:
        for r0 in small:
            row, iv = _interval_row(big, 1.0, 1.0, r12, r0)
            rows.append(["case1"] + row)
            errors["case1"] = max(errors["case1"],
                                  abs(iv.min - r0), abs(iv.max - r0))
            row, iv = _interval_row(1.0, big, 1.0, r12, r0)
            rows.append(["case2"] + row)
            width = math.sqrt((1.0 - r12**2) * (1.0 - r0**2))
            errors["case2"] = max(errors["case2"],
                                  abs(iv.min - (r0 * r12 - width)),
                                  abs(iv.max - (r0 * r12 + width)))
            base = three_leaf_corr_interval(1.0, 2.0, 1.0, r12, r0)
            for s3 in (0.5, 1.0, 2.0, 10.0):
                row, iv = _interval_row(1.0, 2.0, s3, r12, r0)
                rows.append(["case3"] + row)
                errors["case3"] = max(errors["case3"],
                                      abs(iv.min - base.min), abs(iv.max - base.max))
    return {"limits.csv": (["case"] + _BOUNDS_HEADER, rows)}, [
        (f"{case}_max_error", error) for case, error in errors.items()]


def _preset_interval_length(rho_grid):
    grid = rho_grid or [round(-1.0 + 0.1 * k, 10) for k in range(21)]
    rows = []
    max_length = -math.inf
    for r12 in grid:
        for r0 in grid:
            row, iv = _interval_row(1.0, 1.0, 1.0, r12, r0)
            length = iv.max - iv.min
            rows.append([length] + row)
            max_length = max(max_length, length)
    _, corner = _interval_row(1.0, 1.0, 1.0, -1.0, 0.0)
    return {"lengths.csv": (["length"] + _BOUNDS_HEADER, rows)}, [
        ("max_length", max_length),
        ("length_at_rho12_-1_rho_root_0", corner.max - corner.min),
    ]


def _preset_interval_position(rho_grid):
    grid = rho_grid or [round(-1.0 + 0.25 * k, 10) for k in range(9)]
    rows = []
    off_center = 0.0
    comonotone_width = 0.0
    for r12 in grid:
        for r0 in grid:
            row, iv = _interval_row(1.0, 1.0, 1.0, r12, r0)
            rows.append(row)
            if not iv.degenerate:
                off_center = max(off_center, abs(iv.tree_dep - iv.mid))
                if r12 == 1.0:
                    comonotone_width = max(comonotone_width, iv.max - iv.min)
    return {"intervals.csv": (_BOUNDS_HEADER, rows)}, [
        ("max_abs_treedep_minus_mid", off_center),
        ("comonotone_max_width", comonotone_width),
    ]


def _preset_insurers():
    sqrt2 = math.sqrt(2.0)
    row1, iv1 = _interval_row(1.0, sqrt2, 1.0, -1.0 / sqrt2, 0.0)
    row2, iv2 = _interval_row(1.0, 1.0, sqrt2, 1.0, -1.0 / sqrt2)
    lam_worst = math.inf
    for a in (-1.0, 0.0, 1.0):
        cov = three_leaf_covariance(1.0, sqrt2, 1.0, -1.0 / sqrt2, 0.0, a)
        _, lam = psd_feasible(cov)
        lam_worst = min(lam_worst, lam)
    cov2 = three_leaf_covariance(1.0, 1.0, sqrt2, 1.0, -1.0 / sqrt2, iv2.tree_dep)
    true_cov = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
    rows = [["insurer1"] + row1, ["insurer2"] + row2]
    return {"insurers.csv": (["model"] + _BOUNDS_HEADER, rows)}, [
        ("insurer1_min", iv1.min),
        ("insurer1_max", iv1.max),
        ("insurer1_worst_lambda_min", lam_worst),
        ("insurer2_half_length", iv2.half_length),
        ("insurer2_cov_error", float(np.max(np.abs(cov2 - true_cov)))),
    ]


def _preset_symmetric(rho_grid):
    # + 0.0 turns the middle point's -0.0 into 0.0, so no cell reads -0
    grid = rho_grid or [round(-0.9 + 0.3 * k, 10) + 0.0 for k in range(7)]
    pairs = {"pair13": ("1.1.1", "1.2.1"), "pair18": ("1.1.1", "2.2.2")}
    degree = {"pair13": 2, "pair18": 3}
    rows = []
    nesting_slack = 0.0
    inside_slack = 0.0
    for rho in grid:
        bounds = {}
        for name, pair in pairs.items():
            cs = symmetric_tree_constraints(3, rho, objective=pair)
            lo = extremal_correlation(cs, "min")
            hi = extremal_correlation(cs, "max")
            td = symmetric_tree_dep_corr(degree[name], rho)
            bounds[name] = (lo.value, hi.value)
            rows.append([rho, name, td, lo.value, hi.value, lo.status, hi.status])
            inside_slack = max(inside_slack, lo.value - td, td - hi.value)
        nesting_slack = max(nesting_slack,
                            bounds["pair18"][0] - bounds["pair13"][0],
                            bounds["pair13"][1] - bounds["pair18"][1])
    header = ["rho", "pair", "tree_dep", "min", "max", "min_status", "max_status"]
    return {"symmetric.csv": (header, rows)}, [
        ("nesting_slack", nesting_slack),
        ("treedep_outside_slack", inside_slack),
    ]


# name -> (preset, the flags it reads); preset(**flags) -> (tables, summary):
# tables maps a file name to (header, rows), summary is the (key, value)
# lines of summary.txt
PRESETS = {
    "exp-3.4": (_preset_four_leaf, ("n", "seed")),
    "exp-4.3": (_preset_regroup, ()),
    "exp-5.ex1": (_preset_scale_limits, ()),
    "exp-5.ex2": (_preset_interval_length, ("rho_grid",)),
    "exp-5.ex3": (_preset_interval_position, ("rho_grid",)),
    "exp-5.ex4": (_preset_insurers, ()),
    "exp-5.sym8": (_preset_symmetric, ("rho_grid",)),
}


def _rho_grid(text):
    """The --rho-grid values; each must be a number in [-1, 1], so not nan."""
    try:
        grid = [float(part) for part in text.split(",")]
        if all(-1.0 <= rho <= 1.0 for rho in grid):
            return grid
    except ValueError:
        pass
    raise ConfigError(f"--rho-grid must be numbers in [-1, 1], got {text!r}")


def cmd_experiment(args):
    """Run a preset, then write its tables and summary.txt; nothing on failure."""
    preset, reads = PRESETS[args.preset]
    for flag in ("n", "seed", "rho_grid"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ConfigError(f"--{flag.replace('_', '-')} is not used by {args.preset}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    flags = {"n": args.n, "seed": args.seed,
             "rho_grid": None if args.rho_grid is None else _rho_grid(args.rho_grid)}
    tables, summary = preset(**{flag: flags[flag] for flag in reads})
    for name, (header, rows) in tables.items():
        with open(out_dir / name, "w", newline="") as handle:
            _write_csv(handle, header, rows)
    text = "".join(f"{key}={_fmt(value)}\n" for key, value in summary)
    (out_dir / "summary.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="aggtree",
        description="Hierarchical risk aggregation: sampling, exact laws, "
                    "and attainable-correlation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model config")
    p.add_argument("config")
    p.add_argument("--echo", action="store_true",
                   help="print the normalized config as JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sample", help="draw joint leaf samples as CSV")
    p.add_argument("config")
    p.add_argument("--algorithm", choices=["reorder", "mra"], default="reorder")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=float, default=10**8,
                   help="most leaf values the sampler may draw (reorder: n per "
                   "leaf; mra: n**(depth+1) per leaf); finite and >= 0")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("treedep", help="exact joint law of a Gaussian model")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_treedep)

    p = sub.add_parser("bounds3", help="three-leaf correlation interval")
    p.add_argument("--sigma1", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--sigma3", type=float, required=True)
    p.add_argument("--rho12", type=float, required=True)
    p.add_argument("--rho-root", type=float, required=True)
    p.add_argument("--rho13", type=float, default=None,
                   help="also complete the covariance at this correlation")
    p.add_argument("--ellipse", action="store_true",
                   help="append the feasible-ellipse parameters")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds3)

    p = sub.add_parser("extremal", help="attainable correlation range of a leaf pair")
    p.add_argument("config")
    p.add_argument("--pair", required=True, help="two leaf labels, e.g. '1.1,2.1'")
    p.add_argument("--direction", choices=["max", "min", "both"], default="both")
    p.add_argument("--out", default=None, help="write witness matrices as CSV")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("experiment", help="run a canned experiment preset")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, default=None, help="exp-3.4 only")
    p.add_argument("--seed", type=int, default=None, help="exp-3.4 only")
    p.add_argument("--rho-grid", default=None,
                   help="comma-separated grid override for exp-5.ex2, exp-5.ex3 "
                   "and exp-5.sym8")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        return args.func(args)
    except (GenerationBudgetError, SupportSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleCorrelationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (AggTreeError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
