"""Command line round trips, exit codes, and experiment preset smoke tests.

Everything runs in process through main(argv) so the tests see real exit
codes and can capture stdout/stderr without spawning subprocesses.
"""

import hashlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aggtree import (
    node_label,
    three_leaf_corr_interval,
    tree_dependent_law,
)
from aggtree import cli
from aggtree.cli import PRESETS, main
from conftest import FOUR_LEAF_CONFIG


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def read_summary(out_dir):
    text = (Path(out_dir) / "summary.txt").read_text()
    entries = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


class TestValidate:
    def test_ok(self, four_leaf_config, config_file, capsys):
        rc = main(["validate", config_file(four_leaf_config)])
        assert rc == 0
        assert capsys.readouterr().out == "ok\n"

    def test_echo_round_trip_is_byte_identical(self, four_leaf_config,
                                               config_file, tmp_path, capsys):
        rc = main(["validate", config_file(four_leaf_config), "--echo"])
        assert rc == 0
        first = capsys.readouterr().out
        echoed = tmp_path / "echoed.json"
        echoed.write_text(first)
        rc = main(["validate", str(echoed), "--echo"])
        assert rc == 0
        second = capsys.readouterr().out
        assert second == first
        cfg = json.loads(first)
        assert set(cfg) == {"tree", "marginals", "copulas", "seed", "n"}
        assert cfg["seed"] == 42 and cfg["n"] == 1000

    def test_missing_marginal_exits_2(self, four_leaf_config, config_file,
                                      capsys):
        del four_leaf_config["marginals"]["1.1"]
        rc = main(["validate", config_file(four_leaf_config)])
        assert rc == 2
        assert "invalid: leaf 1.1 has no marginal" in capsys.readouterr().err

    def test_missing_copula_exits_2(self, four_leaf_config, config_file,
                                    capsys):
        del four_leaf_config["copulas"]["root"]
        rc = main(["validate", config_file(four_leaf_config)])
        assert rc == 2
        assert "invalid: branching node root has no copula" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "nope.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_subcommand_choice_raises_system_exit(self, four_leaf_config,
                                                      config_file):
        path = config_file(four_leaf_config)
        with pytest.raises(SystemExit) as exc:
            main(["sample", path, "--algorithm", "bogus"])
        assert exc.value.code == 2


class TestConfigFields:
    """Each malformed field exits 2 with a message naming it."""

    def run(self, cfg, config_file, tmp_path, capsys, command="sample"):
        out = tmp_path / "draws.csv"
        rc = main([command, config_file(cfg)] +
                  (["--out", str(out)] if command == "sample" else []))
        assert rc == 2
        assert not out.exists()
        return capsys.readouterr().err

    def test_nan_mean_exits_2(self, four_leaf_config, config_file, tmp_path,
                              capsys):
        four_leaf_config["marginals"]["1.1"]["mean"] = math.nan
        for command in ("validate", "sample"):
            err = self.run(four_leaf_config, config_file, tmp_path, capsys,
                           command)
            assert "marginal '1.1': 'mean' must be a finite number" in err

    def test_infinite_var_exits_2(self, four_leaf_config, config_file,
                                  tmp_path, capsys):
        four_leaf_config["marginals"]["2.1"]["var"] = math.inf
        err = self.run(four_leaf_config, config_file, tmp_path, capsys)
        assert "marginal '2.1': 'var' must be a finite number" in err

    def test_fractional_n_exits_2(self, four_leaf_config, config_file,
                                  tmp_path, capsys):
        four_leaf_config["n"] = 2.7
        err = self.run(four_leaf_config, config_file, tmp_path, capsys)
        assert "config field 'n' must be a nonnegative integer" in err

    def test_boolean_seed_exits_2(self, four_leaf_config, config_file,
                                  tmp_path, capsys):
        four_leaf_config["seed"] = True
        err = self.run(four_leaf_config, config_file, tmp_path, capsys)
        assert "config field 'seed' must be a nonnegative integer" in err

    def test_nan_rho_exits_2(self, four_leaf_config, config_file, tmp_path,
                             capsys):
        four_leaf_config["copulas"]["root"]["rho"] = math.nan
        err = self.run(four_leaf_config, config_file, tmp_path, capsys)
        assert "copula 'root': 'rho' must be a finite number" in err
        assert "symmetric" not in err

    def test_whole_float_n_is_accepted(self, four_leaf_config, config_file,
                                       tmp_path):
        four_leaf_config["n"] = 50.0
        out = tmp_path / "draws.csv"
        assert main(["sample", config_file(four_leaf_config),
                     "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 50


    @pytest.mark.parametrize("field, value, message", [
        ("marginals", [], "config field 'marginals' must be a JSON object, got []"),
        ("copulas", [], "config field 'copulas' must be a JSON object, got []"),
        ("tree", {"children": [{}, 5]}, "tree node 2 must be an object, got 5"),
        ("tree", {"children": 3}, "tree node root: 'children' must be a list, got 3"),
    ])
    def test_wrong_shape_exits_2(self, field, value, message, four_leaf_config,
                                 config_file, tmp_path, capsys):
        four_leaf_config[field] = value
        for command in ("validate", "sample"):
            err = self.run(four_leaf_config, config_file, tmp_path, capsys,
                           command)
            assert err == f"error: {message}\n"

    def test_marginal_spec_must_be_an_object(self, four_leaf_config,
                                             config_file, tmp_path, capsys):
        four_leaf_config["marginals"]["1.1"] = 5
        err = self.run(four_leaf_config, config_file, tmp_path, capsys)
        assert err == "error: marginal '1.1' must be a JSON object, got 5\n"

    @pytest.mark.parametrize("flag", ["--seed", "--n"])
    def test_negative_flag_exits_2(self, flag, four_leaf_config, config_file,
                                   capsys):
        rc = main(["sample", config_file(four_leaf_config), flag, "-1"])
        assert rc == 2
        assert f"{flag} must be a nonnegative integer, got -1" in (
            capsys.readouterr().err)


class TestSample:
    def test_reorder_output_shape_and_header(self, four_leaf_config,
                                             config_file, tmp_path):
        out = tmp_path / "draws.csv"
        rc = main(["sample", config_file(four_leaf_config), "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["1.1", "1.2", "2.1", "2.2"]
        assert len(rows) == 1000
        block = np.array([[float(cell) for cell in row] for row in rows])
        assert np.all(np.isfinite(block))
        # loose sanity on the marginal means at n=1000
        assert np.allclose(block.mean(axis=0), [4.0, 2.0, 0.0, 3.0], atol=0.5)

    def test_rerun_is_byte_identical(self, four_leaf_config, config_file,
                                     tmp_path):
        path = config_file(four_leaf_config)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", path, "--out", str(out1)]) == 0
        assert main(["sample", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flags_override_config(self, four_leaf_config, config_file,
                                   tmp_path):
        out = tmp_path / "draws.csv"
        rc = main(["sample", config_file(four_leaf_config),
                   "--n", "50", "--seed", "7", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 50

    def test_stdout_when_no_out_flag(self, four_leaf_config, config_file,
                                     capsys):
        four_leaf_config["n"] = 5
        rc = main(["sample", config_file(four_leaf_config)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1.1,1.2,2.1,2.2"
        assert len(lines) == 6

    def test_missing_n_exits_2(self, four_leaf_config, config_file, capsys):
        del four_leaf_config["n"]
        rc = main(["sample", config_file(four_leaf_config)])
        assert rc == 2
        assert "n must be set in the config or by flag" in capsys.readouterr().err

    def test_mra_small_run(self, four_leaf_config, config_file, tmp_path):
        path = config_file(four_leaf_config)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", path, "--algorithm", "mra", "--n", "64"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        header, rows = read_csv(out1)
        assert header == ["1.1", "1.2", "2.1", "2.2"]
        assert len(rows) == 64
        assert out1.read_bytes() == out2.read_bytes()

    def test_mra_over_budget_exits_3(self, four_leaf_config, config_file,
                                     tmp_path, capsys):
        rc = main(["sample", config_file(four_leaf_config),
                   "--algorithm", "mra", "--n", "100000",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "exceeds budget" in err


    @pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
    def test_mra_bad_budget_exits_2(self, budget, four_leaf_config,
                                    config_file, capsys):
        rc = main(["sample", config_file(four_leaf_config), "--algorithm",
                   "mra", "--n", "3", "--budget", budget])
        assert rc == 2
        assert "--budget must be finite and >= 0" in capsys.readouterr().err

    def test_mra_huge_n_exits_3(self, four_leaf_config, config_file, capsys):
        rc = main(["sample", config_file(four_leaf_config), "--algorithm",
                   "mra", "--n", str(10**400)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: estimated generation count 4e+1200")
        assert "exceeds budget" in err

    @pytest.mark.parametrize("n, draws", [(10**11, "4e+11"),
                                          (10**400, "4e+400")],
                             ids=["1e11", "1e400"])
    def test_reorder_huge_n_exits_3(self, n, draws, four_leaf_config,
                                    config_file, capsys):
        rc = main(["sample", config_file(four_leaf_config), "--n", str(n)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: estimated generation count {draws} exceeds budget 1e+08\n")

    def test_reorder_budget_counts_leaf_draws(self, four_leaf_config,
                                              config_file, tmp_path):
        # four leaves at n=50 draw 200 values
        args = ["sample", config_file(four_leaf_config), "--n", "50",
                "--out", str(tmp_path / "x.csv")]
        assert main(args + ["--budget", "199"]) == 3
        assert main(args + ["--budget", "200"]) == 0


class TestOutPath:
    """A bad ``--out`` exits 2 before any work and creates no file."""

    @pytest.fixture(params=["missing-dir", "is-dir"])
    def bad_out(self, request, tmp_path):
        if request.param == "is-dir":
            return tmp_path
        return tmp_path / "missing" / "x.csv"

    def commands(self, config):
        return {
            "sample": ["sample", config, "--n", "3000000", "--seed", "1"],
            "treedep": ["treedep", config],
            "bounds3": TestBounds3.ARGS,
            "extremal": ["extremal", config, "--pair", "1.1,2.1"],
        }

    @pytest.mark.parametrize("command", ["sample", "treedep", "bounds3", "extremal"])
    def test_exits_2_before_work(self, command, bad_out, four_leaf_config,
                                 config_file, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(cli, "run_reordering", never)
        argv = self.commands(config_file(four_leaf_config))[command]
        before = sorted(tmp_path.rglob("*"))
        rc = main(argv + ["--out", str(bad_out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --out must be '-' or a file in an existing directory, "
            f"got {str(bad_out)!r}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_dash_is_stdout(self, four_leaf_config, config_file, capsys):
        rc = main(["sample", config_file(four_leaf_config), "--n", "3",
                   "--out", "-"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 4


def write_csv_per_cell(handle, header, rows):
    """The per-cell writer ``sample`` used before the bulk encoder; the
    byte reference for ``cli._write_block``."""
    handle.write(",".join(header) + "\n")
    for row in rows:
        handle.write(",".join(f"{float(cell):.17g}" for cell in row) + "\n")


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
               2.2250738585072009e-308, -1e-310, 0.1, 1.0 / 3.0,
               np.nextafter(1.0, 2.0), -1.2345678901234567e-300,
               1.7976931348623157e308, 1e22, 123456789012345678.0, -2.5]


def signed(values):
    """``values`` and their negatives, as one column."""
    v = np.array(values, dtype=float)
    return np.concatenate([v, -v])[:, None]


def in_encoder_range(v):
    return Fraction(10) ** -6 <= abs(Fraction(v)) < 10**17


# the double nearest 1e-6 lies below 10**-6; the encoder's range starts one above
LEAST = float(np.nextafter(1e-6, 1.0))


# 10**k for k = -7..17 and the doubles next to it
POWERS_OF_TEN = [q for k in range(-7, 18) for p in [float(f"1e{k}")]
                 for q in (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))]
# exact ties at the 17th digit (round half to even), the largest doubles below
# a power of ten, and short decimals
TIES_AND_NEAR_POWERS = [100000000000000.125, 100000000000000.375, 1000000000000000.25,
                        1000000000000000.75, 9.9999999999999995e-05, 1e16 + 2,
                        99999999999999984.0, 0.5, 0.1, 0.3, 2.675, 1.0 / 3.0]
# %.17g switches to exponent notation below 1e-4
EXPONENT_SWITCH = [1e-4, 0.00012345678901234567, 9.9999999999999995e-05, 1e-5,
                   1.5e-5, 5e-6, LEAST, 2.5e-6]
INTEGRAL = np.array([[0.0, 1.0, -3.0, 1e16], [12345.0, 2.0**53, 7.0, 99999999999999984.0]])
NORMALS_AND_A_SUBNORMAL = np.random.default_rng(2).standard_normal((100, 4))
NORMALS_AND_A_SUBNORMAL[50, 2] = 5e-324
RANDOM_BITS = np.random.default_rng(3).integers(  # 2**18 bit patterns in [LEAST, 1e17)
    np.float64(LEAST).view(np.int64), np.float64(1e17).view(np.int64), (2**16, 4)
).view(np.float64) * np.random.default_rng(4).choice([-1.0, 1.0], (2**16, 4))


@pytest.mark.parametrize("block, encoded", [
    pytest.param(np.array(EDGE_FLOATS).reshape(4, 4), 0, id="edge-values"),
    pytest.param(np.array(EDGE_FLOATS)[:, None], 0, id="one-column"),
    pytest.param(np.empty((0, 3)), 0, id="no-rows"),
    pytest.param(np.random.default_rng(0).standard_normal((cli._CSV_CHUNK_ROWS + 1, 2)), 2,
                 id="one-chunk-plus-one-row"),
    pytest.param(np.random.default_rng(1).standard_normal((4, 3)).T, 1, id="transposed-view"),
    pytest.param(signed([v for v in POWERS_OF_TEN if in_encoder_range(v)]), 1,
                 id="powers-of-ten"),
    pytest.param(signed([v for v in POWERS_OF_TEN if not in_encoder_range(v)]), 0,
                 id="powers-of-ten-out-of-range"),
    pytest.param(signed(TIES_AND_NEAR_POWERS), 1, id="ties-and-near-powers"),
    pytest.param(signed(EXPONENT_SWITCH), 1, id="exponent-switch"),
    pytest.param(INTEGRAL, 0, id="integral"),
    pytest.param(np.where(INTEGRAL == 7.0, -0.0, INTEGRAL), 1, id="integral-and-negative-zero"),
    pytest.param(NORMALS_AND_A_SUBNORMAL, 0, id="normals-and-a-subnormal"),
    pytest.param(RANDOM_BITS, 2**16 // cli._CSV_CHUNK_ROWS,
                 id="random-bits-in-encoder-range"),
])
def test_write_block_matches_per_cell_writer(block, encoded, monkeypatch):
    calls = []
    encode = cli._encode_g17
    monkeypatch.setattr(cli, "_encode_g17", lambda *a: calls.append(1) or encode(*a))
    header = [f"c{j}" for j in range(block.shape[1])]
    fast, slow = io.StringIO(), io.StringIO()
    cli._write_block(fast, header, [block])
    write_csv_per_cell(slow, header, block)
    assert fast.getvalue() == slow.getvalue()
    assert len(calls) == encoded  # chunks that took the numpy encoder


# 1e-6 <= |v| < 1e17 or v = ±0: the numpy encoder's range
ENCODABLE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(LEAST, 1e17, exclude_max=True),
                      st.floats(-1e17, -LEAST, exclude_min=True))
# blocks of any floats (NaN and infinities included), of encodable floats, and
# of integers (the %d path)
BLOCKS = st.one_of(*(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                                elements=cells, fill=st.nothing())
                     for cells in (st.floats(), ENCODABLE, st.integers(-10**6, 10**6).map(float))))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(BLOCKS)
def test_write_block_matches_per_cell_writer_on_any_floats(block):
    fast, slow = io.StringIO(), io.StringIO()
    cli._write_block(fast, ["c"] * block.shape[1], [block])
    write_csv_per_cell(slow, ["c"] * block.shape[1], block)
    assert fast.getvalue() == slow.getvalue()


# NaN, infinities and values outside a field's domain, next to valid ones
BAD_FIELD_VALUES = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1.5, -2.0, 1e308]


@st.composite
def four_leaf_configs(draw):
    def field(lo, hi):
        # one field in eight takes a bad value; about half the configs stay valid
        if draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(BAD_FIELD_VALUES))
        return draw(st.floats(lo, hi))

    cfg = json.loads(json.dumps(FOUR_LEAF_CONFIG))
    for spec in cfg["marginals"].values():
        spec["mean"] = field(-10.0, 10.0)
        spec["var"] = field(0.1, 10.0)
    for spec in cfg["copulas"].values():
        spec["rho"] = field(-1.0, 1.0)
    cfg["n"] = draw(st.integers(2, 50))
    return cfg


@settings(max_examples=150, derandomize=True, deadline=None)
@given(four_leaf_configs(), st.sampled_from(["reorder", "mra"]))
def test_config_never_yields_non_finite_output(cfg, algorithm):
    # each run either exits 2 or writes n rows of finite cells
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "model.json", Path(tmp) / "draws.csv"
        config.write_text(json.dumps(cfg))
        checked = main(["validate", str(config)])
        rc = main(["sample", str(config), "--algorithm", algorithm,
                   "--out", str(out)])
        assert checked in (0, 2) and rc in (0, 2)
        assert rc == 2 or checked == 0
        if rc == 0:
            cells = np.array(read_csv(out)[1], dtype=float)
            assert cells.shape == (cfg["n"], 4)
            assert np.isfinite(cells).all()
        else:
            assert not out.exists()


class TestTreedep:
    def test_csv_matches_exact_law(self, four_leaf_config, config_file,
                                   four_leaf_model, tmp_path):
        out = tmp_path / "law.csv"
        rc = main(["treedep", config_file(four_leaf_config),
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        law = tree_dependent_law(four_leaf_model)
        labels = [node_label(leaf) for leaf in law.leaf_order]
        assert header == ["leaf", "mean"] + labels
        assert [row[0] for row in rows] == labels
        mean = np.array([float(row[1]) for row in rows])
        cov = np.array([[float(cell) for cell in row[2:]] for row in rows])
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(mean, law.mean)
        assert np.array_equal(cov, law.covariance)


class TestBounds3:
    ARGS = ["bounds3", "--sigma1", "1", "--sigma2", "2", "--sigma3", "1",
            "--rho12", "0.5", "--rho-root", "0.3"]

    def test_row_matches_interval(self, tmp_path):
        out = tmp_path / "row.csv"
        rc = main(self.ARGS + ["--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["sigma1", "sigma2", "sigma3", "rho12", "rho_root",
                          "min", "mid", "half_length", "max", "tree_dep",
                          "degenerate"]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        iv = three_leaf_corr_interval(1.0, 2.0, 1.0, 0.5, 0.3)
        assert float(row["min"]) == iv.min
        assert float(row["mid"]) == iv.mid
        assert float(row["half_length"]) == iv.half_length
        assert float(row["max"]) == iv.max
        assert float(row["tree_dep"]) == iv.tree_dep
        assert row["degenerate"] == "false"

    def test_rho13_columns(self, tmp_path):
        out = tmp_path / "row.csv"
        rc = main(self.ARGS + ["--rho13", "0.4", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert header[-4:] == ["rho13", "sigma13", "sigma23", "lambda_min"]
        assert float(row["sigma13"]) == pytest.approx(0.4 * 1.0 * 1.0)
        assert float(row["lambda_min"]) >= -1e-9

    def test_infeasible_rho13_exits_4(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--rho13", "0.99",
                               "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: correlation 0.99 is outside [")
        assert " by " in err

    @pytest.mark.parametrize("extra, message", [
        (["--sigma1", "1e200", "--sigma2", "1e200"],
         "sigma1 must lie in [1e-150, 1e150], got 1e+200"),
        (["--sigma1", "inf"], "sigma1 must lie in [1e-150, 1e150], got inf"),
        (["--sigma3", "inf", "--ellipse"],
         "sigma3 must lie in [1e-150, 1e150], got inf"),
        (["--rho13", "nan"], "rho13 must be a number, got nan"),
    ])
    def test_bad_input_exits_2_naming_the_field(self, extra, message, tmp_path,
                                                capsys):
        out = tmp_path / "row.csv"
        rc = main(self.ARGS + extra + ["--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_ellipse_columns(self, tmp_path):
        out = tmp_path / "row.csv"
        rc = main(self.ARGS + ["--ellipse", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert header[-5:] == ["u", "v", "x0", "a", "b"]
        iv = three_leaf_corr_interval(1.0, 2.0, 1.0, 0.5, 0.3)
        assert (float(row["x0"]) + float(row["a"])) == pytest.approx(iv.max, abs=1e-12)
        assert (float(row["x0"]) - float(row["a"])) == pytest.approx(iv.min, abs=1e-12)

    def test_ellipse_overflow_exits_2(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        rc = main(["bounds3", "--sigma1", "1e100", "--sigma2", "1e-100",
                   "--sigma3", "1e100", "--rho12", "0.999999", "--rho-root", "0.5",
                   "--ellipse", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: the ellipse overflows the double range at sigma1=1e+100, "
            "sigma2=1e-100, sigma3=1e+100, rho12=0.999999, rho_root=0.5: ")
        assert not out.exists()


class TestExtremal:
    def test_both_directions_bracket_tree_dependent_value(
            self, four_leaf_config, config_file, four_leaf_model, tmp_path,
            capsys):
        out = tmp_path / "witness.csv"
        rc = main(["extremal", config_file(four_leaf_config),
                   "--pair", "1.1,2.1", "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        values = {}
        for line in lines:
            fields = dict(part.split("=") for part in line.split())
            assert fields["status"] == "optimal"
            values[fields["direction"]] = float(fields["value"])
        law = tree_dependent_law(four_leaf_model)
        tree_dep = law.covariance[0, 2] / math.sqrt(
            law.covariance[0, 0] * law.covariance[2, 2])
        assert values["min"] <= tree_dep + 1e-9
        assert values["max"] >= tree_dep - 1e-9

        header, rows = read_csv(out)
        assert header == ["direction", "leaf", "1.1", "1.2", "2.1", "2.2"]
        assert len(rows) == 8
        for direction in ("max", "min"):
            wit = np.array([[float(cell) for cell in row[2:]]
                            for row in rows if row[0] == direction])
            assert wit.shape == (4, 4)
            corr = wit[0, 2] / math.sqrt(wit[0, 0] * wit[2, 2])
            assert corr == pytest.approx(values[direction], abs=1e-9)
            assert np.linalg.eigvalsh(wit).min() >= -1e-7

    def test_single_direction(self, four_leaf_config, config_file, capsys):
        rc = main(["extremal", config_file(four_leaf_config),
                   "--pair", "1.1,2.2", "--direction", "max"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("direction=max ")
        fields = dict(part.split("=") for part in lines[0].split())
        assert int(fields["iterations"]) >= 0
        assert float(fields["gap"]) <= 1e-7

    def test_malformed_pair_exits_2(self, four_leaf_config, config_file,
                                    capsys):
        rc = main(["extremal", config_file(four_leaf_config), "--pair", "1.1"])
        assert rc == 2
        assert "--pair must name two leaves" in capsys.readouterr().err


class TestExperimentPresets:
    def test_registry_names(self):
        assert sorted(PRESETS) == ["exp-3.4", "exp-4.3", "exp-5.ex1",
                                   "exp-5.ex2", "exp-5.ex3", "exp-5.ex4",
                                   "exp-5.sym8"]

    def test_unknown_preset_raises_system_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "exp-nope", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_four_leaf_preset(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "exp-3.4", "--out-dir", str(out),
                   "--n", "2000", "--seed", "0"])
        assert rc == 0
        capsys.readouterr()
        for name in ("treedep.csv", "sample_cov.csv", "summary.txt"):
            assert (out / name).exists()
        summary = read_summary(out)
        assert summary["n"] == "2000"
        assert float(summary["max_abs_cov_deviation"]) < 1.5
        assert 0.0 <= float(summary["hz_p_value"]) <= 1.0

    @pytest.mark.parametrize("n, draws", [(10**11, "4e+11"),
                                          (10**400, "4e+400")],
                             ids=["1e11", "1e400"])
    def test_four_leaf_preset_bounds_leaf_draws(self, n, draws, tmp_path,
                                                capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "exp-3.4", "--out-dir", str(out),
                   "--n", str(n)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: estimated generation count {draws} exceeds budget 1e+08\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("flag, value, message", [
        ("--n", "1", "--n must be >= 5 for exp-3.4, got 1"),
        ("--n", "2", "--n must be >= 5 for exp-3.4, got 2"),
        ("--n", "3", "--n must be >= 5 for exp-3.4, got 3"),
        ("--n", "4", "--n must be >= 5 for exp-3.4, got 4"),
        ("--n", "-1", "--n must be a nonnegative integer, got -1"),
        ("--seed", "-1", "--seed must be a nonnegative integer, got -1"),
    ], ids=["n1", "n2", "n3", "n4", "n-neg", "seed-neg"])
    def test_four_leaf_preset_checks_flags_first(self, flag, value, message,
                                                 tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "exp-3.4", "--out-dir", str(out),
                   flag, value])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("preset, grid", [
        ("exp-5.sym8", "nan"),
        ("exp-5.ex2", "0,2"),
        ("exp-5.ex3", "0,x"),
        ("exp-5.ex2", ""),
    ], ids=["nan", "above-one", "not-a-number", "empty"])
    def test_rho_grid_is_checked_first(self, preset, grid, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", preset, "--out-dir", str(out),
                   f"--rho-grid={grid}"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --rho-grid must be numbers in [-1, 1], got {grid!r}\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("preset, flag", [
        ("exp-3.4", "--rho-grid"),
        ("exp-4.3", "--n"), ("exp-4.3", "--seed"), ("exp-4.3", "--rho-grid"),
        ("exp-5.ex1", "--n"), ("exp-5.ex1", "--seed"), ("exp-5.ex1", "--rho-grid"),
        ("exp-5.ex2", "--n"), ("exp-5.ex2", "--seed"),
        ("exp-5.ex3", "--n"), ("exp-5.ex3", "--seed"),
        ("exp-5.ex4", "--n"), ("exp-5.ex4", "--seed"), ("exp-5.ex4", "--rho-grid"),
        ("exp-5.sym8", "--n"), ("exp-5.sym8", "--seed"),
    ])
    def test_unused_flag_is_refused(self, preset, flag, tmp_path, capsys):
        out = tmp_path / "exp"
        value = {"--n": "5", "--seed": "3", "--rho-grid": "0.5"}[flag]
        rc = main(["experiment", preset, "--out-dir", str(out), flag, value])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {flag} is not used by {preset}\n")
        assert not out.exists()

    def test_regroup_preset(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "exp-4.3", "--out-dir", str(out)])
        assert rc == 0
        capsys.readouterr()
        summary = read_summary(out)
        assert float(summary["max_abs_difference"]) == pytest.approx(0.25, abs=1e-12)
        assert summary["covariances_equal"] == "false"
        for name in ("first_grouping.csv", "second_grouping.csv"):
            header, rows = read_csv(out / name)
            assert header == ["leaf", "x", "y", "z"]
            assert [row[0] for row in rows] == ["x", "y", "z"]

    def test_scale_limit_preset(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "exp-5.ex1", "--out-dir", str(out)])
        assert rc == 0
        capsys.readouterr()
        summary = read_summary(out)
        assert float(summary["case1_max_error"]) <= 1e-6
        assert float(summary["case2_max_error"]) <= 1e-6
        assert float(summary["case3_max_error"]) == 0.0

    def test_interval_length_preset(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "exp-5.ex2", "--out-dir", str(out),
                   "--rho-grid=-1,-0.5,0,0.5,1"])
        assert rc == 0
        capsys.readouterr()
        summary = read_summary(out)
        assert float(summary["max_length"]) == pytest.approx(2.0, abs=1e-12)
        assert float(summary["length_at_rho12_-1_rho_root_0"]) == pytest.approx(
            2.0, abs=1e-12)
        header, rows = read_csv(out / "lengths.csv")
        assert header[0] == "length"
        assert len(rows) == 25

    def test_interval_position_preset(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "exp-5.ex3", "--out-dir", str(out)])
        assert rc == 0
        capsys.readouterr()
        summary = read_summary(out)
        assert float(summary["max_abs_treedep_minus_mid"]) == 0.0
        assert float(summary["comonotone_max_width"]) == 0.0

    def test_insurer_preset(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "exp-5.ex4", "--out-dir", str(out)])
        assert rc == 0
        capsys.readouterr()
        summary = read_summary(out)
        assert float(summary["insurer1_min"]) == pytest.approx(-1.0, abs=1e-9)
        assert float(summary["insurer1_max"]) == pytest.approx(1.0, abs=1e-9)
        assert float(summary["insurer1_worst_lambda_min"]) >= -1e-9
        assert float(summary["insurer2_half_length"]) == 0.0
        assert float(summary["insurer2_cov_error"]) <= 1e-12
        header, rows = read_csv(out / "insurers.csv")
        assert [row[0] for row in rows] == ["insurer1", "insurer2"]

    def test_symmetric_preset_single_point(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "exp-5.sym8", "--out-dir", str(out),
                   "--rho-grid", "-0.5"])
        assert rc == 0
        capsys.readouterr()
        summary = read_summary(out)
        assert float(summary["nesting_slack"]) <= 1e-5
        assert float(summary["treedep_outside_slack"]) <= 1e-5
        header, rows = read_csv(out / "symmetric.csv")
        assert header == ["rho", "pair", "tree_dep", "min", "max",
                          "min_status", "max_status"]
        assert len(rows) == 2
        # at rho = -0.5 the attainable interval is the full [-1, 1] range
        for row in rows:
            entry = dict(zip(header, row))
            assert float(entry["min"]) == pytest.approx(-1.0, abs=1e-3)
            assert float(entry["max"]) == pytest.approx(1.0, abs=1e-3)

    def test_symmetric_preset_at_rho_minus_one(self, tmp_path, capsys):
        # every sibling pair is countermonotone, so each level-1 sum is 0
        out = tmp_path / "exp"
        rc = main(["experiment", "exp-5.sym8", "--out-dir", str(out),
                   "--rho-grid", "-1"])
        assert rc == 0
        capsys.readouterr()
        header, rows = read_csv(out / "symmetric.csv")
        assert [row[1] for row in rows] == ["pair13", "pair18"]
        for row in rows:
            entry = dict(zip(header, row))
            assert (float(entry["min"]), float(entry["max"])) == (-1.0, 1.0)
            assert entry["min_status"] == entry["max_status"] == "optimal"

    def test_symmetric_preset_writes_no_negative_zero(self, tmp_path, capsys):
        # the default grid's middle point, round(-0.9 + 0.3 * 3, 10), is -0.0
        out = tmp_path / "exp"
        assert main(["experiment", "exp-5.sym8", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        _, rows = read_csv(out / "symmetric.csv")
        assert [row[0] for row in rows[6:8]] == ["0", "0"]
        assert not [cell for row in rows for cell in row if cell == "-0"]


# sha256 of every output file, recorded before presets stopped writing their
# own files; only presets free of LAPACK/BLAS calls, whose last bits may vary
# by CPU
FROZEN_PRESET_OUTPUTS = {
    "exp-4.3": {
        "first_grouping.csv": "17e4fbeab0a0c9c09c575707fec85dbdceb7bd2511fc5c30c7bba142123b1860",
        "second_grouping.csv": "9c2dbeb691b248e97d616d82ed06e301246ffab7cbe1c37181ad27356bb98305",
        "summary.txt": "2e48ad1ce415fe37c62c70fcd06fa8194e6e7248b6c263b88283cf65d0c26c96",
    },
    "exp-5.ex1": {
        "limits.csv": "05029aeb2c6a78dc50a3ca6234c61b5ab831412500a13d4f15f75eff1723ec9d",
        "summary.txt": "7f2d64497fdb9463a0734c42a8d25a6fe9d438be992dc434b67926ed971e18d7",
    },
    "exp-5.ex2": {
        "lengths.csv": "8d010b67c23bdc94320f6836763b2942391e4eb3d63efe1541461a505ed2358f",
        "summary.txt": "397e5809de39fad682fc55a5f146b0b6abfb644b2ef3c286df5f191a48585c8b",
    },
    "exp-5.ex3": {
        "intervals.csv": "8fdd2bb4b969f3b3bac66fcf0caa0abb2e079f0e866b65ae923de9dc74225fbf",
        "summary.txt": "477841ad6ee52837b06f94ff0b2c603d5e4382095c48782ef7f6754fa9f84fa2",
    },
}
FROZEN_TREEDEP_STDOUT = "653831af46e96f7f9c888648724d2528cc7b72bc9435563c70396cfa20915f08"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_preset_outputs_are_frozen(four_leaf_config, config_file, tmp_path,
                                   capsys):
    for preset, digests in FROZEN_PRESET_OUTPUTS.items():
        out = tmp_path / preset
        assert main(["experiment", preset, "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (out / "summary.txt").read_text()
        assert {path.name: sha256(path.read_bytes())
                for path in out.iterdir()} == digests, preset
    assert main(["treedep", config_file(four_leaf_config)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == FROZEN_TREEDEP_STDOUT
