"""Start-up cost guard: the CLI must not pull in heavy scipy subpackages.

``import aggtree.cli`` runs on every command. Nothing in the package needs
scipy.integrate or scipy.optimize, and only the Henze-Zirkler test needs
scipy.linalg; each adds a large share of a cold start, so a fresh
interpreter must not load them. The extremal correlation solver runs on
numpy.linalg alone. The special functions come from scipy.special's
compiled ufuncs without the package ``__init__`` and the array-API layer
it loads; a real ``import scipy.special`` before or after must still work
and hand out the same functions.

Only drawing needs numpy.random and the special functions, so they load on
first use: the commands that draw nothing must end without numpy.random,
any scipy module or decimal (which only a huge count's message needs).
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import aggtree
from conftest import FOUR_LEAF_CONFIG

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg")
SPECIAL_INIT = ("scipy.special", "scipy._lib._array_api", "numpy.f2py")
SPECIAL = ("ndtr", "ndtri", "owens_t")


def fresh_interpreter(code, **environ):
    """Standard output of ``code`` run by a new interpreter on this package,
    with ``SCIPY_ARRAY_API`` unset unless ``environ`` sets it."""
    package_root = str(Path(aggtree.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env.pop("SCIPY_ARRAY_API", None)
    env.update(environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_skips_heavy_scipy_subpackages():
    code = ("import sys, aggtree.cli; "
            f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))")
    assert fresh_interpreter(code) == ""


def test_cli_import_skips_scipy_special_init():
    code = ("import sys, aggtree.cli; "
            f"print(','.join(m for m in {SPECIAL_INIT!r} if m in sys.modules))")
    assert fresh_interpreter(code) == ""


def test_scipy_special_imported_after_aggtree():
    code = (
        "import aggtree.cli\n"
        "from aggtree import _rng\n"
        "import scipy.special, scipy.stats\n"
        "print(round(float(scipy.stats.norm.ppf(0.3)), 12),\n"
        f"      all(getattr(scipy.special, f) is getattr(_rng, f) for f in {SPECIAL!r}))\n"
    )
    assert fresh_interpreter(code) == "-0.524400512708 True"


def test_scipy_special_imported_before_aggtree():
    code = (
        "import sys\n"
        "import scipy.special\n"
        "from aggtree import _rng\n"
        "print(sys.modules['scipy.special'] is scipy.special,\n"
        f"      all(getattr(scipy.special, f) is getattr(_rng, f) for f in {SPECIAL!r}))\n"
    )
    assert fresh_interpreter(code) == "True True"


def test_array_api_mode_gives_the_same_values():
    # with SCIPY_ARRAY_API=1 scipy.special wraps each ufunc, so compare values
    code = (
        "import numpy as np\n"
        "import aggtree.cli\n"
        "from aggtree import _rng\n"
        "import scipy.special as sc, scipy.stats\n"
        "x = np.linspace(-40.0, 40.0, 100001)\n"
        "p = np.linspace(0.0, 1.0, 100001)\n"
        "print(round(float(scipy.stats.norm.ppf(0.3)), 12),\n"
        "      np.array_equal(sc.ndtr(x), _rng.ndtr(x)),\n"
        "      np.array_equal(sc.ndtri(p), _rng.ndtri(p)),\n"
        "      all(np.array_equal(sc.owens_t(x, a), _rng.owens_t(x, a))\n"
        "          for a in (-3.0, -0.5, 0.25, 1.0, 7.5)))\n"
    )
    assert fresh_interpreter(code, SCIPY_ARRAY_API="1") == "-0.524400512708 True True True"


def test_extremal_search_skips_scipy_linalg():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from aggtree import RootedTree, build_constraints, extremal_correlation\n"
        "tree = RootedTree.from_nested({'children': [{'children': [{}, {}]}, {}]})\n"
        "corrs = {(1,): np.array([[1.0, 0.6], [0.6, 1.0]]),\n"
        "         (): np.array([[1.0, 0.3], [0.3, 1.0]])}\n"
        "cs = build_constraints(tree, {(1, 1): 1.0, (1, 2): 4.0, (2,): 2.25}, corrs,\n"
        "                       objective=('1.1', '2'))\n"
        "res = extremal_correlation(cs, 'min')\n"
        "print(res.status, 'scipy.linalg' in sys.modules)\n"
    )
    assert fresh_interpreter(code) == "optimal False"


# any scipy submodule loads the scipy package itself
SAMPLING_STACK = ("numpy.random", "scipy", "decimal")
LOADED = f"print(','.join(m for m in {SAMPLING_STACK!r} if m in sys.modules))\n"


def run_commands(commands):
    """The modules of SAMPLING_STACK that a fresh interpreter has loaded after
    running ``cli.main`` on each command, its output thrown away."""
    code = ("import contextlib, io, sys\n"
            "from aggtree import cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n" + LOADED)
    return fresh_interpreter(code)


def test_cli_import_skips_the_sampling_stack():
    assert fresh_interpreter("import sys, aggtree.cli\n" + LOADED) == ""


def test_commands_without_draws_skip_the_sampling_stack(tmp_path):
    config = tmp_path / "model.json"
    config.write_text(json.dumps(FOUR_LEAF_CONFIG))
    config, out = str(config), str(tmp_path / "out")
    assert run_commands([
        ["validate", config],
        ["treedep", config],
        ["bounds3", "--sigma1", "1", "--sigma2", "2", "--sigma3", "1.5",
         "--rho12", "0.5", "--rho-root", "0.3", "--rho13", "0.2", "--ellipse"],
        ["extremal", config, "--pair", "1.1,2.1", "--direction", "both"],
        ["experiment", "exp-5.sym8", "--rho-grid", "0.3", "--out-dir", out],
    ]) == ""
    assert run_commands([["experiment", "exp-4.3", "--out-dir", out]]) == ""


def test_sampling_loads_the_stack(tmp_path):
    # the guard above sees the modules once something draws
    config = tmp_path / "model.json"
    config.write_text(json.dumps(FOUR_LEAF_CONFIG))
    assert run_commands([["sample", str(config), "--n", "10"]]) == "numpy.random,scipy"


def test_special_functions_resolve_on_first_use():
    # four threads touch ndtri first at once: one load, one ufunc for all
    code = (
        "import threading, time\n"
        "from aggtree import _rng\n"
        "loads, load = [], _rng._special_ufuncs\n"
        "def slow_load():\n"
        "    loads.append(1)\n"
        "    time.sleep(0.2)  # the other threads ask while the first loads\n"
        "    return load()\n"
        "_rng._special_ufuncs = slow_load\n"
        "start, got = threading.Barrier(4), []\n"
        "def first_touch():\n"
        "    start.wait()\n"
        "    got.append(_rng.ndtri)\n"
        "threads = [threading.Thread(target=first_touch) for _ in range(4)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "from aggtree._rng import ndtr\n"
        "try:\n"
        "    _rng.foo\n"
        "    missing = False\n"
        "except AttributeError as exc:\n"
        "    missing = 'foo' in str(exc)\n"
        "import scipy.special\n"
        "print(len(loads), len(got), all(f is scipy.special.ndtri for f in got),\n"
        "      ndtr is scipy.special.ndtr, missing)\n"
    )
    assert fresh_interpreter(code) == "1 4 True True True"
