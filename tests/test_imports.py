"""Start-up cost guard: the CLI must not pull in heavy scipy subpackages.

``import aggtree.cli`` runs on every command. Nothing in the package needs
scipy.integrate or scipy.optimize, and only the Henze-Zirkler test needs
scipy.linalg; each adds a large share of a cold start, so a fresh
interpreter must not load them. The extremal correlation solver runs on
numpy.linalg alone.
"""
import os
import subprocess
import sys
from pathlib import Path

import aggtree

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg")


def fresh_interpreter(code):
    """Standard output of ``code`` run by a new interpreter on this package."""
    package_root = str(Path(aggtree.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_skips_heavy_scipy_subpackages():
    code = ("import sys, aggtree.cli; "
            f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))")
    assert fresh_interpreter(code) == ""


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
