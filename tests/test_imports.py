"""Start-up cost guard: the CLI must not pull in heavy scipy subpackages.

``import aggtree.cli`` runs on every command. Nothing in the package needs
scipy.integrate or scipy.optimize, and only the Henze-Zirkler test needs
scipy.linalg; each adds a large share of a cold start, so a fresh
interpreter must not load them.
"""
import os
import subprocess
import sys
from pathlib import Path

import aggtree

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg")


def test_cli_import_skips_heavy_scipy_subpackages():
    package_root = str(Path(aggtree.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, aggtree.cli; "
            f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
