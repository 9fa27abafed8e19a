"""Record the reference outputs that ``check.py`` compares against.

    python3 perfbench/record.py

Writes ``expected.json``: the SHA-256 of every sampling workload's CSV at
the default seed, for the benchmark size and the self-test size, and the
``exp-5.sym8`` endpoints. Rerun it only when an output is meant to change;
a refactor must leave this file as it is.
"""
import json

import check
from run import DEFAULT_SEED, OUT, WORKLOADS, spawn


def main():
    digests = {}
    endpoints = {}
    for name, work in WORKLOADS.items():
        out_dir = OUT / name
        out_dir.mkdir(parents=True, exist_ok=True)
        sizes = (work.n, work.tiny_n) if work.sampling else (None,)
        for n in sizes:
            call = spawn(work.argv(DEFAULT_SEED, out_dir, n=n), out_dir, trace=False)
            if call.rc != 0:
                raise SystemExit(f"{name} n={n} exited {call.rc}")
            if work.sampling:
                digests.setdefault(name, {})[str(n)] = check.sha256(work.outputs(out_dir))
            else:
                endpoints, _ = check.sym8_endpoints(out_dir / "sym8")
    check.EXPECTED_PATH.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "sha256": digests, "sym8_endpoints": endpoints},
        indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
