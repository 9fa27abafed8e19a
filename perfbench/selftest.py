"""Self-test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload once traced and once untraced at a tiny size, then
shows that the checker rejects outputs with one digit changed and that a
call exiting nonzero counts in ``fail_ratio``. Exits 1 if any step fails.
"""
import shutil
import sys

import check
import layers
from run import DEFAULT_SEED, MODELS, OUT, WORKLOADS, measure

OTHER_SEED = 7
TINY_GRID = "0.3"  # one row of the sym8 grid, recorded in expected.json


def flip_digit(src, dst, line, field):
    """Copy ``src`` to ``dst`` with the leading nonzero digit of one cell changed."""
    lines = src.read_text().split("\n")
    cells = lines[line].split(",")
    cell = cells[field]
    k = next(i for i, ch in enumerate(cell) if ch in "123456789")
    cells[field] = cell[:k] + str(int(cell[k]) % 9 + 1) + cell[k + 1:]
    lines[line] = ",".join(cells)
    dst.write_text("\n".join(lines))


def main():
    failures = []

    def expect(ok, what):
        print(("PASS  " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for name, work in WORKLOADS.items():
        size = {"n": work.tiny_n} if work.sampling else {"grid": TINY_GRID}
        rec = measure(name, DEFAULT_SEED, 0, True, **size)
        expect(rec["failed"] == 0 and list(rec["metrics"]) == list(layers.PER_LAYER),
               f"{name}: traced tiny run passes its check and reports every "
               f"per-layer metric {rec['problems']}")
        expect(abs(rec.get("self_time_residual_s", 1.0)) < 1e-6,
               f"{name}: self times add up to the cli.main span")
        if work.sampling:
            rec = measure(name, OTHER_SEED, 0, False, **size)
            expect(rec["failed"] == 0 and rec["metrics"],
                   f"{name}: seed {OTHER_SEED} passes the Monte Carlo check "
                   f"{rec['problems']}")

    name = "sample-reorder"
    work = WORKLOADS[name]
    measure(name, DEFAULT_SEED, 0, False, n=work.tiny_n)
    bad = OUT / "selftest.csv"
    flip_digit(OUT / name / "sample.csv", bad, line=1, field=0)
    expect(bool(check.check_sample(name, bad, MODELS / work.model, work.tiny_n,
                                   DEFAULT_SEED)),
           "checker rejects a sample CSV with one digit changed")

    bad_dir = OUT / "selftest-sym8"
    shutil.copytree(OUT / "extremal-sym8" / "sym8", bad_dir, dirs_exist_ok=True)
    flip_digit(bad_dir / "symmetric.csv", bad_dir / "symmetric.csv", line=1, field=3)
    expect(bool(check.check_sym8(bad_dir, full_grid=False)),
           "checker rejects a sym8 endpoint with one digit changed")

    rec = measure(name, DEFAULT_SEED, 0, False, n=1)
    expect(rec["attempted"] >= 1 and rec["failed"] == rec["attempted"]
           and rec["fail_ratio"] == 1.0,
           f"a call exiting nonzero counts in fail_ratio (exit codes {rec['exit_codes']})")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
