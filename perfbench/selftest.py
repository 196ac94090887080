"""Show that the benchmark's correctness checks are not vacuous.

Usage (from the repository root): python3 perfbench/selftest.py

Each check runs first on real program output, where it must pass, and then
on perturbed copies, where it must fail:

- an optimized CZ basis (a DBSL search at 15 dB) with its perr times 1 + 1e-6,
  and with one basis angle moved by 1e-3;
- a basis table with a squeezing point duplicated or missing;
- small noise and error curves with one perr times 1 + 1e-6, and with the last
  printed digit of each value changed in turn.

Exits 0 when every perturbation is caught, 1 otherwise.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import checks  # noqa: E402

sys.path.insert(0, str(run.SRC))

GRID = [5.0, 15.0, 25.0]
CURVES = (
    ("noise", ["noise-curve", "--lattice", "DBSL", "QRL", "--gate", "I", "F"],
     ("DBSL", "QRL"), ("I", "F")),
    ("error", ["error-curve", "--lattice", "QRL", "--gate", "I", "FFCZ"], ("QRL",), ("I", "FFCZ")),
)

results = []


def expect(label, problems, should_fail):
    ok = bool(problems) == should_fail
    results.append(ok)
    verdict = "caught" if problems else "passes"
    print(f"[{'OK' if ok else 'BAD'}] {label}: {verdict}")
    if not ok:
        for p in problems[:3]:
            print(f"      {p}")


def bump_last_digit(text, ref):
    """The printed value moved by one unit in its last digit, away from ref."""
    value = float(text)
    if "e" in text:
        mant, exp = text.split("e")
        unit = 10.0 ** (int(exp) - (len(mant.split(".")[1]) if "." in mant else 0))
        fmt = f"{{:.{len(mant.split('.')[1])}e}}"
    else:
        digits = len(text.lstrip("-").split(".")[1]) if "." in text else 0
        unit = 10.0 ** -digits
        fmt = f"{{:.{digits}f}}"
    return fmt.format(value + (unit if value >= ref else -unit))


def cz_checks():
    from cvmbqc import lattice, optimizer
    db = 15.0
    config = optimizer.OptimizerConfig(restarts=1, weight_grid=(1e-4,), seed=0)
    res = optimizer.cz_search("DBSL", lattice.db_to_r(db), config)
    angles = [float(a) for a in res.angles]
    expect("CZ basis as returned", checks.check_cz("DBSL", db, angles, res.perr, res.accepted),
           False)
    expect("CZ perr x (1 + 1e-6)",
           checks.check_cz("DBSL", db, angles, res.perr * (1 + 1e-6), res.accepted), True)
    for i in (0, len(angles) - 1):
        moved = list(angles)
        moved[i] += 1e-3
        expect(f"CZ angle {i} moved by 1e-3",
               checks.check_cz("DBSL", db, moved, res.perr, res.accepted), True)
    row = {"lattice": "DBSL", "squeezing_db": 15.0, "angles": angles}
    table = {"entries": [row, dict(row, squeezing_db=15.5)]}
    expect("table, one row per point", checks.check_table(table, "DBSL", (15.0, 15.5)), False)
    expect("table, a point duplicated",
           checks.check_table({"entries": [row, row]}, "DBSL", (15.0, 15.5)), True)
    expect("table, a point missing",
           checks.check_table({"entries": [row]}, "DBSL", (15.0, 15.5)), True)


def curve_checks():
    env = dict(run.os.environ, PYTHONPATH=str(run.SRC))
    book = checks.PlanBook()
    grid_args = ["--db-min", "5", "--db-max", "25", "--db-step", "10"]
    for kind, args, lattices, gates_ in CURVES:
        text = subprocess.run([sys.executable, "-c", run.CLI_MAIN] + args + grid_args,
                              env=env, capture_output=True, text=True, check=True).stdout
        n, failed, problems = checks.check_curve(kind, text, GRID, lattices, gates_, book)
        expect(f"{args[0]} as printed ({n} rows, {len(failed)} known-fault rows)", problems,
               False)
        lines = text.splitlines()
        caught, sound = 0, []
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            key = tuple(cells[:2]) + (float(cells[2]),) + (tuple(cells[3:4]) if kind == "noise" else ())
            if key in failed:
                continue  # already wrong; a perturbation proves nothing here
            sound.append(i)
            ref = (checks._noise_db(key, book) if kind == "noise"
                   else checks._perr_forms(key, book)[0])
            cells[-1] = bump_last_digit(cells[-1], ref)
            bad = "\n".join(lines[:i] + [",".join(cells)] + lines[i + 1:]) + "\n"
            caught += bool(checks.check_curve(kind, bad, GRID, lattices, gates_, book)[2])
        expect(f"{args[0]}: last digit changed, {caught} of {len(sound)} rows caught",
               [] if caught < len(sound) else ["all caught"], True)
        if kind == "error":
            i = sound[-1]
            cells = lines[i].split(",")
            cells[-1] = f"{float(cells[-1]) * (1 + 1e-6):.9e}"
            bad = "\n".join(lines[:i] + [",".join(cells)] + lines[i + 1:]) + "\n"
            expect(f"{args[0]}: perr x (1 + 1e-6) in row {i}",
                   checks.check_curve(kind, bad, GRID, lattices, gates_, book)[2], True)


def main():
    curve_checks()
    cz_checks()
    print(f"{sum(results)} of {len(results)} self-checks as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
