"""Benchmark of the cvmbqc CZ-basis search and curve CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cz-cold --seed 0 --seconds 16 --trace 0

Workloads (see README.md): ``cz-cold`` (in-process ``optimizer.cz_search``
from random starts), ``cz-sweep`` (``cvmbqc optimize`` continuation in a
subprocess) and ``curves`` (four ``cvmbqc`` curve calls in subprocesses).
A run repeats a fixed number of whole rounds of its workload, ``--seconds``
over the workload's nominal round time (at least one), checks the outputs,
and prints one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Each run is also appended, with its environment, to ``.perfbench-out/runs.jsonl``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread here and in every subprocess: the machine has few
# cores and a threaded BLAS makes timings depend on whatever else runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 9
CLI_MAIN = "import sys; from cvmbqc.cli import main; sys.exit(main())"

# Both searches use the repository's base seed, not --seed.  The optimizer
# seed draws the random and jittered starts, and with it the basin each
# descent ends in and its length: from random starts about one start in five
# is accepted, and the cz-sweep round took 41-62 s over seeds 1-4.  A
# seed-driven search is therefore neither always accepted nor steady.
SEARCH_SEED = 20200527

# cz-cold: the MBSL gets no built-in warm starts from cz_search.
COLD_LATTICE, COLD_DB = "MBSL", 15.0
COLD_CONFIG = {"restarts": 8, "weight_grid": [1e-4]}

# cz-sweep: a DBSL continuation over two adjacent points, two weights.
SWEEP_LATTICE, SWEEP_DBS = "DBSL", (15.0, 15.5)
SWEEP_CONFIG = {"restarts": 1, "weight_grid": [1e-4, 1e-2]}

# curves: the default 0.25-25 dB grid of the curve subcommands.
GRID = [0.25 + i * 0.25 for i in range(100)]
ALL_LATTICES = ("DBSL", "BSL", "MBSL", "QRL")
CURVE_CALLS = (
    ("noise", ["noise-curve"], ALL_LATTICES, ("I", "F", "P1")),
    ("error", ["error-curve", "--gate", "I", "F", "P1"], ALL_LATTICES, ("I", "F", "P1")),
    ("error", ["error-curve", "--lattice", "QRL", "--gate", "FFCZ"], ("QRL",), ("FFCZ",)),
    ("noise", ["noise-curve", "--lattice", "DBSL", "--gate", "SWAP"], ("DBSL",), ("SWAP",)),
)
# cz_perr of curves, which runs no search: the closed-form QRL CZ error
# probability at this point, the reference the searched bases must exceed.
CURVES_CZ_DB = 15.0
ORACLE_BANDS = ((0.25, 5.0), (5.0, 10.0), (10.0, 15.0), (15.0, 20.0), (20.0, 25.0), (20.0, 25.0))


# Nominal round time per workload, fixed so that the number of rounds, and
# with it the operations attempted and failed, depends on --seconds alone and
# not on how fast the code or the host is.
NOMINAL_ROUND_S = {"cz-cold": 20.0, "cz-sweep": 50.0, "curves": 8.0}


def _db_to_r(db):
    return db * math.log(10.0) / 20.0


class Run:
    """State shared by one benchmark run: temp dir, environment, tracing."""

    def __init__(self, workload, seed, trace):
        self.workload, self.seed, self.trace = workload, seed, trace
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # tables and caches go to the temp dir, never to the package or the
        # user's CVMBQC_CACHE_DIR
        self.env["CVMBQC_CACHE_DIR"] = str(self.tmp / "cache")
        self.cli_calls = 0
        self.span_dir = OUT / f"spans-{workload}"
        if trace:
            shutil.rmtree(self.span_dir, ignore_errors=True)
            self.span_dir.mkdir()
        self.span_sums = {}
        self.import_s = []
        self.absent = set()

    def cli(self, args):
        """One cvmbqc call in a fresh interpreter; returns its stdout."""
        self.cli_calls += 1
        if self.trace:
            spans = self.span_dir / f"cli-{self.cli_calls}.tsv"
            cmd = [sys.executable, str(HERE / "launch.py"), str(spans)] + args
        else:
            cmd = [sys.executable, "-c", CLI_MAIN] + args
        proc = subprocess.run(cmd, env=self.env, cwd=self.tmp, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"cvmbqc {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
        if self.trace:
            header, span_list = tracing.read_spans(spans)
            self.add_spans(span_list, header["absent"])
            self.import_s.append(header["import_s"])
        return proc.stdout

    def add_spans(self, spans, absent):
        self.absent |= set(absent)
        for key, value in tracing.layer_sums(spans).items():
            self.span_sums[key] = self.span_sums.get(key, 0) + value

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------- workloads

class CzCold:
    """In-process cz_search from random starts; one search per round."""

    def __init__(self, run):
        from cvmbqc import optimizer
        self.run = run
        self.optimizer = optimizer
        self.config = optimizer.OptimizerConfig(
            restarts=COLD_CONFIG["restarts"], weight_grid=tuple(COLD_CONFIG["weight_grid"]),
            seed=SEARCH_SEED)
        self.r = _db_to_r(COLD_DB)
        self._warm_up()

    def _warm_up(self):
        """One reference-path evaluation (graph build, reduction, perr), where
        that path still exists; cz_search alone is too slow to repeat here."""
        from cvmbqc import lattice
        check = getattr(self.optimizer, "evaluate_free_angles", None)
        if check is None:
            return
        params = lattice.LatticeParams.from_r(COLD_LATTICE, self.r)
        rng = random.Random(0)
        angles = [rng.uniform(-math.pi, math.pi)
                  for _ in lattice.cz_region_graph(params).free_modes]
        check(COLD_LATTICE, self.r, angles)

    def round(self):
        res = self.optimizer.cz_search(COLD_LATTICE, self.r, self.config)
        return [(COLD_LATTICE, COLD_DB, list(res.angles), float(res.perr), bool(res.accepted))]

    def check(self, outputs):
        first = outputs[0]
        problems = [] if all(o == first for o in outputs) else ["rounds returned different bases"]
        for lattice, db, angles, perr, accepted in first:
            problems += checks.check_cz(lattice, db, angles, perr, accepted)
        return len(first), 0, problems, statistics.geometric_mean(o[3] for o in first)


class CzSweep:
    """`cvmbqc optimize` continuation into a fresh temp table; one call per round."""

    def __init__(self, run):
        self.run = run
        self.config_path = run.tmp / "optimizer.json"
        self.config_path.write_text(json.dumps(SWEEP_CONFIG))
        step = SWEEP_DBS[1] - SWEEP_DBS[0]
        self.args = ["optimize", "--lattice", SWEEP_LATTICE,
                     "--db-min", f"{SWEEP_DBS[0]:g}", "--db-max", f"{SWEEP_DBS[-1]:g}",
                     "--db-step", f"{step:g}", "--config", str(self.config_path),
                     "--seed", str(SEARCH_SEED)]
        self.rounds = 0

    def round(self):
        self.rounds += 1
        table = self.run.tmp / f"table-{self.rounds}.json"
        self.run.cli(self.args + ["--out", str(table)])
        return json.loads(table.read_text())

    def check(self, outputs):
        first = outputs[0]
        problems = [] if all(o == first for o in outputs) else ["rounds wrote different tables"]
        problems += checks.check_table(first, SWEEP_LATTICE, SWEEP_DBS)
        rows = first.get("entries", [])
        for row in rows:
            problems += checks.check_cz(row["lattice"], row["squeezing_db"], row["angles"],
                                        row["perr"], row.get("accepted", False))
        perr = statistics.geometric_mean(row["perr"] for row in rows) if rows else None
        return len(SWEEP_DBS), 0, problems, perr


class Curves:
    """Four curve CLI calls on the default grid; every row is one operation.

    Its cz_perr is the checked QRL FFCZ perr at CURVES_CZ_DB."""

    def __init__(self, run):
        import cvmbqc  # noqa: F401  (the checks' import counts as set-up)
        self.run = run
        rng = random.Random(run.seed)
        kinds = [(lat, gate) for lat in ALL_LATTICES for gate in ("I", "F", "P1")]
        kinds += [("QRL", "FFCZ"), ("DBSL", "SWAP")]
        self.samples = []
        for lo, hi in ORACLE_BANDS:
            dbs = [db for db in GRID if lo < db <= hi]
            for lattice, gate in rng.sample(kinds, 2):
                self.samples.append((lattice, gate, rng.choice(dbs)))

    def round(self):
        return [self.run.cli(args) for _, args, _, _ in CURVE_CALLS]

    def check(self, outputs):
        first = outputs[0]
        problems = [] if all(o == first for o in outputs) else ["rounds printed different CSVs"]
        book = checks.PlanBook()
        n_rows, failed, cz_perr = 0, 0, None
        for (kind, _, lattices, gates_), text in zip(CURVE_CALLS, first):
            n, bad, probs = checks.check_curve(kind, text, GRID, lattices, gates_, book)
            n_rows, failed = n_rows + n, failed + len(bad)
            problems += probs
            for row in checks.parse_csv(text)[1]:
                if row[:2] == ["QRL", "FFCZ"] and float(row[2]) == CURVES_CZ_DB:
                    cz_perr = float(row[3])
        problems += checks.check_oracle_samples(self.samples)
        return n_rows, failed, problems, cz_perr


WORKLOADS = {"cz-cold": CzCold, "cz-sweep": CzSweep, "curves": Curves}


# ---------------------------------------------------------------- measuring

def environment(seed):
    import numpy as np
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "seed": seed}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the config layout differs across numpy versions
        info["blas"] = f"unknown ({type(exc).__name__})"
    try:
        from cvmbqc import _kernels
        info["kernels_backend"] = getattr(_kernels, "BACKEND", None)
    except ImportError:
        info["kernels_backend"] = None
    try:
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        info["git_commit"] = "unknown"
    return info


def setup_time(workload, seed):
    """Median wall time of fresh interpreters that import the package and
    build the workload's inputs, up to the first timed operation."""
    times = []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "cvmbqc" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'cvmbqc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        workload = WORKLOADS[args.workload](run)
        if args.setup_probe:
            return 0
        return measure(run, workload, args)
    finally:
        run.close()


def measure(run, workload, args):
    tracer = None
    if run.trace and isinstance(workload, CzCold):
        tracer = tracing.Tracer()
        tracer.install()
    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[run.workload]))
    outputs, round_s = [], []
    cpu0 = cpu_seconds()
    for _ in range(rounds):
        t0 = time.perf_counter()
        outputs.append(workload.round())
        round_s.append(time.perf_counter() - t0)
    cpu_s = cpu_seconds() - cpu0
    # read before the checks and the set-up probes, which are not the program
    rss_mb = peak_rss_mb()
    if tracer is not None:
        spans = tracer.spans[:]
        run.add_spans(spans, tracer.absent)
        tracer.write(run.span_dir / "main.tsv")

    n_ops, n_failed, problems, cz_perr = workload.check(outputs)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if run.trace:
        metrics = tracing.layer_metrics(run.span_sums, rounds, run.absent)
        metrics["cli.import_s"] = {
            "value": statistics.mean(run.import_s) if run.import_s else 0.0, "unit": "s"}
        metrics["process.cpu_s"] = {"value": cpu_s / rounds, "unit": "s"}
        for name in sorted(set(tracing.LAYER_METRICS) - set(metrics)):
            print(f"perfbench: {name} absent (its hooked function no longer exists)",
                  file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_time(run.workload, run.seed), "unit": "s"},
            "run_s": {"value": statistics.median(round_s), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        if cz_perr is not None:  # when None, a check has already failed
            metrics["cz_perr"] = {"value": cz_perr, "unit": "probability"}

    result = {"correct": not problems, "attempted": n_ops * rounds,
              "failed": n_failed * rounds, "metrics": metrics}
    record = {"workload": run.workload, "trace": int(run.trace), "seconds": args.seconds,
              "rounds": rounds, "round_s": round_s, "cpu_s": cpu_s, "problems": problems,
              "env": environment(run.seed), **result}
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
