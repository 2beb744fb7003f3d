"""Benchmark of the diracszego library: three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root. The library is imported from ``src/`` of this
checkout. Each workload is a closed loop with one client in one process: the
next operation starts when the previous one ends. Inputs are drawn from
``--seed`` before timing starts. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of a
traced run (see ``tracer.py``). Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--quick`` shrinks the problem
sizes for the smoke test. See README.md in this directory.
"""

import os

# Pin BLAS to one thread before NumPy is imported; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

REL_TOL = 1e-8      # an op whose oracle error is worse than this fails
ERR_FLOOR = 1e-17   # caps digits at 17 when an output matches its oracle exactly
SETUP_PROBES = 5
CLI_PROBES = 5
CLI_COMMANDS = ("generate", "direct", "inverse", "verify")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("digits", "digits"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("inverse.structured_a.self_s", "s"),
    ("inverse.structured_a.calls", "count"),
    ("linalg.block_toeplitz.self_s", "s"),
    ("linalg.block_toeplitz.calls", "count"),
    ("linalg.block_toeplitz.bytes", "bytes"),
    ("linalg.min_eig.self_s", "s"),
    ("linalg.min_eig.calls", "count"),
    ("linalg.min_eig.work_n3", "count"),
    ("inverse.taylor_from_beta.self_s", "s"),
    ("inverse.beta_from_potentials.total_s", "s"),
    ("linalg.pd_solve.self_s", "s"),
    ("linalg.pd_solve.calls", "count"),
    ("linalg.pd_solve.work_n3", "count"),
    ("linalg.block_levinson_solve.self_s", "s"),
    ("linalg.block_levinson_solve.calls", "count"),
    ("inverse.direct_taylor.total_s", "s"),
    ("inverse.inverse_potentials.total_s", "s"),
    ("inverse.toeplitz_positivity.total_s", "s"),
    ("pseudoexp.explicit_weyl.self_s", "s"),
    ("pseudoexp.explicit_weyl.calls", "count"),
    ("system.herglotz_map.self_s", "s"),
    ("inverse.rational_taylor.self_s", "s"),
    ("pseudoexp.generate.total_s", "s"),
    ("szego.szego_to_dirac.self_s", "s"),
    ("szego.dirac_to_szego.self_s", "s"),
    ("system.validate.self_s", "s"),
    ("system.propagate.self_s", "s"),
    ("system.propagate.steps", "count"),
    ("system.summation_residual.self_s", "s"),
    ("io.write_doc.self_s", "s"),
    ("io.read_doc.self_s", "s"),
    ("io.doc_bytes", "bytes"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("cli.interp_s", "s"),
    ("cli.import_s", "s"),
    *((f"cli.{cmd}.{stat}", unit) for cmd in CLI_COMMANDS
      for stat, unit in (("wall_s", "s"), ("work_s", "s"), ("exit", "code"))),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.digits", "digits"),
    ("trace.ops", "count"),
)


def load_library():
    """Import diracszego from this checkout's sources, or exit non-zero."""
    package = SRC / "diracszego"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no diracszego sources at {package}")
    sys.path.insert(0, str(SRC))
    import diracszego
    import diracszego.cli  # the package does not import its command-line module

    if Path(diracszego.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported diracszego from {diracszego.__file__}")
    return diracszego


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def max_rel_err(expected, got) -> float:
    import numpy as np

    if len(expected) != len(got):
        return math.inf
    return max(float(np.linalg.norm(a - b) / np.linalg.norm(a)) for a, b in zip(expected, got))


# --- workloads -------------------------------------------------------------
#
# run(x)            the timed operation on input x (what a user waits for)
# run_inprocess(x)  the same work inside this process, for the traced run
# check(x, out)     oracle error and failure reason, computed outside timing


class SpectralRoundtrip:
    """Both spectral problems at the p=2 shape, on random Szego sequences."""

    name = "spectral-roundtrip"

    def __init__(self, dz, rng, N, pool, workdir):
        self.dz = dz
        self.inputs = [dz.random_szego_sequence(rng, p=2, N=N, scale=0.05) for _ in range(pool)]
        self.size = f"p=2, N={N}, scale=0.05, {pool} drawn inputs"

    def run(self, sz):
        dz = self.dz
        system = dz.szego_to_dirac(sz)
        report = dz.validate(system)
        back = dz.inverse_potentials(dz.direct_taylor(system))
        return system, report, back, dz.dirac_to_szego(back)

    run_inprocess = run

    def check(self, sz, out):
        system, report, back, sz_back = out
        err = max(max_rel_err(system.C, back.C), max_rel_err(sz.R, sz_back.R))
        return err, None if report.passed else "validate rejected the input system"


class RationalWeyl:
    """Short sequences from sampled rational Weyl functions."""

    name = "rational-weyl"

    def __init__(self, dz, rng, N, pool, workdir):
        self.dz = dz
        self.N = N
        self.inputs = [dz.random_bdt_parameters(rng, n=3, p=2, normalized=True)
                       for _ in range(pool)]
        self.size = f"n=3, p=2, N={N}, 512 samples, {pool} drawn parameter sets"

    def run(self, params):
        dz = self.dz
        system, _ = dz.generate(params, self.N)
        return system, dz.inverse_potentials(dz.rational_taylor(params, self.N))

    run_inprocess = run

    def check(self, params, out):
        system, back = out
        return max_rel_err(system.C, back.C), None


class CliPipeline:
    """generate -> direct -> inverse -> verify through JSON documents."""

    name = "cli-pipeline"

    def __init__(self, dz, rng, N, pool, workdir):
        self.dz = dz
        self.inputs = [None] * pool  # one fixed command line; the seed changes nothing
        self.expected = [dz.example41(1.0, 1.0, 1.0, k)[0] for k in range(N + 1)]
        self.size = f"example41 1,1,1, N={N}, 4 commands"
        f = {k: str(workdir / f"{k}-{N}.json") for k in ("sys", "taylor", "back", "report")}
        self.files = f
        self.argv = {
            "generate": ["generate", "--example41", "1,1,1", "--steps", str(N), "--out", f["sys"]],
            "direct": ["direct", "--system", f["sys"], "--out", f["taylor"]],
            "inverse": ["inverse", "--taylor", f["taylor"], "--out", f["back"]],
            "verify": ["verify", "--system", f["back"], "--out", f["report"]],
        }

    def _pipeline(self, invoke):
        for path in self.files.values():
            Path(path).unlink(missing_ok=True)
        codes, seconds = {}, {}
        for cmd in CLI_COMMANDS:
            start = time.perf_counter()
            codes[cmd] = invoke(self.argv[cmd])
            seconds[cmd] = time.perf_counter() - start
            if codes[cmd] != 0:
                break
        return codes, seconds

    def run(self, _):
        env = child_env()
        return self._pipeline(lambda argv: subprocess.run(
            [sys.executable, "-m", "diracszego.cli", *argv], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode)

    def run_inprocess(self, _):
        main = self.dz.cli.main  # looked up per op, so the traced run sees its wrapper
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            return self._pipeline(main)

    def check(self, _, out):
        codes, _ = out
        bad = [f"{cmd} exited {code}" for cmd, code in codes.items() if code != 0]
        err = None
        if codes.get("inverse") == 0:
            dz = self.dz
            back = dz.io.potentials_from_doc(dz.io.read_doc(self.files["back"]))
            err = max_rel_err(self.expected, back.C)
        return err, bad[0] if bad else None


# name -> (class, N, pool, quick N, quick pool). Pool sizes make every run
# visit every drawn input at least once, so runs on one seed see the same inputs.
WORKLOADS = {
    SpectralRoundtrip.name: (SpectralRoundtrip, 128, 4, 16, 2),
    RationalWeyl.name: (RationalWeyl, 12, 128, 12, 4),
    CliPipeline.name: (CliPipeline, 64, 1, 16, 1),
}
WARM_UP_N = 4


def build(dz, name, seed, quick, workdir):
    """Draw the run's inputs, then warm up on a separate small input."""
    import numpy as np

    cls, N, pool, quick_N, quick_pool = WORKLOADS[name]
    workload = cls(dz, np.random.default_rng(seed), quick_N if quick else N,
                   quick_pool if quick else pool, workdir)
    warm = cls(dz, np.random.default_rng(0), WARM_UP_N, 1, workdir)
    warm.run_inprocess(warm.inputs[0])
    return workload


# --- measurement -----------------------------------------------------------


class Tally:
    """Latencies, oracle errors and failures of the ops of one loop."""

    def __init__(self):
        self.latencies = []
        self.errors = []
        self.failures = {}

    def attempt(self, workload, run, x, during=contextlib.nullcontext()):
        """Time one op inside ``during``, then judge it outside both; returns its output."""
        with during:
            start = time.perf_counter()
            try:
                out = run(x)
            except Exception as exc:  # a raising op is a failed op; the loop goes on
                out, err, reason = None, None, f"raised {type(exc).__name__}"
                if not self.failures:
                    traceback.print_exc(file=sys.stderr)
            self.latencies.append(time.perf_counter() - start)
        if out is not None:
            err, reason = workload.check(x, out)
        if err is not None:
            self.errors.append(err)
            if err > REL_TOL and reason is None:
                reason = f"oracle error {err:.1e} above {REL_TOL:.0e}"
        if reason is not None:
            self.failures[reason] = self.failures.get(reason, 0) + 1
        return out

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return bool(self.errors) and max(self.errors) <= REL_TOL

    @property
    def digits(self) -> float:
        return -math.log10(max(max(self.errors, default=1.0), ERR_FLOOR))


def closed_loop(workload, seconds, step):
    """Call step(x) over the drawn inputs in turn until the time is up and
    every input has been used at least once."""
    start = time.perf_counter()
    i = 0
    while i < len(workload.inputs) or time.perf_counter() - start < seconds:
        step(workload.inputs[i % len(workload.inputs)])
        i += 1


def tail(latencies):
    """(percentile, value): the highest integer percentile, by nearest rank,
    with at least 10 samples above it. With 20 samples or fewer that
    percentile is at or below the median, so the maximum is reported as p100."""
    s = sorted(latencies)
    n = len(s)
    if n <= 20:
        return 100, s[-1]
    pct = 100 * (n - 10) // n
    return pct, s[math.ceil(pct * n / 100) - 1]


def wall(argv) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(name, seed, quick) -> float:
    """Median wall time of fresh interpreters that import the library, draw
    this run's inputs and warm up, as a user's first call would."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--setup-probe"] + (["--quick"] if quick else [])
    return statistics.median(wall(argv) for _ in range(SETUP_PROBES))


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def measure_end_to_end(workload, seconds, setup_s):
    tally = Tally()
    closed_loop(workload, seconds, lambda x: tally.attempt(workload, workload.run, x))
    lat = tally.latencies
    pct, tail_s = tail(lat)
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "digits": tally.digits,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"op_p50_s": f"n={len(lat)}", "op_tail_s": f"p{pct} of n={len(lat)}",
             "ops_per_s": workload.size}
    return tally, values, notes


def cli_start_costs():
    """Bare interpreter start, and a fresh ``import diracszego.cli`` timed inside it."""
    interp = statistics.median(wall([sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES))
    code = ("import time; t = time.perf_counter(); import diracszego.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(CLI_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
    return interp, statistics.median(imports)


def measure_layers(workload, seconds):
    """Traced run: each input goes once through the op untraced and once traced."""
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    is_cli = isinstance(workload, CliPipeline)
    walls = {cmd: 0.0 for cmd in CLI_COMMANDS}
    work = dict(walls)
    exits = {cmd: 0 for cmd in CLI_COMMANDS}

    def step(x):
        if is_cli:
            codes, seconds_by_cmd = workload.run(x)
            for cmd in codes:
                walls[cmd] += seconds_by_cmd[cmd]
                exits[cmd] = max(exits[cmd], codes[cmd])
        plain.attempt(workload, workload.run_inprocess, x)
        out = traced.attempt(workload, workload.run_inprocess, x, during=tracer)
        if is_cli and out is not None:
            for cmd, s in out[1].items():
                work[cmd] += s

    closed_loop(workload, seconds, step)
    ops = traced.attempted
    extra = {
        "trace.overhead_frac": statistics.median(traced.latencies)
        / statistics.median(plain.latencies) - 1,
        "trace.coverage_frac": tracer.top_level_s / sum(traced.latencies),
        "trace.digits": traced.digits,
        "trace.ops": ops,
        "cli.interp_s": 0.0,
        "cli.import_s": 0.0,
    }
    if is_cli:
        extra["cli.interp_s"], extra["cli.import_s"] = cli_start_costs()
    for cmd in CLI_COMMANDS:
        extra[f"cli.{cmd}.wall_s"] = walls[cmd] / ops
        extra[f"cli.{cmd}.work_s"] = work[cmd] / ops
        extra[f"cli.{cmd}.exit"] = exits[cmd]
    values = {name: layer_value(name, tracer, ops, extra) for name, _ in PER_LAYER}
    return traced, values, {"trace.ops": workload.size}


def layer_value(name, tracer, ops, extra) -> float:
    """Per-op value of a per-layer metric, resolved from its name."""
    if name in extra:
        return extra[name]
    if name in tracer.counter_names:
        return tracer.counters[name] / ops
    span, _, stat = name.rpartition(".")
    if stat == "self_s" and span in LAYERS:
        return tracer.layer_self_s(span) / ops
    if span not in tracer.stats or stat not in Tracer.STATS:
        raise KeyError(f"no traced quantity for metric {name}")
    return tracer.span_stat(span, stat) / ops


def environment() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, blas {blas}, nproc {len(os.sched_getaffinity(0))}, "
            f"{threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small sizes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    dz = load_library()
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            build(dz, args.workload, args.seed, args.quick, workdir)
            return 0
        setup_s = 0.0 if args.trace else setup_seconds(args.workload, args.seed, args.quick)
        workload = build(dz, args.workload, args.seed, args.quick, workdir)
        if args.trace:
            tally, values, notes = measure_layers(workload, args.seconds)
            units = dict(PER_LAYER)
        else:
            tally, values, notes = measure_end_to_end(workload, args.seconds, setup_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f"{' quick' if args.quick else ''}: {workload.size}")
    print(f"# {environment()}")
    print(f"# ops attempted {tally.attempted}, failed {tally.failed}"
          + "".join(f"; {n} x {why}" for why, n in tally.failures.items()))
    print(f"# digits {tally.digits:.3f} (min over ops of -log10 max relative oracle error)")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:14.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
