"""ncsmode benchmark: one workload, measured in one fresh process.

    python3 perfbench/run.py --workload cstr5-mc --seed 1 --seconds 20 --trace 0

Workloads (see README.md):

* ``cstr5-mc``: ``ncsmode run --preset cstr5 --emit-steps`` driven
  in-process, rounds of 10 trials of 100 steps (s = 4, hold strategy);
* ``quad4-mc``: the same CLI on ``quad4.json``, rounds of 4 trials
  (s = 16, zero strategy);
* ``cstr5-stream``: long seeded cstr5 signals fed sample by sample through
  the three-estimator bank, as an online monitor runs it.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The package is imported from
``src/`` next to this directory; without it the run exits 2.
"""

import os

# One process, single-threaded BLAS: the matrices are 4x4, where threads
# only add noise. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NAMES = ("alg1", "alg2", "imm")
SETUP_REPS = 9           # set-ups timed before the first round and after each
STREAM_SAMPLES = 2000    # samples per stream pass
P99_BLOCK = 1000         # samples per block of the step_us_p99 median
WALL_CAP = 3.0           # wall-time limit of a phase, in multiples of --seconds


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    source: tuple           # CLI flags naming the config
    load: str               # argument of cli.load_config for the same config
    plant: dict             # the benchmark's own description, for the oracles
    trials: int             # trials per Monte Carlo round (0: stream)
    min_rounds: int
    replay_trials: int = 0  # trials per round replayed online
    acceptance: bool = False
    counted: tuple = NAMES  # estimators whose estimates count as operations


def _quad4_plant() -> dict:
    data = json.loads((HERE / "quad4.json").read_text())
    return {**data["plant"], "strategy": data["strategy"], "links": data["chain"]["links"]}


WORKLOADS = {
    "cstr5-mc": lambda: Workload(
        "cstr5-mc", ("--preset", "cstr5"), "cstr5", checks.CSTR5, 10, 10, 4, acceptance=True),
    "quad4-mc": lambda: Workload(
        "quad4-mc", ("--config", str(HERE / "quad4.json")), str(HERE / "quad4.json"),
        # alg1 runs but is not counted: it fails on most trials, not on all
        # (see README.md), so its failure share would depend on the seed.
        _quad4_plant(), 4, 10, 3, counted=("alg2", "imm")),
    "cstr5-stream": lambda: Workload(
        "cstr5-stream", (), "cstr5", checks.CSTR5, 0, 4),
}


def round_seed(seed: int, index: int) -> int:
    """Monte Carlo base seed (or stream seed) of round ``index``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def import_package():
    """Import ``ncsmode`` from ``src/`` next to this directory, or exit 2."""
    if not (SRC / "ncsmode" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'ncsmode'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ncsmode
    import ncsmode.cli

    if Path(ncsmode.__file__).resolve().parent != SRC / "ncsmode":
        print(f"error: imported ncsmode from {ncsmode.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return ncsmode


def build_bank(nm, trial):
    """The three estimators, built from the public classes as the CLI does."""
    model, filters = nm.model, nm.filters
    aug = model.build_augmented(trial.plant, trial.strategy)
    aug.mode_tables  # built lazily otherwise, inside the first step
    arma = trial.arma if trial.arma is not None else model.ss_to_arma(trial.plant)
    floor = {} if trial.held_cov_floor is None else {"held_cov_floor": trial.held_cov_floor}
    init = {"prior": trial.est_prior, "x0": trial.est_x0, "P0": trial.est_P0, **floor}
    return (
        filters.Alg1Estimator(arma, trial.strategy, trial.chain, prior=trial.est_prior,
                              kf_model=aug, kf_x0=trial.est_x0, kf_P0=trial.est_P0, **floor),
        filters.Alg2Estimator(aug, trial.chain, **init),
        filters.ImmEstimator(aug, trial.chain, **init),
    )


def measure_setup(nm, wl: Workload) -> list[float]:
    """Times of config load and validation, model conversion and estimator
    construction: the work before the first estimation step."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.process_time()
        build_bank(nm, nm.cli.load_config(wl.load).trial)
        times.append(time.process_time() - t0)
    return times


def run_bank(bank, u, y):
    """Feed samples 1..N one at a time; returns per-sample CPU ns and results."""
    for est in bank:
        est.start(u[0], y[0])
    a1, a2, imm = bank
    clock = time.thread_time_ns
    lat = []
    results = []
    for k in range(1, len(u)):
        uk, yk = u[k], y[k]
        t0 = clock()
        r1 = a1.step(uk, yk)
        r2 = a2.step(uk, yk)
        r3 = imm.step(uk, yk)
        lat.append(clock() - t0)
        results.append((r1, r2, r3))
    return lat, results


def signal_table(rec) -> dict:
    """A simulated record in the per-step CSV layout (rows k = 1..N)."""
    table = {"theta_true": rec.true_modes}
    for prefix, arr in (("x", rec.true_states), ("y", rec.y), ("u", rec.u)):
        for i in range(arr.shape[1]):
            table[f"{prefix}{i + 1}"] = arr[1:, i]
    return table


class Run:
    """Operation accounting and the oracle state of one benchmark run."""

    def __init__(self, wl: Workload, seed: int, steps: int):
        self.wl = wl
        self.seed = seed
        self.steps = steps  # steps per Monte Carlo trial
        links = wl.plant["links"]
        self.s = 1 << len(links)
        self.chain = checks.joint_chain(links)
        self.guess = checks.guess_mode(links)
        self.n = np.asarray(wl.plant["A"]).shape[0]
        self.attempted = 0
        self.failed = 0
        self.failed_by = {name: 0 for name in NAMES}
        self.problems: list[str] = []
        self.counts = np.zeros((self.s, self.s), dtype=np.int64)
        self.guess_mdes: list[float] = []
        self.guess_steps = 0
        self.residuals: list[np.ndarray] = []
        self.pooled = {name: [] for name in NAMES}  # per-trial (%MDE, RMSE)

    def problem(self, text: str) -> None:
        if text not in self.problems and len(self.problems) < 20:
            self.problems.append(text)

    def check_signals(self, table: dict) -> float:
        """Truth, noise and chain oracles on one trial; returns the
        data-free guess's %MDE on its true modes."""
        plant = self.wl.plant
        for p in checks.check_truth(table, plant):
            self.problem(p)
        self.residuals.append(checks.noise_residuals(table, plant))
        modes = table["theta_true"]
        self.counts += checks.transition_counts(modes, self.s)
        self.guess_steps = len(modes)
        guess = checks.mde(modes, np.full(len(modes), self.guess))
        self.guess_mdes.append(guess)
        return guess

    def account(self, units: int, ok_units: int, est_mde: dict, guess_mde: float) -> None:
        """``units`` attempted per estimator, ``ok_units`` of them not failed
        by the program; an estimator whose mean %MDE is not below the
        data-free guess's fails all of its units."""
        for name in self.wl.counted:
            self.attempted += units
            bad = units - ok_units
            if ok_units and not est_mde[name] < guess_mde:
                bad = units
            self.failed += bad
            self.failed_by[name] += bad

    def finish(self) -> None:
        if self.residuals:
            for p in checks.check_noise(np.vstack(self.residuals), self.wl.plant["R"]):
                self.problem(p)
        for p in checks.check_transitions(self.counts, self.chain):
            self.problem(p)
        if self.guess_mdes:
            for p in checks.check_guess_rate(self.guess_mdes, self.guess_steps, self.wl.plant["links"]):
                self.problem(p)
        if self.wl.acceptance and len(self.pooled["alg1"]) > 1:
            mdes = {k: [t[0] for t in v] for k, v in self.pooled.items()}
            rmses = {k: [t[1] for t in v] for k, v in self.pooled.items()}
            for p in checks.check_acceptance(mdes, rmses):
                self.problem(p)


class Phase:
    """What one stretch of whole rounds measured."""

    def __init__(self):
        self.seconds = 0.0     # CPU seconds of the timed part: CLI calls, or stream loops
        self.wall = 0.0        # wall seconds of the same
        self.work = 0          # trial-steps (samples, on the stream) in them
        self.rounds = 0
        self.latency_ns: list[int] = []
        self.setup_s: list[float] = []
        self.written = 0       # bytes the CLI wrote


def mc_round(nm, run: Run, seed: int, phase: Phase, tracer, extras: bool) -> None:
    """One ``ncsmode run`` call, timed, then its outputs checked. With
    ``extras``, the first trials of the round are replayed online."""
    wl = run.wl
    out_dir = OUT / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["run", *wl.source, "--emit-steps", "--trials", str(wl.trials),
            "--seed", str(seed), "--out", str(out_dir)]
    sink = io.StringIO()
    span = tracer.span("bench.round") if tracer else contextlib.nullcontext()
    t0, w0 = time.process_time(), time.perf_counter()
    with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            nm.cli.main(argv)
        except Exception as exc:  # counted as failed operations below
            print(f"raised {exc!r}", file=sink)
    phase.seconds += time.process_time() - t0
    phase.wall += time.perf_counter() - w0
    phase.work += wl.trials * run.steps
    if out_dir.is_dir():
        phase.written += sum(p.stat().st_size for p in out_dir.iterdir())
    tables = check_mc_round(run, out_dir, sink.getvalue())
    if extras:
        for t in range(wl.replay_trials):
            if t in tables:
                phase.latency_ns += replay(nm, run, seed ^ t, tables[t])


def check_mc_round(run: Run, out_dir: Path, log: str) -> dict:
    """Oracles on one round's outputs; returns the trial tables by index."""
    wl = run.wl
    metrics_path = out_dir / "metrics.json"
    if not metrics_path.is_file():
        run.account(wl.trials, 0, {}, 0.0)
        run.problem(f"cli: no metrics.json ({log.strip().splitlines()[-1:]})")
        return {}
    summary = json.loads(metrics_path.read_text())
    tables, per_trial, guesses = {}, [], []
    for t in range(wl.trials):
        path = out_dir / f"trial_{t:04d}.csv"
        if not path.is_file():
            continue
        tables[t] = table = checks.read_step_csv(path)
        guesses.append(run.check_signals(table))
        tm = checks.trial_metrics(table, NAMES, run.n)
        per_trial.append(tm)
        for name in NAMES:
            run.pooled[name].append(tm[name])
    for p in checks.check_metrics_json(per_trial, summary, NAMES, wl.trials):
        run.problem(p)
    est_mde = {name: float(np.mean([t[name][0] for t in per_trial] or [100.0])) for name in NAMES}
    run.account(wl.trials, len(per_trial), est_mde, float(np.mean(guesses or [0.0])))
    return tables


def replay(nm, run: Run, trial_seed: int, table: dict) -> list:
    """Online latency on a Monte Carlo workload: one recorded trial's
    signals, regenerated by the package's simulator from the trial seed, fed
    one sample at a time through a fresh bank. Decisions and states must
    equal the ones the CLI recorded for that trial."""
    template = nm.cli.load_config(run.wl.load).trial
    rec = nm.sim.simulate_trial(dataclasses.replace(template, seed=trial_seed), ())
    lat, results = run_bank(build_bank(nm, template), rec.u, rec.y)
    for i, name in enumerate(NAMES):
        modes = np.array([r[i].mode for r in results])
        states = np.array([r[i].state[: run.n] for r in results])
        if not (np.array_equal(modes, table[f"theta_hat_{name}"])
                and np.array_equal(states, checks.columns(table, "xhat", run.n, f"_{name}"))):
            run.problem(f"replay: {name} online decisions differ from the CLI's")
    return lat


def stream_pass(nm, run: Run, seed: int, phase: Phase, tracer, extras: bool) -> None:
    """One stream pass: signal and bank set up untimed, then every sample
    through the bank, timed one by one."""
    span = tracer.span("bench.pass") if tracer else contextlib.nullcontext()
    with span:
        template = nm.cli.load_config(run.wl.load).trial
        trial = dataclasses.replace(template, steps=STREAM_SAMPLES, seed=seed)
        rec = nm.sim.simulate_trial(trial, ())
        bank = build_bank(nm, template)
        t0, w0 = time.process_time(), time.perf_counter()
        lat, results = run_bank(bank, rec.u, rec.y)
        phase.seconds += time.process_time() - t0
        phase.wall += time.perf_counter() - w0
        record = dataclasses.replace(
            rec,
            estimators=NAMES,
            est_modes={name: np.array([r[i].mode for r in results]) for i, name in enumerate(NAMES)},
            est_states={name: np.array([r[i].state[: run.n] for r in results])
                        for i, name in enumerate(NAMES)},
            fallbacks={name: np.array([r[i].fallback for r in results]) for i, name in enumerate(NAMES)},
        )
        summary = nm.metrics.aggregate([record]).to_dict()
    phase.work += STREAM_SAMPLES
    phase.latency_ns += lat
    check_stream_pass(run, record, results, summary)


def check_stream_pass(run: Run, record, results, summary: dict) -> None:
    table = signal_table(record)
    for i, name in enumerate(NAMES):
        table[f"theta_hat_{name}"] = record.est_modes[name]
        for c in range(run.n):
            table[f"xhat{c + 1}_{name}"] = record.est_states[name][:, c]
        posteriors = np.array([r[i].posterior for r in results])
        for p in checks.check_posteriors(posteriors, record.est_modes[name], record.est_states[name]):
            run.problem(f"{name}: {p}")
    guess = run.check_signals(table)
    tm = checks.trial_metrics(table, NAMES, run.n)
    for name in NAMES:
        run.pooled[name].append(tm[name])
    for p in checks.check_metrics_json([tm], summary, NAMES, 1):
        run.problem(p)
    run.account(1, 1, {name: tm[name][0] for name in NAMES}, guess)


def measure(nm, run: Run, seconds: float, tracer=None) -> tuple[Phase, Phase | None]:
    """Whole rounds until ``seconds`` of timed CPU time and the workload's
    minimum round count, or, once that count is done, until the wall time
    reaches ``WALL_CAP`` times ``seconds`` (on a machine that preempts the
    process heavily).

    Without a tracer, set-ups are timed before the first round and after
    every round, so that their median spans the whole run, and Monte Carlo
    rounds replay trials online. With one, rounds alternate untraced and
    traced, so that drift in the machine's speed falls on both alike;
    returns the untraced and the traced phase."""
    plain = Phase()
    traced = Phase() if tracer else None
    extras = tracer is None
    do_round = mc_round if run.wl.trials else stream_pass
    if extras:
        plain.setup_s += measure_setup(nm, run.wl)
    start = time.perf_counter()
    index = 0
    while index < run.wl.min_rounds or (
        plain.seconds + (traced.seconds if traced else 0.0) < seconds
        and time.perf_counter() - start < WALL_CAP * seconds
    ):
        if traced and index % 2:
            tracer.install(nm)
            try:
                do_round(nm, run, round_seed(run.seed, index), traced, tracer, extras)
            finally:
                tracer.uninstall()
            traced.rounds += 1
        else:
            do_round(nm, run, round_seed(run.seed, index), plain, None, extras)
            plain.rounds += 1
        index += 1
        if extras:
            plain.setup_s += measure_setup(nm, run.wl)
    return plain, traced


def import_ms() -> float:
    """Fresh-interpreter ``import ncsmode`` time, median of three."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import ncsmode; print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip()) * 1e3)
    return statistics.median(times)


def latency_us(lat_ns) -> tuple[float, float, int]:
    """Median, and the median over blocks of ``P99_BLOCK`` consecutive
    samples of each block's 99th percentile (ten samples beyond it in each).
    The machine's speed drifts over seconds; the block median keeps one slow
    stretch from setting the tail figure of a whole run."""
    us = np.asarray(lat_ns, dtype=float) / 1e3
    blocks = np.array_split(us, max(1, len(us) // P99_BLOCK))
    return float(np.median(us)), float(np.median([np.percentile(b, 99) for b in blocks])), len(blocks)


def end_to_end(nm, run: Run, seconds: float) -> dict:
    phase, _ = measure(nm, run, seconds)
    p50, p99, blocks = latency_us(phase.latency_ns)
    print(f"{run.wl.name}: {phase.rounds} rounds, {phase.work} trial-steps in {phase.seconds:.3f} "
          f"CPU s ({phase.wall:.3f} wall s); "
          f"{len(phase.latency_ns)} online samples, p99 median of {blocks} blocks; "
          f"{len(phase.setup_s)} set-ups")
    return {
        "trial_steps_per_s": (phase.work / phase.seconds, "1/s"),
        "setup_s": (statistics.median(phase.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "step_us_p50": (p50, "us"),
        "step_us_p99": (p99, "us"),
    }


def per_layer(nm, run: Run, seconds: float) -> dict:
    tracer = Tracer()
    plain, traced = measure(nm, run, seconds, tracer)
    steps, rounds = traced.work, traced.rounds
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"{run.wl.name}-spans.csv")

    dur = tracer.durations()
    own = tracer.self_times()

    def med_us(name):
        return statistics.median(dur[name]) / 1e3 if dur.get(name) else 0.0

    def total(*names):
        return sum(sum(dur.get(n, ())) for n in names)

    out = {}
    for key in NAMES:
        out[f"filters.{key}.step_us"] = (med_us(f"filters.{key}.step"), "us")
    out["filters.alg1.updated_share"] = (
        tracer.counters["alg1.updated"] / max(tracer.counters["alg1.steps"], 1), "share")
    for fn in ("filters.kf_predict", "filters.kf_update", "filters.alg1_predict_output",
               "filters.alg2_predict", "filters.mode_posterior_update_log",
               "markov.predict_prior", "markov.sample_next"):
        out[f"{fn}.calls"] = (len(dur.get(fn, ())) / steps, "calls/step")
        out[f"{fn}.us"] = (med_us(fn), "us")
    out["sim.truth_us_per_step"] = (own.get("sim.simulate_trial", 0) / 1e3 / steps, "us")
    out["model.builds"] = (
        (len(dur.get("model.build_augmented", ())) + len(dur.get("model.ss_to_arma", ()))) / rounds,
        "count/round")
    out["model.build_us"] = (
        total("model.build_augmented", "model.ss_to_arma", "model.mode_tables") / 1e3 / rounds, "us")
    out["metrics.aggregate_ms"] = (total("metrics.aggregate") / 1e6 / rounds, "ms")
    out["cli.load_config_ms"] = (med_us("cli.load_config") / 1e3, "ms")
    out["cli.self_ms"] = (sum(ns for name, ns in own.items() if name.startswith("cli.")) / 1e6 / rounds,
                          "ms")
    out["cli.bytes_written"] = (traced.written / rounds, "bytes/round")
    out["cli.import_ms"] = (import_ms(), "ms")
    out["trace.overhead_share"] = (
        (plain.work / plain.seconds) / (traced.work / traced.seconds) - 1.0, "share")

    wall = tracer.root_ns()
    layers = tracer.layer_self_times()
    bench = layers.pop("bench", 0)
    out["trace.unattributed_share"] = (bench / wall, "share")
    print(f"{run.wl.name}: traced {rounds} rounds, {steps} trial-steps, wall {wall / 1e9:.3f} s")
    for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:8s} self {ns / 1e9:8.3f} s  {100.0 * ns / wall:6.2f}%")
    print(f"  layers sum to {100.0 * sum(layers.values()) / wall:.2f}% of the traced wall time; "
          f"the remainder is the benchmark's own loop")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nm = import_package()
    wl = WORKLOADS[args.workload]()
    run = Run(wl, args.seed, nm.cli.load_config(wl.load).trial.steps)
    print(f"{args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}, "
          f"BLAS threads {BLAS_THREADS}, numpy {np.__version__}, python {sys.version.split()[0]}")
    metrics = (per_layer if args.trace else end_to_end)(nm, run, args.seconds)
    run.finish()
    shutil.rmtree(OUT / run.wl.name, ignore_errors=True)

    mean_mde = {k: round(float(np.mean([t[0] for t in v])), 3) for k, v in run.pooled.items() if v}
    print(f"mean %MDE {mean_mde}, data-free guess {np.mean(run.guess_mdes):.3f}")
    print(f"operations: {run.attempted} attempted, {run.failed} failed "
          f"(by estimator: {run.failed_by}; counted: {', '.join(run.wl.counted)})")
    for p in run.problems:
        print(f"CHECK FAILED: {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
