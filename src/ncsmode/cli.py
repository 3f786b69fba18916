"""Command-line experiment runner.

Experiments are described by a single JSON config (schema documented in the
README and mirrored by :func:`config_to_dict`). The bundled ``cstr5`` preset
is a discretized two-state stirred-tank reactor driven through two lossy
input links with the hold strategy; ``ncsmode run --preset cstr5`` runs the
full Monte Carlo comparison of the three estimators and emits metrics,
histograms and plot-ready series as CSV/JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import reprlib
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .markov import LinkChain, TransitionMatrix, kron_compose
from .metrics import MetricsSummary, aggregate
from .model import ArmaModel, LossStrategy, PlantModel
from .sim import ESTIMATOR_KEYS, TrialConfig, TrialRecord, run_monte_carlo

__all__ = [
    "STEP_CSV_SCHEMA",
    "ExperimentConfig",
    "cstr5_config",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "dump_config",
    "run_experiment",
    "main",
]

STEP_CSV_SCHEMA = "ncsmode-steps-v1"

PRESET_NAMES = ("cstr5",)

# keys each config section may hold; the top level holds the preset's keys
_SECTION_KEYS = {
    "plant": ("A", "B", "C", "Q", "R"),
    "arma": ("a", "b", "c", "lam"),
    "chain": ("matrix", "links"),
    "input": ("std", "sequence"),
    "estimator_init": ("x0", "P0", "prior"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A trial template plus the Monte Carlo and emission options."""

    trial: TrialConfig
    estimators: tuple[str, ...]
    n_trials: int
    seed: int | None
    out: str
    emit_steps: bool
    hist_bin_width: float
    n_jobs: int = 1

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("trials must be at least 1")
        if self.n_jobs < 1:
            raise ValueError("jobs must be at least 1")
        for name in self.estimators:
            if name not in ESTIMATOR_KEYS:
                raise ValueError(
                    f"unknown estimator {name!r}; choose from {ESTIMATOR_KEYS}"
                )
        if not self.estimators:
            raise ValueError("select at least one estimator")


@contextlib.contextmanager
def _field(name: str):
    """Prefix validation errors with the config field that caused them."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def cstr5_config() -> dict:
    """Canonical config dict for the bundled stirred-tank reactor benchmark.

    Two-state reactor discretized at 0.25 s, full state measurement with
    noise covariance 2.5e-3 I, two independent input links each following a
    two-state chain [[0.8, 0.2], [0.4, 0.6]], hold strategy, white-noise
    excitation of std 10 per channel, 100 steps and 100 trials.
    """
    return {
        "plant": {
            "A": [[-0.8882, -0.0097], [293.8556, 2.2973]],
            "B": [[0.011, -0.0014], [-0.3602, 0.4732]],
            "C": [[1.0, 0.0], [0.0, 1.0]],
            "Q": [[0.0, 0.0], [0.0, 0.0]],
            "R": [[2.5e-3, 0.0], [0.0, 2.5e-3]],
        },
        "arma": None,
        "strategy": "hold",
        "chain": {"links": [[[0.8, 0.2], [0.4, 0.6]], [[0.8, 0.2], [0.4, 0.6]]]},
        "steps": 100,
        "input": {"std": [10.0, 10.0]},
        "x0": [1.0, 1.0],
        "u_init_applied": [1.0, 1.0],
        "initial_mode": None,
        "resample_x0": False,
        "x0_std": 1.0,
        "held_cov_floor": None,
        "estimator_init": {
            "x0": [0.0, 0.0, 0.0, 0.0],
            "P0": [
                [0.1, 0.0, 0.0, 0.0],
                [0.0, 0.1, 0.0, 0.0],
                [0.0, 0.0, 0.1, 0.0],
                [0.0, 0.0, 0.0, 0.1],
            ],
            "prior": [0.25, 0.25, 0.25, 0.25],
        },
        "estimators": ["alg1", "alg2", "imm"],
        "trials": 100,
        "seed": None,
        "out": "results",
        "emit_steps": False,
        "hist_bin_width": 2.0,
    }


# JSON types a top-level scalar may take; booleans are not numbers
_JSON_TYPES = {
    "an integer": (int,),
    "a number": (int, float),
    "a boolean": (bool,),
    "a string": (str,),
}


def _scalar(data: dict, key: str, kind: str, default, nullable: bool = False):
    """The value of ``key`` (``default`` when absent), which must already
    have the JSON type ``kind``: nothing is coerced."""
    value = data.get(key, default)
    if value is None and nullable:
        return None
    types = _JSON_TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ValueError(f"{key}: expected {kind}, got {value!r}")
    return value


_NUMBER_TYPES = frozenset((int, float))  # by exact type: a boolean is not a number
_LIST_TYPES = frozenset((list, tuple))


def _is_numbers(value) -> bool:
    """Whether value is a number or a (nested) list of numbers."""
    if type(value) not in _LIST_TYPES:
        return type(value) in _NUMBER_TYPES
    types = set(map(type, value))
    return types <= _NUMBER_TYPES or (types <= _LIST_TYPES and all(map(_is_numbers, value)))


def _get(data: dict, key: str, default):
    """The value of ``key``, or ``default`` when it is absent or null."""
    value = data.get(key)
    return default if value is None else value


def _numbers(value, key: str) -> np.ndarray:
    """A number or a (nested) list of numbers as a float array. Anything
    else, booleans and numeric strings included, is rejected naming ``key``."""
    if value is None:
        raise ValueError(f"{key}: missing")
    if not _is_numbers(value):
        raise ValueError(
            f"{key}: expected a number or a list of numbers, got {reprlib.repr(value)}"
        )
    try:
        return np.array(value, dtype=float)
    except ValueError as exc:  # a ragged list
        raise ValueError(f"{key}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and fully validate an experiment config from a plain dict.

    An unknown key is rejected by name rather than silently ignored, and so
    is a top level or a section that is not an object, and a value of the
    wrong JSON type: integers take integers, not booleans or fractions;
    switches take booleans; ``estimators`` a list of strings; matrices,
    vectors and scales a number or a (nested) list of numbers; and
    ``estimator_init.prior`` ``"uniform"`` or a list of numbers.
    """
    if not isinstance(data, dict):
        raise ValueError(f"the config must be a JSON object, not {type(data).__name__}")
    parts = [("", data, cstr5_config())]
    parts += [(f"{name}: ", data.get(name), keys) for name, keys in _SECTION_KEYS.items()]
    for where, part, known in parts:
        if part is not None and not isinstance(part, dict):
            raise ValueError(f"{where}must be an object, not {type(part).__name__}")
        unknown = sorted(set(part or ()) - set(known))
        if unknown:
            raise ValueError(f"{where}unknown key(s) {', '.join(map(repr, unknown))}")
    with _field("plant"):
        pdata = data.get("plant")
        if not isinstance(pdata, dict):
            raise ValueError("missing section")
    plant = PlantModel(
        **{key: _numbers(pdata.get(key), f"plant.{key}") for key in _SECTION_KEYS["plant"]}
    )

    arma = None
    adata = data.get("arma")
    if adata is not None:
        missing = [key for key in _SECTION_KEYS["arma"] if key not in adata]
        if missing:
            raise ValueError(f"arma: missing key(s) {', '.join(map(repr, missing))}")
        values = {key: _numbers(adata[key], f"arma.{key}") for key in _SECTION_KEYS["arma"]}
        with _field("arma"):
            arma = ArmaModel(**values)

    with _field("strategy"):
        strategy = LossStrategy(data.get("strategy", "hold"))

    cdata = data.get("chain") or {}
    if cdata.get("matrix") is not None:
        matrix = _numbers(cdata["matrix"], "chain.matrix")
        with _field("chain"):
            chain = TransitionMatrix(matrix)
    elif cdata.get("links") is not None:
        links = _numbers(cdata["links"], "chain.links")
        with _field("chain"):
            chain = kron_compose([LinkChain(link) for link in links])
    else:
        raise ValueError("chain: give either 'matrix' or 'links'")

    steps = _scalar(data, "steps", "an integer", 100)

    idata = data.get("input") or {}
    input_std = None
    input_sequence = None
    if idata.get("std") is not None:
        input_std = _numbers(idata["std"], "input.std")
    elif idata.get("sequence") is not None:
        input_sequence = _numbers(idata["sequence"], "input.sequence")
    else:
        raise ValueError("input: give either 'std' or 'sequence'")

    # an absent or null initial reads as its default
    aug_dim = plant.n + (plant.r if strategy is LossStrategy.HOLD else 0)
    edata = data.get("estimator_init") or {}
    est_x0 = _numbers(_get(edata, "x0", [0.0] * aug_dim), "estimator_init.x0")
    p0 = _numbers(_get(edata, "P0", 0.1), "estimator_init.P0")
    est_P0 = p0 * np.eye(aug_dim) if p0.ndim == 0 else p0
    prior = _get(edata, "prior", "uniform")
    if isinstance(prior, (list, tuple)):
        est_prior = _numbers(prior, "estimator_init.prior")
    elif prior == "uniform":
        est_prior = None
    else:
        raise ValueError(
            f"estimator_init.prior: expected \"uniform\" or a list of numbers, got {prior!r}"
        )
    x0 = _numbers(_get(data, "x0", [0.0] * plant.n), "x0")
    u_init = data.get("u_init_applied")
    u_init = None if u_init is None else _numbers(u_init, "u_init_applied")

    estimators = data.get("estimators", list(ESTIMATOR_KEYS))
    if not isinstance(estimators, (list, tuple)) or not all(
        isinstance(name, str) for name in estimators
    ):
        raise ValueError(f"estimators: expected a list of strings, got {estimators!r}")
    initial_mode = _scalar(data, "initial_mode", "an integer", None, nullable=True)
    resample_x0 = _scalar(data, "resample_x0", "a boolean", False)
    x0_std = _scalar(data, "x0_std", "a number", 1.0)
    held_cov_floor = _scalar(data, "held_cov_floor", "a number", None, nullable=True)
    n_trials = _scalar(data, "trials", "an integer", 100)
    seed = _scalar(data, "seed", "an integer", None, nullable=True)
    out = _scalar(data, "out", "a string", "results")
    emit_steps = _scalar(data, "emit_steps", "a boolean", False)
    hist_bin_width = _scalar(data, "hist_bin_width", "a number", 2.0)

    with _field("trial"):
        trial = TrialConfig(
            plant=plant,
            strategy=strategy,
            chain=chain,
            steps=steps,
            x0=x0,
            est_x0=est_x0,
            est_P0=est_P0,
            input_std=input_std,
            input_sequence=input_sequence,
            u_init_applied=u_init,
            est_prior=est_prior,
            arma=arma,
            initial_mode=initial_mode,
            resample_x0=resample_x0,
            x0_std=float(x0_std),
            held_cov_floor=None if held_cov_floor is None else float(held_cov_floor),
        )

    with _field("experiment"):
        return ExperimentConfig(
            trial=trial,
            estimators=tuple(estimators),
            n_trials=n_trials,
            seed=seed,
            out=out,
            emit_steps=emit_steps,
            hist_bin_width=float(hist_bin_width),
        )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical dict for an experiment config (inverse of config_from_dict)."""
    trial = cfg.trial
    plant = trial.plant
    idata = (
        {"std": trial.input_std.tolist()}
        if trial.input_std is not None
        else {"sequence": trial.input_sequence.tolist()}
    )
    arma = trial.arma
    return {
        "plant": {
            "A": plant.A.tolist(),
            "B": plant.B.tolist(),
            "C": plant.C.tolist(),
            "Q": plant.Q.tolist(),
            "R": plant.R.tolist(),
        },
        "arma": None
        if arma is None
        else {
            "a": arma.a.tolist(),
            "b": arma.b.tolist(),
            "c": arma.c.tolist(),
            "lam": arma.lam.tolist(),
        },
        "strategy": trial.strategy.value,
        "chain": {"matrix": trial.chain.P.tolist()},
        "steps": trial.steps,
        "input": idata,
        "x0": trial.x0.tolist(),
        "u_init_applied": (
            None if trial.u_init_applied is None else trial.u_init_applied.tolist()
        ),
        "initial_mode": trial.initial_mode,
        "resample_x0": trial.resample_x0,
        "x0_std": trial.x0_std,
        "held_cov_floor": trial.held_cov_floor,
        "estimator_init": {
            "x0": trial.est_x0.tolist(),
            "P0": trial.est_P0.tolist(),
            "prior": (
                "uniform" if trial.est_prior is None else trial.est_prior.tolist()
            ),
        },
        "estimators": list(cfg.estimators),
        "trials": cfg.n_trials,
        "seed": cfg.seed,
        "out": cfg.out,
        "emit_steps": cfg.emit_steps,
        "hist_bin_width": cfg.hist_bin_width,
    }


def dump_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2)


def load_config(path_or_preset: str) -> ExperimentConfig:
    """Load an experiment config from a preset name or a JSON file."""
    if path_or_preset in PRESET_NAMES:
        return config_from_dict(cstr5_config())
    path = Path(path_or_preset)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {path_or_preset!r}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return config_from_dict(data)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_step_csv(path: Path, record: TrialRecord) -> None:
    names = record.estimators
    n = record.true_states.shape[1]
    m = record.y.shape[1]
    r = record.u.shape[1]
    cols = ["k", "theta_true"]
    cols += [f"theta_hat_{name}" for name in names]
    cols += [f"x{i + 1}" for i in range(n)]
    for name in names:
        cols += [f"xhat{i + 1}_{name}" for i in range(n)]
    cols += [f"y{i + 1}" for i in range(m)]
    cols += [f"u{i + 1}" for i in range(r)]
    cols += ["fallback_flags"]
    lines = [
        f"# {STEP_CSV_SCHEMA} estimators={','.join(names)} "
        "fallback_flags=bitmask(bit i -> estimator i)",
        ",".join(cols),
    ]
    # rows k = 1..N as Python ints and floats, which format faster than
    # numpy scalars and to the same text
    modes = np.column_stack([record.true_modes, *(record.est_modes[name] for name in names)])
    reals = np.hstack([
        record.true_states[1:], *(record.est_states[name] for name in names),
        record.y[1:], record.u[1:],
    ])
    flags = np.zeros(record.steps, dtype=int)
    for i, name in enumerate(names):
        flags |= record.fallbacks[name].astype(int) << i
    for k, (mode_row, real_row, flag) in enumerate(
        zip(modes.tolist(), reals.tolist(), flags.tolist()), start=1
    ):
        row = [str(k), *map(str, mode_row), *map(_fmt, real_row), str(flag)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _write_series_csv(path: Path, record: TrialRecord, name: str) -> None:
    n = record.true_states.shape[1]
    cols = ["k", "theta_true", "theta_hat"]
    cols += [f"x{i + 1}" for i in range(n)]
    cols += [f"xhat{i + 1}" for i in range(n)]
    cols += [f"err{i + 1}" for i in range(n)]
    lines = [",".join(cols)]
    x, xh = record.true_states[1:], record.est_states[name]
    modes = np.column_stack([record.true_modes, record.est_modes[name]])
    reals = np.hstack([x, xh, x - xh])
    for k, (mode_row, real_row) in enumerate(zip(modes.tolist(), reals.tolist()), start=1):
        lines.append(",".join([str(k), *map(str, mode_row), *map(_fmt, real_row)]))
    path.write_text("\n".join(lines) + "\n")


def _write_hist_csv(path: Path, summary: MetricsSummary, name: str) -> None:
    lines = ["bin_lo,bin_hi,count"]
    counts = summary.estimators[name].hist_counts
    edges = summary.bin_edges
    for i, count in enumerate(counts):
        lines.append(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{count}")
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run the configured Monte Carlo and emit every requested output.

    Writes metrics.json, hist_<estimator>.csv and series_<estimator>.csv
    (first trial) into the output directory, plus trial_XXXX.csv per trial
    when step emission is on, and prints the comparison table. Returns 0
    only if every output was written and no trial failed; partially written
    outputs are removed on error.
    """
    if cfg.seed is None:
        base_seed = int(np.random.SeedSequence().entropy & ((1 << 64) - 1))
        print(f"seed: {base_seed} (OS-random; pass --seed to reproduce)")
    else:
        base_seed = cfg.seed

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    t_start = time.perf_counter()
    try:
        records: list[TrialRecord] = []
        for t, record in enumerate(
            run_monte_carlo(
                cfg.trial, cfg.n_trials, base_seed, cfg.estimators, n_jobs=cfg.n_jobs
            )
        ):
            records.append(record)
            if cfg.emit_steps and not record.failed:
                path = out_dir / f"trial_{t:04d}.csv"
                _write_step_csv(path, record)
                written.append(path)

        summary = aggregate(records, bin_width=cfg.hist_bin_width)

        path = out_dir / "metrics.json"
        path.write_text(json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")
        written.append(path)
        for name in cfg.estimators:
            path = out_dir / f"hist_{name}.csv"
            _write_hist_csv(path, summary, name)
            written.append(path)
        first_ok = next((rec for rec in records if not rec.failed), None)
        if first_ok is not None:
            for name in cfg.estimators:
                path = out_dir / f"series_{name}.csv"
                _write_series_csv(path, first_ok, name)
                written.append(path)
    except Exception as exc:
        for path in written:
            path.unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1

    elapsed = time.perf_counter() - t_start
    print(summary.format_table())
    print(f"elapsed: {elapsed:.2f} s  outputs: {out_dir}")
    failed = [t for t, rec in enumerate(records) if rec.failed]
    if failed:
        reasons = {records[t].fail_reason for t in failed}
        print(
            f"warning: {len(failed)} trial(s) failed ({'; '.join(sorted(map(str, reasons)))})",
            file=sys.stderr,
        )
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsmode",
        description="Packet-loss mode and state estimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a single-config experiment")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES, help="bundled experiment preset")
    src.add_argument("--config", help="path to a JSON experiment config")
    run.add_argument("--trials", type=int, help="number of Monte Carlo trials")
    run.add_argument("--steps", type=int, help="simulation steps per trial")
    run.add_argument("--seed", type=int, help="Monte Carlo base seed")
    run.add_argument(
        "--estimators",
        help="comma-separated subset of alg1,alg2,imm",
    )
    run.add_argument("--strategy", choices=["zero", "hold"], help="loss strategy override")
    run.add_argument("--emit-steps", action="store_true", help="write per-step trial CSVs")
    run.add_argument("--out", help="output directory")
    run.add_argument("--hist-bin-width", type=float, help="%%MDE histogram bin width")
    run.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    run.add_argument(
        "--reproduce",
        action="store_true",
        help="require an explicit seed instead of an OS-random one",
    )
    return parser


def _fit_est_init(est_x0: np.ndarray, est_P0: np.ndarray, dim: int):
    """Resize estimator initials when a strategy override changes the state dim."""
    cur = est_x0.shape[0]
    if cur == dim:
        return est_x0, est_P0
    if cur > dim:
        return est_x0[:dim], est_P0[:dim, :dim]
    x0 = np.concatenate([est_x0, np.zeros(dim - cur)])
    fill = float(np.mean(np.diag(est_P0))) if est_P0.size else 0.1
    p0 = fill * np.eye(dim)
    p0[:cur, :cur] = est_P0
    return x0, p0


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    trial = cfg.trial
    trial_kwargs = {}
    if args.steps is not None:
        trial_kwargs["steps"] = args.steps
        if trial.input_sequence is not None:
            raise ValueError("--steps cannot override a config with a fixed input sequence")
    if args.strategy is not None:
        strategy = LossStrategy(args.strategy)
        if strategy is not trial.strategy:
            new_dim = trial.plant.n + (
                trial.plant.r if strategy is LossStrategy.HOLD else 0
            )
            x0, p0 = _fit_est_init(trial.est_x0, trial.est_P0, new_dim)
            trial_kwargs.update(strategy=strategy, est_x0=x0, est_P0=p0)
    if trial_kwargs:
        trial = replace(trial, **trial_kwargs)

    kwargs = {"trial": trial, "n_jobs": args.jobs}
    if args.trials is not None:
        kwargs["n_trials"] = args.trials
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.estimators is not None:
        kwargs["estimators"] = tuple(
            name.strip() for name in args.estimators.split(",") if name.strip()
        )
    if args.out is not None:
        kwargs["out"] = args.out
    if args.hist_bin_width is not None:
        kwargs["hist_bin_width"] = args.hist_bin_width
    if args.emit_steps:
        kwargs["emit_steps"] = True
    cfg = replace(cfg, **kwargs)
    if args.reproduce and cfg.seed is None:
        raise ValueError("--reproduce requires an explicit --seed (or a seed in the config)")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.preset or args.config)
        cfg = _apply_overrides(cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
