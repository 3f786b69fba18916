"""Command-line experiment runner.

Experiments are described by a single JSON config (schema documented in the
README and held by the field table ``_FIELDS``). The bundled ``cstr5`` preset
is a discretized two-state stirred-tank reactor driven through two lossy
input links with the hold strategy; ``ncsmode run --preset cstr5`` runs the
full Monte Carlo comparison of the three estimators and emits metrics,
histograms and plot-ready series as CSV/JSON.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys
import time
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .markov import LinkChain, TransitionMatrix, kron_compose
from .metrics import MetricsSummary, _check_bin_width, aggregate
from .model import ArmaModel, AugmentedModel, LossStrategy, ModeSpace, PlantModel
from .sim import ESTIMATOR_KEYS, TrialConfig, TrialRecord, _estimator_names, run_monte_carlo

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

# keys each config section may hold; chain and input take exactly one
_SECTION_KEYS = {
    "plant": ("A", "B", "C", "Q", "R"),
    "arma": ("a", "b", "c", "lam"),
    "chain": ("matrix", "links"),
    "input": ("std", "sequence"),
    "estimator_init": ("x0", "P0", "prior"),
}

# The top-level keys in order, each with its JSON kind, its default (a None
# default also admits null) and the attribute it fills, as a path from the
# ExperimentConfig. A section (kind "an object") takes the keys above and
# fills the TrialConfig attributes that config_from_dict builds from them.
_FIELDS = (
    ("plant", "an object", None, None),
    ("arma", "an object", None, None),
    ("strategy", "a string", "hold", "trial.strategy"),
    ("chain", "an object", None, None),
    ("steps", "an integer", 100, "trial.steps"),
    ("input", "an object", None, None),
    ("x0", "a number or a list of numbers", None, "trial.x0"),
    ("u_init_applied", "a number or a list of numbers", None, "trial.u_init_applied"),
    ("initial_mode", "an integer", None, "trial.initial_mode"),
    ("resample_x0", "a boolean", False, "trial.resample_x0"),
    ("x0_std", "a number", 1.0, "trial.x0_std"),
    ("held_cov_floor", "a number", None, "trial.held_cov_floor"),
    ("estimator_init", "an object", None, None),
    ("estimators", "a list of strings", ESTIMATOR_KEYS, "estimators"),
    ("trials", "an integer", 100, "n_trials"),
    ("seed", "an integer", None, "seed"),
    ("out", "a string", "results", "out"),
    ("emit_steps", "a boolean", False, "emit_steps"),
    ("hist_bin_width", "a number", 2.0, "hist_bin_width"),
)
_ROWS = {row[0]: row for row in _FIELDS}


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
        _estimator_names(self.estimators)
        if not self.estimators:
            raise ValueError("select at least one estimator")
        _check_bin_width(self.hist_bin_width, "hist_bin_width")


class _field:
    """Prefix validation errors with the config field that caused them (a
    class: a generator-based context manager costs about 1 us per use)."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ValueError):
            raise ValueError(f"{self.name}: {exc}") from None


def _json(value):
    """An attribute that a config key fills, as the key's JSON value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, LossStrategy):
        return value.value
    return value


def cstr5_config() -> dict:
    """Canonical config dict for the bundled stirred-tank reactor benchmark.

    Two-state reactor discretized at 0.25 s, full state measurement with
    noise covariance 2.5e-3 I, two independent input links each following a
    two-state chain [[0.8, 0.2], [0.4, 0.6]], hold strategy, white-noise
    excitation of std 10 per channel, 100 steps and 100 trials. Every key
    the preset does not set holds its default.
    """
    preset = {
        "plant": {
            "A": [[-0.8882, -0.0097], [293.8556, 2.2973]],
            "B": [[0.011, -0.0014], [-0.3602, 0.4732]],
            "C": [[1.0, 0.0], [0.0, 1.0]],
            "Q": [[0.0, 0.0], [0.0, 0.0]],
            "R": [[2.5e-3, 0.0], [0.0, 2.5e-3]],
        },
        "chain": {"links": [[[0.8, 0.2], [0.4, 0.6]], [[0.8, 0.2], [0.4, 0.6]]]},
        "input": {"std": [10.0, 10.0]},
        "x0": [1.0, 1.0],
        "u_init_applied": [1.0, 1.0],
        "estimator_init": {"prior": [0.25, 0.25, 0.25, 0.25]},
        "estimators": ["alg1", "alg2", "imm"],
    }
    return {key: preset.get(key, default) for key, _, default, _ in _FIELDS}


_NUMBER_TYPES = frozenset((int, float))  # by exact type: a boolean is not a number
_LIST_TYPES = frozenset((list, tuple))


def _is_numbers(value) -> bool:
    """Whether value is a number or a (nested) list of numbers."""
    if type(value) not in _LIST_TYPES:
        return type(value) in _NUMBER_TYPES
    types = set(map(type, value))
    return types <= _NUMBER_TYPES or (types <= _LIST_TYPES and all(map(_is_numbers, value)))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# each JSON kind a config value may take: the test its value must already
# pass (nothing is coerced) and the conversion to the attribute it fills
_KINDS = {
    "an integer": (_is_int, None),
    "a number": (lambda v: _is_int(v) or isinstance(v, float), float),
    "a boolean": (lambda v: isinstance(v, bool), None),
    "a string": (lambda v: isinstance(v, str), None),
    "a list of strings": (
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v),
        tuple,
    ),
    "a number or a list of numbers": (_is_numbers, lambda v: np.array(v, dtype=float)),
    '"uniform" or a list of numbers': (  # a mode prior; "uniform" reads as None
        lambda v: v == "uniform" or (type(v) in _LIST_TYPES and _is_numbers(v)),
        lambda v: None if v == "uniform" else np.array(v, dtype=float),
    ),
}


def _value(value, kind: str, name: str):
    """``value``, which must have the JSON kind ``kind``, converted to the
    attribute it fills; anything else is rejected naming ``name``."""
    test, convert = _KINDS[kind]
    if not test(value):
        raise ValueError(f"{name}: expected {kind}, got {reprlib.repr(value)}")
    if convert is None:
        return value
    try:
        return convert(value)
    except ValueError as exc:  # a ragged list
        raise ValueError(f"{name}: {exc}") from None


def _numbers(value, name: str) -> np.ndarray:
    return _value(value, "a number or a list of numbers", name)


def _read(data: dict, key: str, kind: str, default):
    """The top-level value of ``key``, ``default`` when absent."""
    value = data.get(key, default)
    return None if value is None and default is None else _value(value, kind, key)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and fully validate an experiment config from a plain dict.

    An unknown key is rejected by name rather than silently ignored, and so
    is a top level or a section that is not an object, and a value of the
    wrong JSON type: integers take integers, not booleans or fractions;
    switches take booleans; ``estimators`` a list of strings; matrices,
    vectors and scales a number or a (nested) list of numbers; and
    ``estimator_init.prior`` ``"uniform"`` or a list of numbers. ``chain``
    and ``input`` take exactly one of their two keys.
    """
    if not isinstance(data, dict):
        raise ValueError(f"the config must be a JSON object, not {type(data).__name__}")
    parts = [("", data, _ROWS)]
    parts += [(f"{name}: ", data.get(name), keys) for name, keys in _SECTION_KEYS.items()]
    for where, part, known in parts:
        if part is not None and not isinstance(part, dict):
            raise ValueError(f"{where}must be an object, not {type(part).__name__}")
        unknown = sorted(set(part or ()) - set(known))
        if unknown:
            raise ValueError(f"{where}unknown key(s) {', '.join(map(repr, unknown))}")
    # each section's given values: a null one reads as absent
    given = {
        name: {key: value for key, value in (data.get(name) or {}).items() if value is not None}
        for name in _SECTION_KEYS
    }
    for name in ("chain", "input"):
        if len(given[name]) != 1:
            first, second = _SECTION_KEYS[name]
            raise ValueError(f"{name}: give exactly one of {first!r} or {second!r}")

    trial, run = {}, {}  # TrialConfig and ExperimentConfig arguments
    for key, kind, default, attr in _FIELDS:
        if attr is not None:
            owner, _, name = attr.rpartition(".")
            (trial if owner else run)[name] = _read(data, key, kind, default)

    if data.get("plant") is None:
        raise ValueError("plant: missing section")
    pdata = given["plant"]
    values = {key: _numbers(pdata.get(key), f"plant.{key}") for key in _SECTION_KEYS["plant"]}
    plant = trial["plant"] = PlantModel(**values)
    with _field("plant.B"):
        ModeSpace(plant.r)  # one column per input link: bound the link count
    if data.get("arma") is not None:
        missing = [key for key in _SECTION_KEYS["arma"] if key not in given["arma"]]
        if missing:
            raise ValueError(f"arma: missing key(s) {', '.join(map(repr, missing))}")
        values = {key: _numbers(value, f"arma.{key}") for key, value in given["arma"].items()}
        with _field("arma"):
            trial["arma"] = ArmaModel(**values)
    with _field("strategy"):
        strategy = trial["strategy"] = LossStrategy(trial["strategy"])
    [(key, value)] = given["chain"].items()
    value = _numbers(value, f"chain.{key}")
    if key == "matrix":
        with _field("chain"):
            trial["chain"] = TransitionMatrix(value)
    else:
        with _field("chain.links"):
            trial["chain"] = kron_compose([LinkChain(link) for link in value])
    [(key, value)] = given["input"].items()
    trial[f"input_{key}"] = _numbers(value, f"input.{key}")

    # an absent or null initial reads as its default
    if trial["x0"] is None:
        trial["x0"] = np.zeros(plant.n)
    aug_dim = AugmentedModel(plant, strategy).state_dim
    init = given["estimator_init"]
    trial["est_x0"] = _numbers(init.get("x0", [0.0] * aug_dim), "estimator_init.x0")
    p0 = _numbers(init.get("P0", 0.1), "estimator_init.P0")
    trial["est_P0"] = p0 * np.eye(aug_dim) if p0.ndim == 0 else p0
    trial["est_prior"] = _value(
        init.get("prior", "uniform"), '"uniform" or a list of numbers', "estimator_init.prior"
    )

    with _field("trial"):
        trial = TrialConfig(**trial)
    with _field("experiment"):
        return ExperimentConfig(trial=trial, **run)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical dict for an experiment config (inverse of config_from_dict)."""
    trial = cfg.trial
    prior = trial.est_prior
    sections = {
        "plant": {key: getattr(trial.plant, key).tolist() for key in _SECTION_KEYS["plant"]},
        "arma": None if trial.arma is None else {
            key: getattr(trial.arma, key).tolist() for key in _SECTION_KEYS["arma"]
        },
        "chain": {"matrix": trial.chain.P.tolist()},
        "input": {"std": trial.input_std.tolist()} if trial.input_std is not None
        else {"sequence": trial.input_sequence.tolist()},
        "estimator_init": {
            "x0": trial.est_x0.tolist(),
            "P0": trial.est_P0.tolist(),
            "prior": "uniform" if prior is None else prior.tolist(),
        },
    }
    return {
        key: sections[key] if attr is None else _json(attrgetter(attr)(cfg))
        for key, _, _, attr in _FIELDS
    }


def dump_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2)


def _config_data(path_or_preset: str):
    """The config data of a preset name or a JSON file."""
    if path_or_preset in PRESET_NAMES:
        return cstr5_config()
    path = Path(path_or_preset)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {path_or_preset!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def load_config(path_or_preset: str) -> ExperimentConfig:
    """Load an experiment config from a preset name or a JSON file."""
    return config_from_dict(_config_data(path_or_preset))


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
    written: list[Path] = []
    t_start = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
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


def _names(text: str) -> list[str]:
    """The names in a comma-separated list."""
    return [name.strip() for name in text.split(",") if name.strip()]


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
    # each flag below up to --jobs sets the config key of its own name
    run.add_argument("--trials", type=int, help="number of Monte Carlo trials")
    run.add_argument("--steps", type=int, help="simulation steps per trial")
    run.add_argument("--seed", type=int, help="Monte Carlo base seed")
    run.add_argument("--estimators", type=_names, help="comma-separated subset of alg1,alg2,imm")
    run.add_argument("--strategy", choices=["zero", "hold"], help="loss strategy override")
    run.add_argument(
        "--emit-steps", action="store_true", default=None, help="write per-step trial CSVs"
    )
    run.add_argument("--out", help="output directory")
    run.add_argument("--hist-bin-width", type=float, help="%%MDE histogram bin width")
    run.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    run.add_argument(
        "--reproduce",
        action="store_true",
        help="require an explicit seed instead of an OS-random one",
    )
    return parser


def _with_flags(data, args):
    """The config data with each given flag's value on its key, so that a
    flag is checked as its key is."""
    if not isinstance(data, dict):
        return data  # config_from_dict rejects it
    flags = {key: value for key, value in vars(args).items() if key in _ROWS and value is not None}
    for key in flags.keys() & data.keys():  # a replaced value must still be well-formed
        _read(data, *_ROWS[key][:3])
    return {**data, **flags}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        data = _with_flags(_config_data(args.preset or args.config), args)
        cfg = replace(config_from_dict(data), n_jobs=args.jobs)
        if args.reproduce and cfg.seed is None:
            raise ValueError("--reproduce requires an explicit --seed (or a seed in the config)")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
