"""The benchmark's tracer (perfbench/tracer.py) patches package names given
as strings. These checks keep every such name a module attribute that the
estimators actually call, so that traced call counts stay meaningful: a
trial's bank step, a Monte Carlo batch's lockstep step and each online
estimator's step."""

import dataclasses
import importlib.util
from collections import Counter
from pathlib import Path

import ncsmode
import ncsmode.cli
from ncsmode.cli import load_config
from ncsmode.filters import Alg1Estimator, Alg2Estimator, ImmEstimator
from ncsmode.model import build_augmented, ss_to_arma
from ncsmode.sim import ESTIMATOR_KEYS, run_monte_carlo, simulate_trial

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _traced(fn):
    tracer = _tracer()
    tracer.install(ncsmode)
    try:
        result = fn()
    finally:
        tracer.uninstall()
    names = [tracer.names[nid] for nid, _, _, _ in tracer.spans]
    return result, tracer, names


def test_traced_trial_scores_candidates_once_per_step():
    """A trial steps its estimators as one bank: each trial-step scores the
    candidates once per estimator and runs one Kalman cycle for the bank,
    and no estimator's own ``step`` runs."""
    steps = 5
    cfg = dataclasses.replace(load_config("cstr5").trial, steps=steps, seed=1)
    rec, _, names = _traced(lambda: simulate_trial(cfg, ESTIMATOR_KEYS))
    assert not rec.failed

    totals = Counter(names)
    for fn in ("kf_predict", "kf_update", "alg1_predict_output", "alg2_predict"):
        assert totals[f"filters.{fn}"] == steps, fn
    assert totals["model.build_augmented"] == 1
    assert totals["model.ss_to_arma"] == 1
    assert totals["model.mode_tables"] == 1
    assert totals["markov.sample_next"] == 0  # the truth searches the chain's CDF rows itself
    for key in ESTIMATOR_KEYS:
        assert totals[f"filters.{key}.init"] == totals[f"filters.{key}.start"] == 1
        assert totals[f"filters.{key}.step"] == 0


def test_traced_monte_carlo_runs_one_cycle_per_step():
    """A Monte Carlo batch steps its trials in lockstep: each step runs one
    Kalman cycle for all trials' banks, one alg2 recursion for all their
    alg2 estimators and one IMM recursion for all their IMMs (each one
    prior prediction and one posterior update), while alg1 still scores its
    candidates and predicts its prior once per trial; the models are built
    once per batch."""
    steps, trials = 5, 4
    cfg = dataclasses.replace(load_config("cstr5").trial, steps=steps)
    records, _, names = _traced(lambda: list(run_monte_carlo(cfg, trials, 9, ESTIMATOR_KEYS)))
    assert len(records) == trials and not any(rec.failed for rec in records)

    totals = Counter(names)
    assert totals["filters.kf_predict"] == totals["filters.kf_update"] == steps
    assert totals["filters.alg1_predict_output"] == trials * steps
    assert totals["filters.alg2_predict"] == steps
    assert totals["model.build_augmented"] == 1
    assert totals["model.ss_to_arma"] == 1
    assert totals["model.mode_tables"] == 1
    assert totals["markov.sample_next"] == 0  # the truth searches the chain's CDF rows itself
    assert totals["sim.simulate_trial"] == 0
    for key in ESTIMATOR_KEYS:
        assert totals[f"filters.{key}.init"] == totals[f"filters.{key}.start"] == trials
        assert totals[f"filters.{key}.step"] == 0
    assert totals["markov.predict_prior"] == trials * steps + 2 * steps
    expected = {
        "alg2": ("filters.alg2_predict", "markov.predict_prior",
                 "filters.mode_posterior_update_log", "filters.kf_predict", "filters.kf_update"),
        "imm": ("markov.predict_prior", "filters.mode_posterior_update_log",
                "filters.kf_predict", "filters.kf_update"),
    }
    for key, fns in expected.items():
        _, _, key_names = _traced(lambda: list(run_monte_carlo(cfg, trials, 9, (key,))))
        key_totals = Counter(key_names)
        for fn in fns:
            assert key_totals[fn] == steps, (key, fn)


def test_traced_online_step_scores_candidates_once():
    """Each online estimator's ``step`` (a bank of one, as the stream
    workload drives it) scores its candidates in one pass and runs its own
    Kalman cycle."""
    steps = 5
    trial = dataclasses.replace(load_config("cstr5").trial, steps=steps, seed=1)
    rec = simulate_trial(trial, ())
    aug = build_augmented(trial.plant, trial.strategy)
    init = {"prior": trial.est_prior, "x0": trial.est_x0, "P0": trial.est_P0}
    bank = (
        Alg1Estimator(ss_to_arma(trial.plant), trial.strategy, trial.chain,
                      prior=trial.est_prior, kf_model=aug, kf_x0=trial.est_x0,
                      kf_P0=trial.est_P0),
        Alg2Estimator(aug, trial.chain, **init),
        ImmEstimator(aug, trial.chain, **init),
    )

    def run():
        for est in bank:
            est.start(rec.u[0], rec.y[0])
        for k in range(1, steps + 1):
            for est in bank:
                est.step(rec.u[k], rec.y[k])

    _, tracer, names = _traced(run)
    children = [Counter() for _ in tracer.spans]
    for name, (_, parent, _, _) in zip(names, tracer.spans):
        if parent >= 0:
            children[parent][name] += 1
    expected = {
        "alg1": {"filters.alg1_predict_output": 1, "filters.kf_predict": 1,
                 "filters.kf_update": 1},
        "alg2": {"filters.alg2_predict": 1, "filters.mode_posterior_update_log": 1,
                 "filters.kf_predict": 1, "filters.kf_update": 1},
        "imm": {"filters.mode_posterior_update_log": 1, "markov.predict_prior": 1,
                "filters.kf_predict": 1, "filters.kf_update": 1},
    }
    for key, calls in expected.items():
        step_children = [c for name, c in zip(names, children) if name == f"filters.{key}.step"]
        assert len(step_children) == steps
        for counts in step_children:
            for fn, n_calls in calls.items():
                assert counts[fn] == n_calls, (key, fn, counts)
            other = "filters.alg2_predict" if key == "alg1" else "filters.alg1_predict_output"
            assert counts[other] == 0
