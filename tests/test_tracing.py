"""The benchmark's tracer (perfbench/tracer.py) patches package names given
as strings. These checks keep every such name a module attribute that the
estimators actually call, so that traced call counts stay meaningful."""

import dataclasses
import importlib.util
from collections import Counter
from pathlib import Path

import ncsmode
import ncsmode.cli
from ncsmode.cli import load_config
from ncsmode.sim import ESTIMATOR_KEYS, simulate_trial

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_traced_trial_scores_candidates_once_per_step():
    steps = 5
    cfg = dataclasses.replace(load_config("cstr5").trial, steps=steps, seed=1)
    tracer = _tracer()
    tracer.install(ncsmode)
    try:
        rec = simulate_trial(cfg, ESTIMATOR_KEYS)
    finally:
        tracer.uninstall()
    assert not rec.failed

    names = [tracer.names[nid] for nid, _, _, _ in tracer.spans]
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

    totals = Counter(names)
    assert totals["model.build_augmented"] == 1
    assert totals["model.ss_to_arma"] == 1
    assert totals["model.mode_tables"] == 1
    assert totals["markov.sample_next"] == steps - 1
    for key in ESTIMATOR_KEYS:
        assert totals[f"filters.{key}.init"] == totals[f"filters.{key}.start"] == 1
