"""Each oracle of the benchmark accepts consistent data and rejects a
planted error. Run with ``python3 -m pytest perfbench``.

The data here is generated by the tests themselves, not by the package.
"""

import math
import time
import types

import numpy as np
import pytest

import checks
from tracer import Tracer

LINKS2 = [checks.CSTR5_LINK] * 2


def simulate(plant, steps, seed):
    """Signals in the per-step CSV layout, from a direct simulation."""
    rng = np.random.default_rng(seed)
    A, B, C, R = (np.asarray(plant[k], dtype=float) for k in "ABCR")
    n, r = B.shape
    P = checks.joint_chain(plant["links"])
    modes = [1 + int(rng.integers(P.shape[0]))]
    x = np.ones(n)
    applied = np.ones(r)
    rows = []
    for _ in range(steps):
        gam = np.array(checks.link_bits(modes[-1], r), dtype=float)
        u = 10.0 * rng.standard_normal(r)
        if plant["strategy"] == "hold":
            applied = gam * u + (1.0 - gam) * applied
        else:
            applied = gam * u
        x = A @ x + B @ applied
        y = C @ x + np.linalg.cholesky(R) @ rng.standard_normal(C.shape[0])
        rows.append((modes[-1], x, y))
        modes.append(1 + int(rng.choice(P.shape[0], p=P[modes[-1] - 1])))
        rows[-1] += (u,)
    # row k holds theta_{k-1}, x_k, y_k and u_k: shift the inputs by one
    table = {"theta_true": np.array([m for m, _, _, _ in rows])}
    xs = np.array([row[1] for row in rows])
    ys = np.array([row[2] for row in rows])
    us = np.array([row[3] for row in rows[1:]] + [np.zeros(r)])
    for prefix, arr in (("x", xs), ("y", ys), ("u", us)):
        for i in range(arr.shape[1]):
            table[f"{prefix}{i + 1}"] = arr[:, i].copy()
    return table


@pytest.fixture(params=["hold", "zero"])
def plant(request):
    return {**checks.CSTR5, "strategy": request.param}


def test_truth_accepts_and_rejects(plant):
    table = simulate(plant, 200, 1)
    assert checks.check_truth(table, plant) == []
    bad = {k: v.copy() for k, v in table.items()}
    bad["x2"][50] += 1e-3
    assert any("truth" in p for p in checks.check_truth(bad, plant))
    bad = {k: v.copy() for k, v in table.items()}
    bad["theta_true"][60] = 1 if bad["theta_true"][60] != 1 else 4
    assert any("truth" in p for p in checks.check_truth(bad, plant))


def test_noise_accepts_and_rejects(plant):
    res = checks.noise_residuals(simulate(plant, 4000, 2), plant)
    assert checks.check_noise(res, plant["R"]) == []
    assert checks.check_noise(1.2 * res, plant["R"])
    assert checks.check_noise(res + 0.01, plant["R"])


def test_transitions_accept_and_reject():
    table = simulate(checks.CSTR5, 5000, 3)
    counts = checks.transition_counts(table["theta_true"], 4)
    P = checks.joint_chain(LINKS2)
    assert checks.check_transitions(counts, P) == []
    other = checks.joint_chain([[[0.7, 0.3], [0.4, 0.6]]] * 2)
    assert checks.check_transitions(counts, other)
    forbid = P.copy()
    forbid[0, 3] = 0.0
    assert any("forbids" in p for p in checks.check_transitions(counts, forbid))


def test_joint_chain_is_row_stochastic_product():
    P = checks.joint_chain([checks.CSTR5_LINK] * 4)
    assert P.shape == (16, 16)
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert math.isclose(P[0, 0], 0.8 ** 4) and math.isclose(P[15, 15], 0.6 ** 4)
    assert math.isclose(P[0, 15], 0.2 ** 4) and math.isclose(P[15, 0], 0.4 ** 4)


def test_data_free_guess_closed_form():
    assert checks.guess_mode(LINKS2) == 1
    assert math.isclose(checks.guess_mde_closed_form(LINKS2), 100 * (1 - (2 / 3) ** 2))
    assert math.isclose(checks.guess_mde_closed_form([checks.CSTR5_LINK] * 4), 100 * (1 - (2 / 3) ** 4))
    assert round(checks.guess_mde_closed_form(LINKS2), 1) == 55.6
    assert round(checks.guess_mde_closed_form([checks.CSTR5_LINK] * 4), 1) == 80.2
    mostly_up = [[0.2, 0.8], [0.1, 0.9]]
    assert checks.guess_mode([mostly_up, checks.CSTR5_LINK]) == 2

    tables = [simulate(checks.CSTR5, 100, seed) for seed in range(60)]
    mdes = [checks.mde(t["theta_true"], np.ones(100)) for t in tables]
    assert checks.check_guess_rate(mdes, 100, LINKS2) == []
    assert checks.check_guess_rate([m - 10.0 for m in mdes], 100, LINKS2)


def _summary(per_trial, names, trials, width=2.0):
    edges = np.append(np.arange(0.0, 100.0, width), 100.0)
    out = {"trials": trials, "failures": trials - len(per_trial),
           "histogram_bin_width": width, "estimators": {}}
    for name in names:
        mdes = np.array([t[name][0] for t in per_trial])
        out["estimators"][name] = {
            "mean_mde_percent": float(mdes.mean()),
            "mean_rmse": np.mean([t[name][1] for t in per_trial], axis=0).tolist(),
            "mde_histogram_counts": np.histogram(mdes, bins=edges)[0].tolist(),
        }
    return out


def test_metrics_recomputation_accepts_and_rejects():
    rng = np.random.default_rng(4)
    names = ("alg1", "imm")
    per_trial = []
    for seed in range(8):
        table = simulate(checks.CSTR5, 100, seed)
        for name in names:
            table[f"theta_hat_{name}"] = np.where(
                rng.random(100) < 0.1, 1 + rng.integers(4, size=100), table["theta_true"])
            for i in (1, 2):
                table[f"xhat{i}_{name}"] = table[f"x{i}"] + 0.05 * rng.standard_normal(100)
        per_trial.append(checks.trial_metrics(table, names, 2))
    good = _summary(per_trial, names, 9)
    assert checks.check_metrics_json(per_trial, good, names, 9) == []

    bad = _summary(per_trial, names, 9)
    bad["estimators"]["imm"]["mean_mde_percent"] += 1e-9
    assert checks.check_metrics_json(per_trial, bad, names, 9)
    bad = _summary(per_trial, names, 9)
    bad["estimators"]["alg1"]["mean_rmse"][1] *= 1.0 + 1e-9
    assert checks.check_metrics_json(per_trial, bad, names, 9)
    bad = _summary(per_trial, names, 9)
    counts = bad["estimators"]["alg1"]["mde_histogram_counts"]
    i = counts.index(max(counts))
    counts[i] -= 1
    counts[i + 1] += 1
    assert checks.check_metrics_json(per_trial, bad, names, 9)
    assert checks.check_metrics_json(per_trial, good, names, 8)


def test_acceptance_bands_and_orderings():
    rng = np.random.default_rng(5)

    def trials(mean, size=100):
        return list(np.clip(rng.normal(mean, 2.0, size), 0.0, 100.0))

    mdes = {"alg1": trials(8.0), "imm": trials(10.0), "alg2": trials(18.0)}
    rmses = {k: [np.array([s, 10 * s]) for s in rng.normal(m, 0.002, 100)]
             for k, m in (("imm", 0.015), ("alg1", 0.03), ("alg2", 0.045))}
    assert checks.check_acceptance(mdes, rmses) == []
    assert checks.check_acceptance({**mdes, "alg1": trials(30.0)}, rmses)
    assert checks.check_acceptance({**mdes, "imm": mdes["alg1"], "alg1": mdes["imm"]}, rmses)
    assert checks.check_acceptance(mdes, {**rmses, "imm": rmses["alg2"], "alg2": rmses["imm"]})


def test_posterior_checks():
    probs = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.2, 0.6, 0.1]])
    modes = np.array([1, 3])
    states = np.zeros((2, 2))
    assert checks.check_posteriors(probs, modes, states) == []
    assert checks.check_posteriors(probs * 1.01, modes, states)
    assert checks.check_posteriors(probs, np.array([1, 2]), states)
    assert checks.check_posteriors(probs, modes, np.array([[0.0, np.nan], [0.0, 0.0]]))


def test_tracer_self_times_add_up():
    ns = types.SimpleNamespace()

    def leaf():
        time.sleep(0.002)

    def outer():
        ns.leaf()
        ns.leaf()
        time.sleep(0.001)

    ns.leaf, ns.outer = leaf, outer
    tracer = Tracer()
    tracer.patch(ns, "leaf", "a.leaf")
    tracer.patch(ns, "outer", "b.outer")
    with tracer.span("bench.root"):
        ns.outer()
    tracer.uninstall()
    assert ns.leaf is leaf and ns.outer is outer
    dur = tracer.durations()
    own = tracer.self_times()
    assert len(dur["a.leaf"]) == 2 and len(dur["b.outer"]) == 1
    assert own["b.outer"] == dur["b.outer"][0] - sum(dur["a.leaf"])
    assert sum(tracer.layer_self_times().values()) == tracer.root_ns()
    assert own["a.leaf"] >= 4_000_000
