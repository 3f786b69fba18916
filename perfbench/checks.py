"""Correctness oracles of the benchmark, written apart from the package.

Nothing here imports ``ncsmode``: every check recomputes what the program
reports from the plant description, the link chains and the signals the
program wrote, using only numpy and direct loops. Each check returns a list
of problems (empty when the output is consistent), so one run can report
every mismatch it saw.

Signal tables follow the per-step CSV layout of ``ncsmode run
--emit-steps``: row k (k = 1..N) holds the mode of step k-1, the state
x_k, the input u_k issued at step k and the output y_k.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Paper values of the cstr5 experiment (two-state reactor, two links, hold).
CSTR5_LINK = [[0.8, 0.2], [0.4, 0.6]]
CSTR5 = {
    "A": [[-0.8882, -0.0097], [293.8556, 2.2973]],
    "B": [[0.011, -0.0014], [-0.3602, 0.4732]],
    "C": [[1.0, 0.0], [0.0, 1.0]],
    "R": [[2.5e-3, 0.0], [0.0, 2.5e-3]],
    "strategy": "hold",
    "links": [CSTR5_LINK, CSTR5_LINK],
}

# Bands and orderings of the package's acceptance criteria 1 and 2.
MDE_BANDS = {"alg1": (3.0, 12.0), "imm": (4.0, 14.0), "alg2": (6.0, 25.0)}
IMM_RMSE1_MAX = 0.05

# Relative tolerance of a one-step state recomputation (exact up to
# rounding, since Q = 0) and of recomputed metrics against metrics.json.
STATE_RTOL = 1e-9
METRIC_RTOL = 1e-12
# Width, in standard deviations, of the statistical bands on signals, and
# the slack, in standard errors, of the acceptance bands and orderings.
SIGMAS = 6.0
ACCEPT_SIGMAS = 4.0


def link_bits(j: int, r: int) -> list[int]:
    """Delivery flags of 1-based mode j: link i is bit i-1 of j-1."""
    return [((j - 1) >> i) & 1 for i in range(r)]


def joint_chain(links) -> np.ndarray:
    """Joint mode transition matrix as the product of per-link chances."""
    r = len(links)
    s = 1 << r
    P = np.ones((s, s))
    for i in range(1, s + 1):
        bi = link_bits(i, r)
        for j in range(1, s + 1):
            bj = link_bits(j, r)
            for link, a, b in zip(links, bi, bj):
                P[i - 1, j - 1] *= link[a][b]
    return P


def link_stationary(link) -> tuple[float, float]:
    """Stationary (lost, delivered) chances of a two-state link chain."""
    to_del = link[0][1]
    to_lost = link[1][0]
    return to_lost / (to_del + to_lost), to_del / (to_del + to_lost)


def guess_mode(links) -> int:
    """Mode with the largest stationary chance: each link at its likelier
    state (lost on a tie)."""
    mode = 1
    for i, link in enumerate(links):
        lost, delivered = link_stationary(link)
        if delivered > lost:
            mode += 1 << i
    return mode


def guess_mde_closed_form(links) -> float:
    """%MDE of always answering the guess mode, at stationarity:
    100 (1 - prod_i max(pi_lost_i, pi_del_i)); 100 (1 - (2/3)^r) for the
    cstr5 link chain."""
    hit = 1.0
    for link in links:
        hit *= max(link_stationary(link))
    return 100.0 * (1.0 - hit)


def mde(true_modes, est_modes) -> float:
    true_modes = np.asarray(true_modes)
    return 100.0 * float(np.count_nonzero(true_modes != np.asarray(est_modes))) / len(true_modes)


def read_step_csv(path) -> dict:
    """Parse a per-step trial CSV into named columns (ints for modes)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    table = {}
    for c, name in enumerate(header):
        col = [row[c] for row in body]
        if name == "k" or name.startswith("theta") or name == "fallback_flags":
            table[name] = np.array([int(v) for v in col])
        else:
            table[name] = np.array([float(v) for v in col])
    return table


def columns(table: dict, prefix: str, count: int, suffix: str = "") -> np.ndarray:
    """Stack columns prefix1suffix..prefix<count>suffix into an (N, count) array."""
    return np.column_stack([table[f"{prefix}{i + 1}{suffix}"] for i in range(count)])


def check_truth(table: dict, plant: dict) -> list[str]:
    """Rebuild each state from the previous one, the recorded mode and the
    issued input: x_{k+1} = A x_k + B u'_k, exact since Q = 0.

    u'_k = G(theta_k) u_k under the zero strategy and
    G(theta_k) u_k + (I - G(theta_k)) u'_{k-1} under hold, where G selects
    the delivered channels. The table starts at k = 1, so a held channel is
    unknown until it first delivers; steps that need an unknown value are
    skipped.
    """
    A = np.asarray(plant["A"], dtype=float)
    B = np.asarray(plant["B"], dtype=float)
    n, r = B.shape
    hold = plant["strategy"] == "hold"
    x = columns(table, "x", n)
    u = columns(table, "u", r)
    modes = table["theta_true"]  # row k holds theta_{k-1}
    applied = np.full(r, np.nan)
    worst = 0.0
    checked = 0
    for k in range(len(modes) - 1):  # row index k is step k+1
        gam = np.array(link_bits(int(modes[k + 1]), r), dtype=float)
        if hold:
            applied = np.where(gam == 1.0, u[k], applied)
        else:
            applied = gam * u[k]
        if np.isnan(applied).any():
            continue
        pred = A @ x[k] + B @ applied
        scale = 1.0 + np.abs(A) @ np.abs(x[k]) + np.abs(B) @ np.abs(applied)
        worst = max(worst, float(np.max(np.abs(pred - x[k + 1]) / scale)))
        checked += 1
    problems = []
    if checked < (len(modes) - 1) // 2:
        problems.append(f"truth: only {checked} of {len(modes) - 1} steps checkable")
    if worst > STATE_RTOL:
        problems.append(f"truth: state recomputation off by {worst:.3g} (relative)")
    return problems


def noise_residuals(table: dict, plant: dict) -> np.ndarray:
    C = np.asarray(plant["C"], dtype=float)
    m, n = C.shape
    return columns(table, "y", m) - columns(table, "x", n) @ C.T


def check_noise(residuals: np.ndarray, R) -> list[str]:
    """Output residuals y - Cx must be zero-mean with covariance R: the mean
    normalised square is m within its chi-square spread, and each channel's
    mean is zero within its spread."""
    R = np.asarray(R, dtype=float)
    count, m = residuals.shape
    white = np.linalg.solve(np.linalg.cholesky(R), residuals.T).T
    nis = float(np.mean(np.sum(white * white, axis=1)))
    problems = []
    if abs(nis - m) > SIGMAS * math.sqrt(2.0 * m / count):
        problems.append(f"noise: mean normalised residual square {nis:.4f}, expected {m}")
    means = white.mean(axis=0)
    if np.any(np.abs(means) > SIGMAS / math.sqrt(count)):
        problems.append(f"noise: residual means {means} are not zero")
    return problems


def transition_counts(modes, s: int) -> np.ndarray:
    counts = np.zeros((s, s), dtype=np.int64)
    np.add.at(counts, (np.asarray(modes[:-1]) - 1, np.asarray(modes[1:]) - 1), 1)
    return counts


def check_transitions(counts: np.ndarray, P: np.ndarray) -> list[str]:
    """Mode transition frequencies must follow the chain: no transition the
    chain forbids, and every count within its binomial spread (plus one, for
    rows with few visits)."""
    problems = []
    forbidden = int(counts[P == 0.0].sum())
    if forbidden:
        problems.append(f"chain: {forbidden} transitions the chain forbids")
    visits = counts.sum(axis=1, keepdims=True)
    expected = visits * P
    spread = SIGMAS * np.sqrt(expected * (1.0 - P)) + 1.0
    bad = np.argwhere(np.abs(counts - expected) > spread)
    if len(bad):
        i, j = bad[0]
        problems.append(
            f"chain: {len(bad)} transition counts off, e.g. {i + 1}->{j + 1}: "
            f"{counts[i, j]} seen, {expected[i, j]:.1f} expected"
        )
    return problems


def check_guess_rate(guess_mdes, steps: int, links) -> list[str]:
    """The pooled %MDE of the data-free guess must match its closed form.

    Modes are correlated in time, so the binomial variance is inflated by a
    generous factor of 5."""
    count = len(guess_mdes) * steps
    seen = float(np.mean(guess_mdes))
    want = guess_mde_closed_form(links)
    p = want / 100.0
    spread = 100.0 * SIGMAS * math.sqrt(5.0 * p * (1.0 - p) / count)
    if abs(seen - want) > spread:
        return [f"guess: pooled %MDE {seen:.2f}, closed form {want:.2f} +- {spread:.2f}"]
    return []


def trial_metrics(table: dict, names, n: int) -> dict:
    """Per-estimator %MDE and per-state RMSE of one trial."""
    x = columns(table, "x", n)
    out = {}
    for name in names:
        err = x - columns(table, "xhat", n, f"_{name}")
        out[name] = (
            mde(table["theta_true"], table[f"theta_hat_{name}"]),
            np.sqrt(np.mean(err * err, axis=0)),
        )
    return out


def check_metrics_json(per_trial: list[dict], summary: dict, names, trials: int) -> list[str]:
    """Recompute mean %MDE, mean RMSE and the %MDE histogram from the step
    CSVs and compare them with metrics.json."""
    problems = []
    ok = len(per_trial)
    if summary.get("trials") != trials or summary.get("failures") != trials - ok:
        problems.append(
            f"metrics: trials/failures {summary.get('trials')}/{summary.get('failures')}, "
            f"expected {trials}/{trials - ok}"
        )
    width = float(summary["histogram_bin_width"])
    nbins = math.ceil(100.0 / width - 1e-9)
    for name in names:
        got = summary["estimators"][name]
        mdes = [t[name][0] for t in per_trial]
        mean_mde = sum(mdes) / ok
        mean_rmse = sum(t[name][1] for t in per_trial) / ok
        if not math.isclose(got["mean_mde_percent"], mean_mde, rel_tol=METRIC_RTOL, abs_tol=1e-12):
            problems.append(f"metrics: {name} mean %MDE {got['mean_mde_percent']} != {mean_mde}")
        if not np.allclose(got["mean_rmse"], mean_rmse, rtol=METRIC_RTOL, atol=0.0):
            problems.append(f"metrics: {name} mean RMSE {got['mean_rmse']} != {mean_rmse.tolist()}")
        hist = [0] * nbins
        for v in mdes:
            hist[min(int(v // width), nbins - 1)] += 1
        if list(got["mde_histogram_counts"]) != hist:
            problems.append(f"metrics: {name} %MDE histogram differs from the recount")
    return problems


def check_acceptance(mdes: dict, rmses: dict) -> list[str]:
    """Bands and orderings of acceptance criteria 1 and 2 on pooled trials.

    ``mdes[name]`` holds per-trial %MDE and ``rmses[name]`` per-trial RMSE
    rows. The package's acceptance test pins one seed; a benchmark run pools
    whatever seed it was given, so each comparison allows ``ACCEPT_SIGMAS``
    standard errors of its pooled mean (of the paired difference, for an
    ordering). At 100 trials the closest margins of correct code are about
    2 standard errors inside a band and 3 on the right side of an ordering.
    """

    def mean_se(values):
        values = np.asarray(values, dtype=float)
        return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))

    def below(a, b):  # a < b, unless the pooled difference is within noise
        mean, se = mean_se(np.asarray(b) - np.asarray(a))
        return mean > -ACCEPT_SIGMAS * se

    problems = []
    for name, (lo, hi) in MDE_BANDS.items():
        mean, se = mean_se(mdes[name])
        if not lo - ACCEPT_SIGMAS * se <= mean <= hi + ACCEPT_SIGMAS * se:
            problems.append(f"acceptance: {name} mean %MDE {mean:.2f} outside [{lo}, {hi}]")
    if not (below(mdes["alg1"], mdes["imm"]) and below(mdes["imm"], mdes["alg2"])):
        problems.append("acceptance: %MDE ordering alg1 < imm < alg2 broken")
    imm, alg1, alg2 = (np.asarray(rmses[k]) for k in ("imm", "alg1", "alg2"))
    for i in range(imm.shape[1]):
        if not (below(imm[:, i], alg1[:, i]) and below(alg1[:, i], alg2[:, i])):
            problems.append(f"acceptance: RMSE ordering imm < alg1 <= alg2 broken on state {i + 1}")
    mean, se = mean_se(imm[:, 0])
    if not mean < IMM_RMSE1_MAX + ACCEPT_SIGMAS * se:
        problems.append(f"acceptance: imm RMSE_1 {mean:.4f} >= {IMM_RMSE1_MAX}")
    return problems


def check_posteriors(posteriors: np.ndarray, modes: np.ndarray, states: np.ndarray) -> list[str]:
    """Online outputs: posteriors are probability vectors, each decision is
    the posterior's first maximum, and states are finite."""
    problems = []
    if not np.all(np.isfinite(posteriors)) or np.any(posteriors < 0.0):
        problems.append("stream: posterior with negative or non-finite entries")
    elif np.max(np.abs(posteriors.sum(axis=1) - 1.0)) > 1e-9:
        problems.append("stream: posterior does not sum to 1")
    elif not np.array_equal(modes, np.argmax(posteriors, axis=1) + 1):
        problems.append("stream: decided mode is not the posterior's maximum")
    if not np.all(np.isfinite(states)):
        problems.append("stream: non-finite state estimate")
    return problems
