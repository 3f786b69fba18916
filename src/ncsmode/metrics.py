"""Comparison statistics over recorded trials.

Mode detection error percentage compares estimated and true modes at the
same mode time. State RMSE uses squared residuals (root mean square in the
usual sense) on the physical state components. Failed trials are excluded
from every mean and reported as a count, never imputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EstimatorStats",
    "MetricsSummary",
    "mde_percent",
    "rmse",
    "histogram_edges",
    "aggregate",
]


def mde_percent(true_modes, est_modes) -> float:
    """Percentage of steps whose estimated mode differs from the true one."""
    true_modes = np.asarray(true_modes)
    est_modes = np.asarray(est_modes)
    if true_modes.shape != est_modes.shape or true_modes.ndim != 1:
        raise ValueError(
            f"mode sequences must be equal-length vectors, got "
            f"{true_modes.shape} and {est_modes.shape}"
        )
    if true_modes.shape[0] < 1:
        raise ValueError("mode sequences must not be empty")
    return 100.0 * np.count_nonzero(true_modes != est_modes) / true_modes.shape[0]


def rmse(true_states, est_states, i: int) -> float:
    """Root mean square error of state component i (0-based)."""
    true_states = np.asarray(true_states, dtype=float)
    est_states = np.asarray(est_states, dtype=float)
    if true_states.shape != est_states.shape or true_states.ndim != 2:
        raise ValueError(
            f"state sequences must be equal-shape (steps, n) arrays, got "
            f"{true_states.shape} and {est_states.shape}"
        )
    if not 0 <= i < true_states.shape[1]:
        raise ValueError(f"state index {i} outside 0..{true_states.shape[1] - 1}")
    diff = true_states[:, i] - est_states[:, i]
    return float(np.sqrt(np.mean(diff * diff)))


def _check_bin_width(bin_width: float, name: str = "bin width") -> None:
    if not 0.0 < bin_width <= 100.0:  # NaN fails too
        raise ValueError(f"{name} must be in (0, 100], got {bin_width}")
    if bin_width < 0.01:
        raise ValueError(f"{name} must be at least 0.01 (10000 bins), got {bin_width}")


def histogram_edges(bin_width: float) -> np.ndarray:
    """Bin edges partitioning [0, 100] exactly, last bin closed at 100."""
    _check_bin_width(bin_width)
    edges = np.arange(0.0, 100.0, bin_width)
    # a width of 100 / k can leave an edge at 100 or a rounding below it,
    # which would close a bin of (nearly) zero width
    if 100.0 - edges[-1] <= 1e-9 * bin_width:
        edges = edges[:-1]
    return np.append(edges, 100.0)


@dataclass
class EstimatorStats:
    """Cross-trial statistics for one estimator."""

    mean_mde: float
    mean_rmse: np.ndarray
    mde_per_trial: np.ndarray
    hist_counts: np.ndarray

    def to_dict(self) -> dict:
        return {
            "mean_mde_percent": self.mean_mde,
            "mean_rmse": self.mean_rmse.tolist(),
            "mde_histogram_counts": self.hist_counts.tolist(),
        }


@dataclass
class MetricsSummary:
    """Per-estimator means plus the detection-error histograms."""

    n_trials: int
    n_failures: int
    bin_width: float
    bin_edges: np.ndarray
    estimators: dict[str, EstimatorStats]

    def to_dict(self) -> dict:
        return {
            "trials": self.n_trials,
            "failures": self.n_failures,
            "histogram_bin_width": self.bin_width,
            "histogram_bin_edges": self.bin_edges.tolist(),
            "estimators": {k: v.to_dict() for k, v in self.estimators.items()},
        }

    def format_table(self) -> str:
        """Human-readable comparison table, one column per estimator."""
        names = list(self.estimators)
        n_states = len(next(iter(self.estimators.values())).mean_rmse) if names else 0
        rows = [["criterion"] + names]
        rows.append(
            ["mean %MDE"] + [f"{self.estimators[n].mean_mde:.4g}" for n in names]
        )
        for i in range(n_states):
            rows.append(
                [f"mean RMSE_{i + 1}"]
                + [f"{self.estimators[n].mean_rmse[i]:.4g}" for n in names]
            )
        widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
        lines = [
            "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        lines.append(f"trials: {self.n_trials}  failed: {self.n_failures}")
        return "\n".join(lines)


def aggregate(records, bin_width: float = 2.0) -> MetricsSummary:
    """Cross-trial means and histograms, in fixed trial order.

    The fold over trials always runs in the order given, so the floating
    result is bit-stable for a given record set regardless of how the
    trials were produced.
    """
    records = list(records)
    successes = [rec for rec in records if not rec.failed]
    failures = len(records) - len(successes)
    if not successes:
        raise ValueError("no successful trials to aggregate")
    names = successes[0].estimators
    n_states = successes[0].true_states.shape[1]
    edges = histogram_edges(bin_width)

    stats: dict[str, EstimatorStats] = {}
    for name in names:
        mdes = np.array(
            [mde_percent(rec.true_modes, rec.est_modes[name]) for rec in successes]
        )
        rmses = np.array(
            [
                [rmse(rec.true_states[1:], rec.est_states[name], i) for i in range(n_states)]
                for rec in successes
            ]
        )
        counts, _ = np.histogram(mdes, bins=edges)
        stats[name] = EstimatorStats(
            mean_mde=float(mdes.mean()),
            mean_rmse=rmses.mean(axis=0),
            mde_per_trial=mdes,
            hist_counts=counts,
        )
    return MetricsSummary(
        n_trials=len(records),
        n_failures=failures,
        bin_width=bin_width,
        bin_edges=edges,
        estimators=stats,
    )
