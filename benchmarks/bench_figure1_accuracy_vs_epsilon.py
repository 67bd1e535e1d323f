"""Figure 1: micro-F1 versus privacy budget for GCON and the seven competitors.

The paper's headline experiment: GCON, DP-SGD, DPGCN, LPGNet, GAP, ProGAP,
MLP and the non-private GCN on each dataset across epsilon in
{0.5, 1, 2, 3, 4}.  By default this benchmark runs a scaled-down grid (one
homophilous and one heterophilous dataset, three budgets); set
``REPRO_BENCH_FULL=1`` for the paper's full grid.

Expected shape: the non-private GCN is the upper bound, adjacency
perturbation (DPGCN) and DP-SGD trail far behind at every budget, GAP/ProGAP
sit in between, and GCON improves monotonically with epsilon, approaching
the non-private GCN at epsilon = 4.
"""

from __future__ import annotations

import os

from benchmarks.conftest import bench_settings, record
from repro.evaluation.figures import figure1_accuracy_vs_epsilon
from repro.evaluation.reporting import render_series


def _default_settings():
    if os.environ.get("REPRO_BENCH_FULL", "0") == "1":
        return bench_settings()
    return bench_settings(datasets=("cora_ml", "actor"), epsilons=(0.5, 1.0, 2.0, 4.0))


def _run(settings):
    return figure1_accuracy_vs_epsilon(settings)


def test_figure1_accuracy_vs_epsilon(benchmark):
    settings = _default_settings()
    series = benchmark.pedantic(_run, args=(settings,), rounds=1, iterations=1)
    record("figure1_accuracy_vs_epsilon",
           render_series(series, title=f"Figure 1 (scale={settings.scale:g}, "
                                       f"repeats={settings.repeats})"))

    homophilous = {"cora_ml", "citeseer", "pubmed"}
    for dataset, methods in series.items():
        assert set(methods) == {
            "GCON", "DP-SGD", "DPGCN", "LPGNet", "GAP", "ProGAP", "MLP", "GCN (non-DP)",
        }
        for values in methods.values():
            assert all(0.0 <= v <= 1.0 for v in values.values())
        epsilons = sorted(methods["GCON"])
        if dataset in homophilous:
            # The robust part of Figure 1's shape at reduced scale: the
            # non-private GCN upper-bounds the adjacency-perturbation baseline
            # at the loosest budget.  (GCON's own curve is checked only for
            # validity here because a single repeat at reduced n1 is noisy;
            # the full-scale shape is the one this module's docstring
            # states.)
            assert methods["GCN (non-DP)"][max(epsilons)] \
                >= methods["DPGCN"][max(epsilons)] - 0.05
