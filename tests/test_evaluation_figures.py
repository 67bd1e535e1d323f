"""Smoke tests for the figure-regeneration harness on miniature settings.

These tests keep sizes tiny: their purpose is to ensure every experiment in
DESIGN.md's index can actually be generated end to end; the benchmarks run
the larger, more faithful versions.
"""

import math

from repro.evaluation.figures import (
    FigureSettings,
    attack_auc_vs_epsilon,
    build_method_registry,
    default_gcon_config,
    figure1_accuracy_vs_epsilon,
    figure23_propagation_step,
    figure4_restart_probability,
    table2_dataset_statistics,
)

TINY = FigureSettings(
    scale=0.06,
    repeats=1,
    epochs=25,
    encoder_epochs=40,
    encoder_dim=8,
    encoder_hidden=16,
    datasets=("cora_ml",),
    epsilons=(1.0,),
)


class TestTable2:
    def test_contains_generated_and_reference(self):
        result = table2_dataset_statistics(FigureSettings(scale=0.05, datasets=("cora_ml", "actor")))
        assert {"generated", "reference"} <= set(result)
        assert result["reference"]["cora_ml"]["nodes"] == 2995
        names = {row["name"] for row in result["generated"]}
        assert names == {"cora_ml", "actor"}


class TestMethodRegistry:
    def test_all_eight_methods_present(self):
        registry = build_method_registry(TINY)
        assert set(registry) == {
            "GCON", "DP-SGD", "DPGCN", "LPGNet", "GAP", "ProGAP", "MLP", "GCN (non-DP)",
        }

    def test_gcon_config_overrides(self):
        config = default_gcon_config(2.0, 1e-4, TINY, alpha=0.3)
        assert config.epsilon == 2.0
        assert config.alpha == 0.3
        assert config.encoder_dim == TINY.encoder_dim


class TestFigure1:
    def test_series_structure(self):
        series = figure1_accuracy_vs_epsilon(TINY, methods=["GCON", "MLP"])
        assert set(series) == {"cora_ml"}
        assert set(series["cora_ml"]) == {"GCON", "MLP"}
        for values in series["cora_ml"].values():
            assert set(values) == {1.0}
            assert all(0.0 <= v <= 1.0 for v in values.values())


class TestFigures234:
    def test_propagation_step_series(self):
        series = figure23_propagation_step(TINY, steps=(1, math.inf), alphas=(0.5,), epsilon=4.0)
        values = series["cora_ml"]["alpha=0.5"]
        assert set(values) == {1.0, float("inf")}

    def test_public_mode_supported(self):
        series = figure23_propagation_step(TINY, inference_mode="public", steps=(1,),
                                            alphas=(0.8,), epsilon=4.0)
        assert "cora_ml" in series

    def test_restart_probability_series(self):
        series = figure4_restart_probability(TINY, alphas=(0.2, 0.8), epsilons=(1.0,))
        assert set(series["cora_ml"]) == {"alpha=0.2", "alpha=0.8"}


class TestAttackFigure:
    def test_attack_auc_series(self):
        series = attack_auc_vs_epsilon(TINY, epsilons=(1.0,), num_pairs=60)
        methods = series["cora_ml"]
        assert {"GCON", "GCN (non-DP)"} <= set(methods)
        for values in methods.values():
            for auc in values.values():
                assert 0.0 <= auc <= 1.0
