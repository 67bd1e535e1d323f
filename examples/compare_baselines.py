"""Compare GCON against all seven competitors across privacy budgets (mini Figure 1).

Reproduces a scaled-down row of the paper's Figure 1: micro-F1 of GCON,
DP-SGD, DPGCN, LPGNet, GAP, ProGAP, MLP and the non-private GCN on one
dataset, across several epsilon values.

Run with:  python examples/compare_baselines.py [--dataset cora_ml] [--scale 0.2]
"""

from __future__ import annotations

import argparse

from repro.evaluation.figures import FigureSettings, figure1_accuracy_vs_epsilon
from repro.evaluation.reporting import render_series


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="cora_ml", help="dataset preset name")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--epsilons", type=float, nargs="+", default=[0.5, 1.0, 2.0, 4.0])
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--epochs", type=int, default=100,
                        help="training epochs for the neural baselines")
    args = parser.parse_args()

    settings = FigureSettings(
        scale=args.scale,
        repeats=args.repeats,
        epochs=args.epochs,
        encoder_epochs=max(150, args.epochs),
        datasets=(args.dataset,),
        epsilons=tuple(args.epsilons),
    )
    print(f"Running {len(args.epsilons)} privacy budgets x 8 methods on "
          f"{args.dataset} (scale={args.scale:g}) ...")
    series = figure1_accuracy_vs_epsilon(settings)
    print()
    print(render_series(series, title="Micro-F1 versus privacy budget (mini Figure 1)"))
    print("\nReading guide: GCN (non-DP) is the utility upper bound; MLP ignores all"
          "\nedges and is therefore flat; GCON should dominate the DP competitors and"
          "\napproach the GCN as epsilon grows.")


if __name__ == "__main__":
    main()
