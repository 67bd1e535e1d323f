"""Argument-parsing helpers shared across the command modules.

The sweep grid arguments live here because three surfaces (``sweep``,
``dist submit``, ``publish``) must mean exactly the same thing by them:
same defaults, same resume context, same spec fingerprint.
"""

from __future__ import annotations

import argparse
import math


def parse_steps(raw: str) -> tuple:
    """Parse a comma-separated propagation-step list such as ``"1,2,inf"``."""
    steps = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        steps.append(math.inf if token in ("inf", "infinity") else int(token))
    if not steps:
        raise argparse.ArgumentTypeError("at least one propagation step is required")
    return tuple(steps)


def parse_name_list(raw: str) -> list[str]:
    names = [token.strip() for token in raw.split(",") if token.strip()]
    if not names:
        raise argparse.ArgumentTypeError("at least one name is required")
    return names


def parse_float_list(raw: str) -> list[float]:
    try:
        values = [float(token) for token in raw.split(",") if token.strip()]
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    if not values:
        raise argparse.ArgumentTypeError("at least one value is required")
    return values


def add_preparation_cache_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preparation-cache", default=None, dest="preparation_cache", metavar="DIR",
        help="directory of the content-addressed preparation store: fitted "
             "encoder weights and propagated features are cached by "
             "(config, graph, seed), so repeats and resumed sweeps skip the "
             "preparation phase (default: $REPRO_PREPARATION_CACHE when set)")


def add_sweep_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep grid plus every numerical knob, shared by ``sweep`` and
    ``dist submit`` so a distributed spec means exactly what a local sweep
    means (same defaults, same resume context)."""
    parser.add_argument("--datasets", type=parse_name_list, default=["cora_ml"],
                        help="comma-separated dataset presets")
    parser.add_argument("--methods", type=parse_name_list, default=None,
                        help="comma-separated method names (default: all registered)")
    parser.add_argument("--epsilons", type=parse_float_list,
                        default=[0.5, 1.0, 2.0, 3.0, 4.0],
                        help="comma-separated privacy budgets")
    parser.add_argument("--repeats", type=int, default=1,
                        help="independent repeats per cell")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="dataset down-scaling factor (1.0 = paper size)")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--delta", type=float, default=None,
                        help="privacy parameter delta (default: 1/|E| per graph)")
    parser.add_argument("--epochs", type=int, default=120,
                        help="training epochs of the non-convex baselines")
    parser.add_argument("--encoder-epochs", type=int, default=150, dest="encoder_epochs",
                        help="GCON public-encoder training epochs")


def add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="cora_ml",
                        help="dataset preset name (see 'datasets' sub-command)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="down-scaling factor of the synthetic preset (1.0 = paper size)")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")


def add_gcon_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=1.0, help="privacy budget epsilon")
    parser.add_argument("--delta", type=float, default=None,
                        help="privacy parameter delta (default: 1/|E|)")
    parser.add_argument("--alpha", type=float, default=0.8, help="restart probability")
    parser.add_argument("--steps", type=parse_steps, default=(2,),
                        help="comma-separated propagation steps, e.g. '2' or '1,2,inf'")
    parser.add_argument("--loss", choices=("soft_margin", "pseudo_huber"),
                        default="soft_margin", help="convex per-class loss")
    parser.add_argument("--lambda-reg", type=float, default=0.2, dest="lambda_reg",
                        help="regularisation coefficient Lambda")
    parser.add_argument("--encoder-dim", type=int, default=16, dest="encoder_dim",
                        help="encoder output dimension d1")
    parser.add_argument("--pseudo-labels", action="store_true", dest="pseudo_labels",
                        help="expand the training set with encoder pseudo-labels (n1 = n)")
    parser.add_argument("--inference-mode", choices=("private", "public"),
                        default="private", help="Algorithm-4 inference mode")


def load_graph(args):
    from repro.graphs.datasets import load_dataset

    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


def build_gcon(args, graph):
    from repro.core.config import GCONConfig
    from repro.core.model import GCON

    config = GCONConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        alpha=args.alpha,
        propagation_steps=args.steps,
        loss=args.loss,
        lambda_reg=args.lambda_reg,
        encoder_dim=args.encoder_dim,
        use_pseudo_labels=args.pseudo_labels,
    )
    return GCON(config)


def resolve_sweep_names(args) -> tuple[list[str] | None, str | None]:
    """Validate --methods/--datasets; returns (methods, error message)."""
    from repro.evaluation.figures import FigureSettings, build_method_registry
    from repro.graphs.datasets import list_datasets

    registry = build_method_registry(FigureSettings())
    methods = args.methods if args.methods is not None else list(registry)
    unknown = [name for name in methods if name not in registry]
    if unknown:
        return None, (f"unknown methods: {', '.join(unknown)} "
                      f"(available: {', '.join(registry)})")
    known_datasets = list_datasets()
    unknown = [name for name in args.datasets if name not in known_datasets]
    if unknown:
        return None, (f"unknown datasets: {', '.join(unknown)} "
                      f"(available: {', '.join(known_datasets)})")
    return methods, None


def sweep_spec_from_args(args, methods: list[str]):
    """The distributed :class:`SweepSpec` equivalent of this ``sweep`` run."""
    from repro.distributed import SweepSpec

    return SweepSpec(
        methods=tuple(methods), datasets=tuple(args.datasets),
        epsilons=tuple(args.epsilons), repeats=args.repeats, seed=args.seed,
        scale=args.scale, delta=args.delta, epochs=args.epochs,
        encoder_epochs=args.encoder_epochs,
    )
