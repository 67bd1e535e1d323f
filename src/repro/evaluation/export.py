"""Persistence of experiment results (CSV / JSON) for the benchmark harness.

Every regenerated table/figure is written in three forms under an output
directory: a plain-text rendering (tables and ASCII charts), a CSV of the
underlying series, and a JSON document that round-trips losslessly so that
downstream analysis can re-load past runs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from repro.evaluation.reporting import render_series
from repro.exceptions import ConfigurationError

SeriesType = dict[str, dict[str, dict[float, float]]]


def _encode_x(x: float) -> str:
    return "inf" if isinstance(x, float) and math.isinf(x) else repr(float(x))


def _decode_x(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def series_to_json(series: SeriesType, path: str | Path, metadata: dict | None = None) -> Path:
    """Write nested figure series (plus optional metadata) to a JSON file."""
    path = Path(path)
    payload = {
        "metadata": metadata or {},
        "series": {
            dataset: {
                method: {_encode_x(x): float(y) for x, y in curve.items()}
                for method, curve in methods.items()
            }
            for dataset, methods in series.items()
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def series_from_json(path: str | Path) -> tuple[SeriesType, dict]:
    """Load figure series written by :func:`series_to_json`; returns (series, metadata)."""
    path = Path(path)
    payload = json.loads(path.read_text())
    if "series" not in payload:
        raise ConfigurationError(f"{path} does not look like an exported series file")
    series: SeriesType = {
        dataset: {
            method: {_decode_x(x): float(y) for x, y in curve.items()}
            for method, curve in methods.items()
        }
        for dataset, methods in payload["series"].items()
    }
    return series, payload.get("metadata", {})


def series_to_csv(series: SeriesType, path: str | Path) -> Path:
    """Write figure series as long-format CSV with columns dataset,method,x,y."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["dataset", "method", "x", "y"])
        for dataset, methods in series.items():
            for method, curve in methods.items():
                for x, y in sorted(curve.items()):
                    writer.writerow([dataset, method, _encode_x(x), f"{float(y):.6f}"])
    return path


def series_from_csv(path: str | Path) -> SeriesType:
    """Load long-format CSV written by :func:`series_to_csv`."""
    path = Path(path)
    series: SeriesType = {}
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"dataset", "method", "x", "y"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ConfigurationError(f"{path} is missing the columns {sorted(required)}")
        for row in reader:
            series.setdefault(row["dataset"], {}).setdefault(row["method"], {})[
                _decode_x(row["x"])
            ] = float(row["y"])
    return series


def export_figure(series: SeriesType, directory: str | Path, name: str,
                  title: str | None = None, metadata: dict | None = None,
                  charts: bool = True) -> dict[str, Path]:
    """Write text, CSV and JSON renderings of a figure under ``directory``.

    Returns the mapping ``{"text": ..., "csv": ..., "json": ...}`` of written
    paths.
    """
    if not name:
        raise ConfigurationError("name must be non-empty")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    text = render_series(series, title=title or name)
    if charts:
        from repro.evaluation.plots import render_figure_charts

        text += "\n\n" + render_figure_charts(series, title=f"{title or name} (chart)")
    text_path = directory / f"{name}.txt"
    text_path.write_text(text + "\n")
    return {
        "text": text_path,
        "csv": series_to_csv(series, directory / f"{name}.csv"),
        "json": series_to_json(series, directory / f"{name}.json", metadata=metadata),
    }
