"""The sweep specification a distributed queue is built from.

A :class:`SweepSpec` is the complete, serialisable description of one
``method x dataset x epsilon x repeat`` sweep: the axes plus every numerical
knob that influences the numbers (scale, seeds, epochs, encoder settings,
delta).  It is the unit of submission — the coordinator writes it into the
queue directory once, every worker on every machine reads it back and builds
an identical cell runner from it, so the sweep's numbers cannot depend on
which machine executed which group.

Two digests matter:

* :meth:`SweepSpec.digest` addresses the spec *itself*: one queue directory
  hosts exactly one spec, and resubmitting the same spec is a no-op while
  submitting a different one into the same directory is an error;
* :meth:`SweepSpec.context_digest` is the engine's resume-context fingerprint
  (:func:`repro.runtime.engine.context_digest` over
  :meth:`SweepSpec.resume_context`), stamped into every result record.  It is
  shared with the single-process ``repro sweep`` path, which makes a merged
  distributed store and a single-machine store interchangeable — either can
  resume or verify the other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.runtime.cells import SweepCell, expand_cells
from repro.runtime.engine import context_digest

SPEC_FORMAT_VERSION = 2


def _encode_epsilon(value: float) -> float | str:
    return value if math.isfinite(value) else "inf"


def _decode_epsilon(value) -> float:
    return math.inf if value == "inf" else float(value)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def decode_json_object(text: str, what: str) -> dict:
    """``text`` parsed as a JSON object; anything else raises
    :class:`ConfigurationError` naming ``what`` was being read."""
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise ConfigurationError(f"{what} is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def check_fields(payload: dict, checks: dict, what: str) -> None:
    """Raise :class:`ConfigurationError` unless ``payload`` holds exactly the
    fields of ``checks``, each accepted by its check."""
    unknown = sorted(set(payload) - set(checks))
    if unknown:
        raise ConfigurationError(f"unknown {what} fields: {', '.join(unknown)}")
    missing = sorted(set(checks) - set(payload))
    if missing:
        raise ConfigurationError(f"missing {what} fields: {', '.join(missing)}")
    ill_typed = [name for name, check in checks.items() if not check(payload[name])]
    if ill_typed:
        raise ConfigurationError(f"ill-typed {what} fields: {', '.join(ill_typed)}")


# The JSON value each spec field must hold; from_json rejects any other.
_FIELD_CHECKS = {
    "methods": _strings, "datasets": _strings,
    "epsilons": lambda value: isinstance(value, list) and all(
        _number(eps) or eps == "inf" for eps in value),
    "repeats": _integer, "seed": _integer, "scale": _number,
    "delta": lambda value: value is None or _number(value),
    "epochs": _integer, "encoder_epochs": _integer, "encoder_dim": _integer,
    "encoder_hidden": _integer, "lambda_reg": _number,
    "use_pseudo_labels": lambda value: isinstance(value, bool),
    "inference_mode": lambda value: isinstance(value, str),
}


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to expand, execute and fingerprint one sweep."""

    methods: tuple
    datasets: tuple
    epsilons: tuple
    repeats: int = 1
    seed: int = 0
    scale: float = 0.25
    delta: float | None = None
    epochs: int = 120
    encoder_epochs: int = 150
    encoder_dim: int = 16
    encoder_hidden: int = 64
    lambda_reg: float = 0.2
    use_pseudo_labels: bool = True
    inference_mode: str = "private"

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "epsilons",
                           tuple(float(eps) for eps in self.epsilons))
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")

    @classmethod
    def from_settings(cls, settings, methods, *,
                      delta: float | None = None) -> "SweepSpec":
        """Build a spec from a :class:`FigureSettings` (benchmarks, examples)."""
        if getattr(settings, "extra_gcon", None):
            raise ConfigurationError(
                "FigureSettings.extra_gcon overrides are not representable in "
                "a SweepSpec; distributed sweeps support the standard knobs only")
        return cls(
            methods=tuple(methods), datasets=tuple(settings.datasets),
            epsilons=tuple(settings.epsilons), repeats=settings.repeats,
            seed=settings.seed, scale=settings.scale, delta=delta,
            epochs=settings.epochs, encoder_epochs=settings.encoder_epochs,
            encoder_dim=settings.encoder_dim,
            encoder_hidden=settings.encoder_hidden,
            lambda_reg=settings.lambda_reg,
            use_pseudo_labels=settings.use_pseudo_labels,
        )

    # ------------------------------------------------------------------ #
    # expansion and execution
    # ------------------------------------------------------------------ #
    def expand(self) -> list[SweepCell]:
        """The sweep's cells in canonical serial order (deterministic seeds)."""
        return expand_cells(self.methods, self.datasets, self.epsilons,
                            self.repeats, seed=self.seed)

    def settings(self):
        """The :class:`FigureSettings` every worker rebuilds from this spec."""
        from repro.evaluation.figures import FigureSettings

        return FigureSettings(
            scale=self.scale, repeats=self.repeats, seed=self.seed,
            epochs=self.epochs, encoder_epochs=self.encoder_epochs,
            encoder_dim=self.encoder_dim, encoder_hidden=self.encoder_hidden,
            lambda_reg=self.lambda_reg, use_pseudo_labels=self.use_pseudo_labels,
            datasets=self.datasets, epsilons=self.epsilons,
        )

    def cell_runner(self, preparation_cache: str | None = None):
        """A :class:`FigureCellRunner` configured exactly as ``repro sweep``
        would configure it for these settings (so results are bitwise equal)."""
        from repro.runtime.workers import FigureCellRunner

        return FigureCellRunner(
            settings=self.settings(), inference_mode=self.inference_mode,
            delta=self.delta, preparation_cache=preparation_cache,
        )

    # ------------------------------------------------------------------ #
    # fingerprints
    # ------------------------------------------------------------------ #
    def resume_context(self) -> dict:
        """The engine resume context: identical to what ``repro sweep`` builds."""
        return dict(self.settings().resume_context(), delta=self.delta)

    def context_digest(self) -> str:
        """The fingerprint stamped into every record of this sweep."""
        return context_digest(self.resume_context())

    def digest(self) -> str:
        """Content address of the full spec (axes + every knob)."""
        payload = json.dumps(self._payload(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def _payload(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["methods"] = list(self.methods)
        payload["datasets"] = list(self.datasets)
        payload["epsilons"] = [_encode_epsilon(eps) for eps in self.epsilons]
        payload["format"] = SPEC_FORMAT_VERSION
        return payload

    def to_json(self) -> str:
        return json.dumps(self._payload(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse :meth:`to_json` output; a spec of another format, or one
        that is not a JSON object of exactly this format's fields, each of
        its JSON type, raises :class:`ConfigurationError`."""
        payload = decode_json_object(text, "sweep spec")
        version = payload.pop("format", SPEC_FORMAT_VERSION)
        if version != SPEC_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported sweep spec format {version} "
                f"(expected {SPEC_FORMAT_VERSION})")
        check_fields(payload, _FIELD_CHECKS, "sweep spec")
        payload["epsilons"] = [_decode_epsilon(eps) for eps in payload["epsilons"]]
        return cls(**payload)

    def describe(self) -> str:
        cells = (len(self.methods) * len(self.datasets) * len(self.epsilons)
                 * self.repeats)
        return (f"{len(self.methods)} method(s) x {len(self.datasets)} dataset(s) "
                f"x {len(self.epsilons)} epsilon(s) x {self.repeats} repeat(s) "
                f"= {cells} cells (scale={self.scale:g}, seed={self.seed})")
