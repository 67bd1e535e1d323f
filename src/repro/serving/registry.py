"""A content-addressed, filesystem-backed model registry.

The paper's end product is a *released* model: after Theorem 1 has been paid
for, Θ_priv plus the public encoder is just data and can be shipped freely.
The registry turns that release into an operable artefact:

.. code-block:: text

    registry_root/
      models/<name>/<digest16>/model.npz       the save_gcon release archive
      models/<name>/<digest16>/manifest.json   privacy stamp + serving config
      models/<name>/latest.json                pointer to the newest version

Versions are addressed by the sha256 of the release content
(:func:`repro.core.persistence.release_digest` — array names, dtypes, shapes
and bytes, independent of archive metadata), following the same hashing
conventions as the :class:`~repro.core.persistence.PreparationStore`.
Publishing the identical model twice never rewrites its bundle; two
different releases under one name coexist as two versions, and ``latest``
always points at the most recent *publish* (re-publishing an old version
is therefore an explicit rollback).

All writes are atomic (temp file + rename, via
:func:`~repro.core.persistence.atomic_savez` and
:func:`~repro.utils.fs.atomic_write_text`), and the manifest is written
*after* the archive so a crash never leaves a resolvable-but-torn version:
readers only see versions whose manifest exists.

A :class:`RegistryWatcher` polls the ``latest.json`` pointers a server
serves from and hot-reloads a flipped version (``repro serve
--reload-interval``).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.inference import INFERENCE_MODES
from repro.core.persistence import (
    atomic_savez,
    load_gcon,
    release_arrays,
    release_digest,
)
from repro.exceptions import ConfigurationError
from repro.utils.fs import atomic_write_text

MANIFEST_FORMAT_VERSION = 1
_DIGEST_DIR_CHARS = 16


def parse_model_ref(ref: str) -> tuple[str, str]:
    """Split ``"name"``, ``"name@latest"`` or ``"name@<digest-prefix>"``.

    Returns ``(name, version)`` where ``version`` is ``"latest"`` or a
    lowercase hex digest prefix.
    """
    ref = ref.strip()
    if not ref:
        raise ConfigurationError("empty model reference")
    name, _, version = ref.partition("@")
    name = name.strip()
    version = version.strip() or "latest"
    if not name:
        raise ConfigurationError(f"model reference {ref!r} has no name")
    if version != "latest":
        version = version.lower()
        if not all(c in "0123456789abcdef" for c in version):
            raise ConfigurationError(
                f"model version {version!r} is neither 'latest' nor a hex digest prefix")
    return name, version


@dataclass(frozen=True)
class ModelRecord:
    """One resolved registry version: where it lives and what it claims."""

    name: str
    digest: str
    path: Path          # the version directory
    manifest: dict

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.digest[:12]}"

    @property
    def archive_path(self) -> Path:
        return self.path / "model.npz"

    @property
    def epsilon(self) -> float:
        return float(self.manifest["privacy"]["epsilon"])

    @property
    def inference_mode(self) -> str:
        return str(self.manifest["inference"]["mode"])


class ModelRegistry:
    """Publish, resolve, list and verify released models under one root."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    # -- layout --------------------------------------------------------- #
    @property
    def models_dir(self) -> Path:
        return self.root / "models"

    def name_dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ConfigurationError(f"invalid model name {name!r}")
        return self.models_dir / name

    def version_dir(self, name: str, digest: str) -> Path:
        return self.name_dir(name) / digest[:_DIGEST_DIR_CHARS]

    def latest_path(self, name: str) -> Path:
        return self.name_dir(name) / "latest.json"

    # ------------------------------------------------------------------ #
    # publish
    # ------------------------------------------------------------------ #
    def publish(self, model, name: str, *, inference_mode: str = "private",
                training: dict | None = None) -> ModelRecord:
        """Write ``model`` (a fitted GCON) as a versioned bundle under ``name``.

        ``inference_mode`` is stamped into the manifest as the mode the server
        uses by default (Eq. 16 private vs Eq. 11 public); ``training``
        carries provenance metadata (dataset preset, scale, seeds, sweep
        context digest, recorded micro-F1 — anything JSON-serialisable).
        Returns the :class:`ModelRecord`.  Publishing bitwise-identical
        content twice returns the existing version without rewriting its
        bundle — but ``latest`` always re-points at what was just published,
        so re-publishing an old version is the explicit rollback mechanism,
        not a silent no-op.
        """
        if inference_mode not in INFERENCE_MODES:
            raise ConfigurationError(
                f"inference_mode must be one of {INFERENCE_MODES}, got {inference_mode!r}")
        arrays = release_arrays(model)
        digest = release_digest(arrays)
        version_dir = self.version_dir(name, digest)
        manifest_path = version_dir / "manifest.json"
        if manifest_path.exists():
            record = self._read_record(name, version_dir)
            self._point_latest(name, digest)
            return record

        config = model.config
        perturbation = model.perturbation_
        mechanism = ("none (non-private)" if config.non_private or
                     not perturbation.requires_noise else
                     "objective perturbation (Erlang-radius spherical noise)")
        manifest = {
            "format": MANIFEST_FORMAT_VERSION,
            "name": name,
            "digest": digest,
            "privacy": {
                "epsilon": perturbation.epsilon,
                "delta": perturbation.delta,
                "mechanism": mechanism,
            },
            "inference": {
                "mode": inference_mode,
                "alpha": config.alpha,
                "inference_alpha": config.effective_inference_alpha,
                "propagation_steps": [
                    "inf" if math.isinf(step) else int(step)
                    for step in config.normalized_steps
                ],
                "num_classes": int(model.num_classes_),
            },
            "training": dict(training or {}),
            "created_unix": time.time(),
        }
        atomic_savez(version_dir / "model.npz", arrays)
        atomic_write_text(manifest_path,
                          json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        self._point_latest(name, digest)
        return ModelRecord(name=name, digest=digest, path=version_dir,
                           manifest=manifest)

    def _point_latest(self, name: str, digest: str) -> None:
        atomic_write_text(self.latest_path(name), json.dumps(
            {"digest": digest}, sort_keys=True) + "\n")

    # ------------------------------------------------------------------ #
    # resolve / load
    # ------------------------------------------------------------------ #
    def resolve(self, ref: str) -> ModelRecord:
        """Resolve ``"name"``/``"name@latest"``/``"name@<digest-prefix>"``."""
        name, version = parse_model_ref(ref)
        name_dir = self.name_dir(name)
        if not name_dir.exists():
            raise ConfigurationError(
                f"model {name!r} is not in the registry at {self.root} "
                f"(known: {', '.join(self.names()) or 'none'})")
        if version == "latest":
            latest = self.latest_path(name)
            if not latest.exists():
                raise ConfigurationError(f"model {name!r} has no latest pointer")
            digest = str(json.loads(latest.read_text(encoding="utf-8"))["digest"])
            return self._read_record(name, self.version_dir(name, digest))
        matches = [path for path in sorted(name_dir.iterdir())
                   if path.is_dir() and path.name.startswith(version[:_DIGEST_DIR_CHARS])
                   and (path / "manifest.json").exists()]
        if not matches:
            raise ConfigurationError(f"no version of {name!r} matches {version!r}")
        if len(matches) > 1:
            raise ConfigurationError(
                f"version prefix {version!r} of {name!r} is ambiguous "
                f"({len(matches)} matches); use more digits")
        record = self._read_record(name, matches[0])
        if not record.digest.startswith(version):
            raise ConfigurationError(f"no version of {name!r} matches {version!r}")
        return record

    def load(self, ref: str, *, mmap: bool = False):
        """Load a served model: ``(GCON, ModelRecord)`` for ``ref``.

        With ``mmap=True`` the bundle's arrays are memory-mapped read-only
        (``np.load``-style ``mmap_mode="r"`` semantics, implemented for the
        uncompressed ``.npz`` members the registry writes) instead of
        copied: server cold-start touches no array bytes until inference
        does, and version directories are immutable (content-addressed), so
        a mapped bundle can never change underneath a running session.
        Scores from a mapped model are bitwise identical to an eager load.
        """
        record = self.resolve(ref)
        mode = "r" if mmap else None
        return load_gcon(record.archive_path, mmap_mode=mode), record

    def _read_record(self, name: str, version_dir: Path) -> ModelRecord:
        manifest_path = version_dir / "manifest.json"
        if not manifest_path.exists():
            raise ConfigurationError(
                f"registry version {version_dir} has no manifest "
                f"(torn publish?); republish the model")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        version = int(manifest.get("format", MANIFEST_FORMAT_VERSION))
        if version != MANIFEST_FORMAT_VERSION:
            raise ConfigurationError(f"unsupported manifest format {version}")
        return ModelRecord(name=name, digest=str(manifest["digest"]),
                           path=version_dir, manifest=manifest)

    # ------------------------------------------------------------------ #
    # listing / integrity
    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        """Model names with at least one committed version (sorted).

        A name directory holding only torn publishes (version dirs without a
        manifest) or nothing at all is invisible, matching :meth:`resolve`.
        """
        if not self.models_dir.exists():
            return []
        return sorted(
            path.name for path in self.models_dir.iterdir()
            if path.is_dir() and any(
                child.is_dir() and (child / "manifest.json").exists()
                for child in path.iterdir()))

    def list(self, name: str | None = None) -> list[ModelRecord]:
        """All committed versions (manifest present), newest publish last.

        Ordered by the manifest's ``created_unix`` stamp (digest as the
        tiebreaker), so ``repro models`` shows publish history in publish
        order — not in the hash order the digest-named directories happen
        to sort into lexicographically.
        """
        records: list[ModelRecord] = []
        for model_name in ([name] if name is not None else self.names()):
            name_dir = self.name_dir(model_name)
            if not name_dir.exists():
                continue
            versions = [self._read_record(model_name, version_dir)
                        for version_dir in name_dir.iterdir()
                        if version_dir.is_dir()
                        and (version_dir / "manifest.json").exists()]
            versions.sort(key=lambda record: (
                float(record.manifest.get("created_unix", 0.0)), record.digest))
            records.extend(versions)
        return records

    def verify(self, ref: str) -> ModelRecord:
        """Integrity-check one version: recompute the content digest from the
        stored archive and compare it to the manifest's claim.  Returns the
        record on success and raises :class:`ConfigurationError` on tampering
        or corruption."""
        record = self.resolve(ref)
        try:
            with np.load(record.archive_path, allow_pickle=False) as archive:
                actual = release_digest({key: archive[key] for key in archive.files})
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            raise ConfigurationError(
                f"integrity check failed for {record.ref}: unreadable archive "
                f"({error!r})") from error
        if actual != record.digest:
            raise ConfigurationError(
                f"integrity check failed for {record.ref}: stored archive "
                f"hashes to {actual[:12]}, manifest claims {record.digest[:12]}")
        return record


class RegistryWatcher:
    """Hot-reload: poll ``latest.json`` per served name, pre-warm then retire.

    Each poll resolves every watched name's ``@latest``; on a flip the new
    version's session is built immediately (so the next ``@latest`` request
    hits a warm cache — ``InferenceService`` resolves ``@latest`` per call,
    so traffic switches by itself) and the superseded version's sessions
    and queues are retired afterwards, so a rollout never pays a cold build
    on a live request and ``@latest`` traffic flips with zero downtime.
    """

    def __init__(self, registry: ModelRegistry, service, names, *,
                 interval: float = 1.0):
        self.registry = registry
        self.service = service
        self.names = list(dict.fromkeys(names))
        self.interval = float(interval)
        self._latest: dict[str, str] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.flips = 0
        # Prime with what is currently @latest so startup (the serve command
        # already pre-warmed its models) does not count as a rollout.
        for name in self.names:
            digest = self._current_digest(name)
            if digest is not None:
                self._latest[name] = digest

    def _current_digest(self, name: str) -> str | None:
        try:
            return self.registry.resolve(f"{name}@latest").digest
        except ConfigurationError:
            return None  # not published yet (or torn); check again next poll

    def poll_once(self) -> list[tuple[str, str | None, str]]:
        """One poll pass; returns the ``(name, old, new)`` flips handled."""
        flips = []
        for name in self.names:
            new = self._current_digest(name)
            old = self._latest.get(name)
            if new is None or new == old:
                continue
            # Pre-warm first: the expensive session build happens here, off
            # the request path, while old-version traffic keeps flowing.
            self.service.prewarm(f"{name}@{new}")
            self._latest[name] = new
            if old is not None and old not in self._latest.values():
                self.service.retire_version(old)
            self.flips += 1
            flips.append((name, old, new))
        return flips

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> "RegistryWatcher":
        if self._thread is None:
            self._thread = threading.Thread(target=self._run,
                                            name="registry-watcher",
                                            daemon=True)
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.poll_once()
            except Exception:  # noqa: BLE001 - a torn publish mid-poll must
                pass           # not kill the watcher; next poll retries.

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "RegistryWatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def watch_models(service, refs, **kwargs) -> RegistryWatcher:
    """A watcher over the *names* behind ``refs`` (``name@version`` → name)."""
    names = [parse_model_ref(ref)[0] for ref in refs]
    return RegistryWatcher(service.registry, service, names, **kwargs)
