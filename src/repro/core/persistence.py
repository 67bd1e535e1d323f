"""Saving and loading trained GCON releases.

The whole point of the paper is to *release* the trained parameters Θ_priv:
once Theorem 1 has been paid for, the release is just data and can be
post-processed, shipped and reloaded freely without touching the privacy
budget.  This module serialises everything a downstream user needs to run
Algorithm-4 inference — the configuration, the released Θ_priv, the public
feature encoder and the Theorem-1 calibration record — into a single
``.npz`` archive, and restores it into a ready-to-predict :class:`GCON`.

The training graph is deliberately *not* stored: the saved artefact contains
only the DP-protected release plus public quantities, so the file itself is
safe to publish under the same (ε, δ) guarantee.

The module also hosts :class:`PreparationStore`, a content-addressed on-disk
cache of the *epsilon-independent* preparation phase (fitted encoder weights
plus propagated features): the hash of ``(preparation config, graph content,
seed)`` addresses an ``.npz`` bundle, so repeated or resumed sweeps skip
encoder training and propagation entirely and a loaded bundle is bitwise
identical to a cold :meth:`GCON.prepare`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.core.config import GCONConfig
from repro.core.encoder import MLPEncoder, _EncoderNetwork
from repro.core.model import GCON, PreparedInputs
from repro.core.perturbation import PerturbationParameters
from repro.core.propagation import graph_fingerprint
from repro.exceptions import ConfigurationError, NotFittedError
from repro.utils.random import as_rng

_FORMAT_VERSION = 1
_ENCODER_PREFIX = "encoder_param::"
_PREPARATION_FORMAT_VERSION = 1
PREPARATION_CACHE_ENV = "REPRO_PREPARATION_CACHE"


def _config_to_json(config: GCONConfig) -> str:
    payload = dataclasses.asdict(config)
    payload.pop("normalized_steps", None)
    payload["propagation_steps"] = [
        "inf" if value == float("inf") else value for value in config.propagation_steps
    ]
    return json.dumps(payload, sort_keys=True)


def _config_from_json(text: str) -> GCONConfig:
    payload = json.loads(text)
    payload["propagation_steps"] = tuple(payload.get("propagation_steps", (2,)))
    return GCONConfig(**payload)


def release_arrays(model: GCON) -> dict[str, np.ndarray]:
    """The canonical array bundle of a fitted :class:`GCON` release.

    Everything :func:`save_gcon` writes and :func:`load_gcon` reads — the
    released Θ_priv, the public encoder parameters and the JSON-encoded
    configuration/calibration records — as a plain dict, so other writers
    (the model registry of :mod:`repro.serving`) can persist or fingerprint
    the identical content.  Raises :class:`NotFittedError` on unfitted models.
    """
    if model.theta_ is None or model.encoder_ is None or model.perturbation_ is None:
        raise NotFittedError("GCON.fit must be called before saving the model")
    encoder = model.encoder_
    network = encoder._require_fitted()
    arrays: dict[str, np.ndarray] = {
        "theta": model.theta_,
        "format_version": np.array([_FORMAT_VERSION]),
        "num_classes": np.array([model.num_classes_]),
        "config_json": np.array(_config_to_json(model.config)),
        "perturbation_json": np.array(
            json.dumps(dataclasses.asdict(model.perturbation_), sort_keys=True)
        ),
        "encoder_settings_json": np.array(json.dumps({
            "output_dim": encoder.output_dim,
            "hidden_dim": encoder.hidden_dim,
            "epochs": encoder.epochs,
            "learning_rate": encoder.learning_rate,
            "weight_decay": encoder.weight_decay,
            "dropout": encoder.dropout,
        }, sort_keys=True)),
    }
    for name, value in network.state_dict().items():
        arrays[f"{_ENCODER_PREFIX}{name}"] = value
    return arrays


def release_digest(arrays: dict[str, np.ndarray]) -> str:
    """A stable sha256 content address of a release-array bundle.

    Hashes array names, dtypes, shapes and raw bytes in sorted-name order, so
    the digest is invariant to dict ordering and archive metadata (the bytes
    of the ``.npz`` container itself are *not* hashed — zip timestamps would
    make it unstable).  Same convention as the :class:`PreparationStore`
    addresses: flipping any bit of the release flips the digest.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.asarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def atomic_savez(path: str | Path, arrays: dict[str, np.ndarray]) -> Path:
    """Atomically publish an ``.npz`` archive (temp file + rename).

    The ``.npz`` analogue of :func:`repro.utils.fs.atomic_write_text`, shared
    by the preparation store and the model registry so concurrent writers on
    a shared filesystem never expose a torn archive.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(temporary, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(temporary, path)
    finally:
        if temporary.exists():  # pragma: no cover - only on a failed write
            temporary.unlink()
    return path


def _mmap_npz_arrays(path: Path, mmap_mode: str = "r") -> dict[str, np.ndarray]:
    """Memory-map every array member of an *uncompressed* ``.npz`` archive.

    ``np.load(..., mmap_mode=...)`` silently ignores the mmap request for
    ``.npz`` files (the NpzFile reader always copies members into fresh
    arrays), so server cold-start pays one full copy of every model array.
    ``np.savez`` stores members with ``ZIP_STORED`` — raw, contiguous
    ``.npy`` bytes inside the zip — so each array can be mapped in place:
    parse the member's npy header through the zip reader, locate the raw
    payload offset from the zip local-file header, and hand ``np.memmap``
    the exact byte range.  The mapped bytes are the very bytes
    :func:`atomic_savez` wrote, so a mapped array is bitwise identical to
    its eager-loaded twin; raises ``ValueError`` on compressed or
    object-dtype members (callers fall back to the copying loader).
    """
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(
                    f"{path}:{info.filename} is compressed; cannot memory-map")
            with archive.open(info) as member:
                version = np.lib.format.read_magic(member)
                if version == (1, 0):
                    shape, fortran, dtype = \
                        np.lib.format.read_array_header_1_0(member)
                elif version == (2, 0):
                    shape, fortran, dtype = \
                        np.lib.format.read_array_header_2_0(member)
                else:
                    raise ValueError(
                        f"{path}:{info.filename} has npy format {version}; "
                        f"cannot memory-map")
                header_length = member.tell()  # npy payload starts here
            if dtype.hasobject:
                raise ValueError(
                    f"{path}:{info.filename} holds Python objects; "
                    f"cannot memory-map")
            # The zip local-file header length can differ from the central
            # directory's record; read it to find where the member's raw
            # (stored, uncompressed) bytes begin in the archive file.
            raw.seek(info.header_offset)
            local = raw.read(30)
            if len(local) != 30 or local[:4] != b"PK\x03\x04":
                raise ValueError(
                    f"{path}:{info.filename} has a malformed local header")
            name_length = int.from_bytes(local[26:28], "little")
            extra_length = int.from_bytes(local[28:30], "little")
            payload = info.header_offset + 30 + name_length + extra_length
            name = (info.filename[:-4] if info.filename.endswith(".npy")
                    else info.filename)
            arrays[name] = np.memmap(path, dtype=dtype, mode=mmap_mode,
                                     offset=payload + header_length,
                                     shape=shape,
                                     order="F" if fortran else "C")
    return arrays


def load_release_arrays(path: str | Path,
                        mmap_mode: str | None = None) -> dict[str, np.ndarray]:
    """Read an ``.npz`` archive back as ``{name: array}``.

    With ``mmap_mode`` (typically ``"r"``), arrays are :class:`np.memmap`
    views onto the file — the zero-copy cold-start path the serving registry
    uses — and are bitwise identical to the eager copies ``np.load`` makes.
    """
    path = Path(path)
    if mmap_mode is not None:
        return _mmap_npz_arrays(path, mmap_mode)
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def save_gcon(model: GCON, path: str | Path) -> Path:
    """Serialise a fitted :class:`GCON` (release + public encoder) to ``path``.

    The file is a numpy ``.npz`` archive; the ``.npz`` suffix is appended if
    missing.  Raises :class:`NotFittedError` if the model has not been fitted.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays = release_arrays(model)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def _as_float64(value: np.ndarray) -> np.ndarray:
    """Ensure float64 without destroying a memmap: a mapped float64 array is
    returned untouched (the zero-copy point of ``mmap_mode``); anything else
    is converted the way ``np.asarray(..., dtype=np.float64)`` would."""
    if value.dtype == np.float64:
        return value
    return np.asarray(value, dtype=np.float64)


def load_gcon(path: str | Path, mmap_mode: str | None = None) -> GCON:
    """Restore a :class:`GCON` previously written by :func:`save_gcon`.

    The returned model is ready for Algorithm-4 inference via
    ``predict(graph, mode=...)``; a graph must be supplied explicitly because
    the (private) training graph is never stored in the release file.

    With ``mmap_mode="r"`` the release arrays (Θ_priv and the encoder
    parameters) are memory-mapped read-only instead of copied — the serving
    registry's cold-start path — and every downstream score is bitwise
    identical to the eager load (pinned by ``tests/test_serving_registry.py``).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"model file {path} does not exist")
    arrays = load_release_arrays(path, mmap_mode)
    if "format_version" not in arrays or "theta" not in arrays:
        raise ConfigurationError(f"{path} is not a saved GCON release")
    version = int(arrays["format_version"][0])
    if version != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported GCON release format {version} (expected {_FORMAT_VERSION})"
        )
    config = _config_from_json(str(arrays["config_json"]))
    perturbation = PerturbationParameters(**json.loads(str(arrays["perturbation_json"])))
    encoder_settings = json.loads(str(arrays["encoder_settings_json"]))
    theta = _as_float64(arrays["theta"])
    num_classes = int(arrays["num_classes"][0])
    encoder_state = {
        key[len(_ENCODER_PREFIX):]: _as_float64(arrays[key])
        for key in arrays if key.startswith(_ENCODER_PREFIX)
    }

    encoder = MLPEncoder(
        output_dim=int(encoder_settings["output_dim"]),
        hidden_dim=int(encoder_settings["hidden_dim"]),
        epochs=int(encoder_settings["epochs"]),
        learning_rate=float(encoder_settings["learning_rate"]),
        weight_decay=float(encoder_settings["weight_decay"]),
        dropout=float(encoder_settings["dropout"]),
        seed=0,
    )
    encoder._network = _rebuild_encoder_network(encoder, encoder_state, num_classes)

    model = GCON(config)
    model.theta_ = theta
    model.perturbation_ = perturbation
    model.encoder_ = encoder
    model.num_classes_ = num_classes
    return model


# --------------------------------------------------------------------------- #
# content-addressed preparation cache
# --------------------------------------------------------------------------- #
def dataset_fingerprint(graph) -> str:
    """A stable content hash of everything the preparation phase reads.

    :func:`~repro.core.propagation.graph_fingerprint` covers only the
    adjacency; the encoder additionally consumes features, labels and the
    training split, so the preparation cache must key on all four — two
    graphs sharing an edge set but differing in features must not collide.
    """
    digest = hashlib.sha256()
    digest.update(graph_fingerprint(graph.adjacency).encode())
    features = np.ascontiguousarray(np.asarray(graph.features, dtype=np.float64))
    digest.update(str(features.shape).encode())
    digest.update(features.tobytes())
    digest.update(np.ascontiguousarray(np.asarray(graph.labels, dtype=np.int64)).tobytes())
    digest.update(np.ascontiguousarray(np.asarray(graph.train_idx, dtype=np.int64)).tobytes())
    return digest.hexdigest()


class PreparationStore:
    """Content-addressed on-disk cache of :class:`PreparedInputs` bundles.

    The address is ``sha256(preparation config ‖ graph content ‖ seed)``:

    * the *preparation key* of the configuration — every knob that influences
      Lines 1-7 of Algorithm 1 (alpha, propagation steps, encoder and
      pseudo-label settings) and nothing that does not (epsilon, delta,
      solver settings);
    * the full graph content (:func:`dataset_fingerprint`);
    * the integer master seed of the cell.

    Flipping any of the three yields a different address (a cache miss); a
    hit returns encoder weights and propagated features bitwise identical to
    the cold :meth:`GCON.prepare` that produced them, so enabling the store
    never changes results.  Writes are atomic (temp file + rename), so
    concurrent sweep workers may share one store directory; a corrupt or
    half-written bundle is treated as a miss and rewritten.

    Set the ``REPRO_PREPARATION_CACHE`` environment variable to a directory
    path to enable a store for the sweep workers (see :meth:`from_env`).
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.stats = {"hits": 0, "misses": 0}

    @classmethod
    def from_env(cls, environ=None) -> "PreparationStore | None":
        """A store rooted at ``$REPRO_PREPARATION_CACHE``, or ``None`` if unset."""
        environ = os.environ if environ is None else environ
        root = environ.get(PREPARATION_CACHE_ENV, "").strip()
        if not root or root == "0":
            return None
        return cls(root)

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #
    @staticmethod
    def preparation_address(config: GCONConfig, graph, seed: int) -> str:
        """The content address of ``(config's preparation key, graph, seed)``."""
        payload = json.dumps({
            "format": _PREPARATION_FORMAT_VERSION,
            "preparation_key": config.preparation_key(),
            "graph": dataset_fingerprint(graph),
            "seed": int(seed),
        }, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, address: str) -> Path:
        return self.root / f"prep-{address[:32]}.npz"

    # ------------------------------------------------------------------ #
    # load / save
    # ------------------------------------------------------------------ #
    def fetch(self, config: GCONConfig, graph, seed: int) -> PreparedInputs | None:
        """Return the cached bundle for ``(config, graph, seed)`` or ``None``."""
        path = self.path_for(self.preparation_address(config, graph, seed))
        if not path.exists():
            self.stats["misses"] += 1
            return None
        try:
            prepared = self._read_bundle(path, config, seed)
        except (OSError, ValueError, KeyError, ConfigurationError,
                zipfile.BadZipFile):
            # A half-written or stale-format bundle is a miss, not an error:
            # the caller recomputes and overwrites it atomically.  BadZipFile
            # subclasses Exception directly (not OSError/ValueError), and is
            # what np.load raises on a truncated archive body.
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return prepared

    def put(self, config: GCONConfig, graph, seed: int,
            prepared: PreparedInputs) -> Path:
        """Persist ``prepared`` under its content address (atomically)."""
        network = prepared.encoder._require_fitted()
        arrays: dict[str, np.ndarray] = {
            "format_version": np.array([_PREPARATION_FORMAT_VERSION]),
            "aggregated": np.asarray(prepared.aggregated, dtype=np.float64),
            "train_idx": np.asarray(prepared.train_idx, dtype=np.int64),
            "labels": np.asarray(prepared.labels, dtype=np.int64),
            "num_classes": np.array([network.head.out_features]),
            "graph_key": np.array(graph_fingerprint(graph.adjacency)),
        }
        for name, value in network.state_dict().items():
            arrays[f"{_ENCODER_PREFIX}{name}"] = value
        path = self.path_for(self.preparation_address(config, graph, seed))
        return atomic_savez(path, arrays)

    def get_or_prepare(self, model: GCON, graph, seed) -> PreparedInputs:
        """Fetch the preparation for ``(model.config, graph, seed)`` or compute
        and persist it.

        Only integer seeds are content-addressable; with a generator or
        ``None`` seed the store is bypassed and a cold prepare is returned.
        """
        if not isinstance(seed, (int, np.integer)):
            return model.prepare(graph, seed=seed)
        prepared = self.fetch(model.config, graph, int(seed))
        if prepared is not None:
            return prepared
        prepared = model.prepare(graph, seed=int(seed))
        self.put(model.config, graph, int(seed), prepared)
        return prepared

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _read_bundle(self, path: Path, config: GCONConfig, seed: int) -> PreparedInputs:
        with np.load(path, allow_pickle=False) as archive:
            if "format_version" not in archive or "aggregated" not in archive:
                raise ConfigurationError(f"{path} is not a preparation bundle")
            version = int(archive["format_version"][0])
            if version != _PREPARATION_FORMAT_VERSION:
                raise ConfigurationError(
                    f"unsupported preparation bundle format {version}"
                )
            aggregated = np.asarray(archive["aggregated"], dtype=np.float64)
            train_idx = np.asarray(archive["train_idx"], dtype=np.int64)
            labels = np.asarray(archive["labels"], dtype=np.int64)
            num_classes = int(archive["num_classes"][0])
            graph_key = str(archive["graph_key"])
            state = {
                key[len(_ENCODER_PREFIX):]: np.asarray(archive[key], dtype=np.float64)
                for key in archive.files if key.startswith(_ENCODER_PREFIX)
            }
        encoder = MLPEncoder(
            output_dim=config.encoder_dim,
            hidden_dim=config.encoder_hidden,
            epochs=config.encoder_epochs,
            learning_rate=config.encoder_lr,
            weight_decay=config.encoder_weight_decay,
            dropout=config.encoder_dropout,
            seed=int(seed),
        )
        encoder._network = _rebuild_encoder_network(encoder, state, num_classes)
        return PreparedInputs(
            encoder=encoder, aggregated=aggregated, train_idx=train_idx,
            labels=labels, preparation_key=config.preparation_key(),
            graph_key=graph_key, seed_token=int(seed),
        )

    def info(self) -> dict:
        """Hit/miss counters plus the number of bundles currently on disk."""
        entries = len(list(self.root.glob("prep-*.npz"))) if self.root.exists() else 0
        return dict(self.stats, entries=entries, root=str(self.root))


def _rebuild_encoder_network(encoder: MLPEncoder, state: dict[str, np.ndarray],
                             num_classes: int) -> _EncoderNetwork:
    """Reconstruct the encoder network from its saved parameter arrays."""
    if not state:
        raise ConfigurationError("the saved release contains no encoder parameters")
    # The first Linear layer's weight has shape (in_dim, hidden_dim); locate it
    # by matching the hidden width so the input dimension never has to be stored.
    in_dim = None
    for value in state.values():
        if value.ndim == 2 and value.shape[1] == encoder.hidden_dim:
            in_dim = int(value.shape[0])
            break
    if in_dim is None:
        raise ConfigurationError("could not infer the encoder input dimension from the release")
    network = _EncoderNetwork(
        in_dim=in_dim,
        hidden_dim=encoder.hidden_dim,
        out_dim=encoder.output_dim,
        num_classes=num_classes,
        dropout=encoder.dropout,
        rng=as_rng(0),
    )
    network.load_state_dict(state)
    network.eval()
    return network
