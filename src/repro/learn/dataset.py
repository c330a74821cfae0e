"""Versioned training-example shards for the gate-design surrogate.

One *example* is a featurized candidate geometry plus its physics
label -- how many input patterns the ground-state oracle evaluated
correctly.  Examples are persisted in *shards*: self-describing JSONL
(or ``.npz``) files whose first record is a header carrying
:data:`DATASET_SCHEMA_VERSION`, the featurizer version and the feature
names, so readers can refuse shards from an incompatible featurizer.

Shard files are **content-addressed**: the file name embeds the
SHA-256 of the shard bytes (``shard-<digest12>.jsonl``), so concurrent
collectors never clobber each other, re-collection of identical data
deduplicates to one file, and a shard can be persisted verbatim into
the service :class:`~repro.service.store.ArtifactStore` blob area
(:meth:`ArtifactStore.put_blob`) under the same digest.

The :class:`ExampleCollector` is the buffer behind the
:mod:`repro.learn.hooks` call sites: recording featurizes immediately
(microseconds, orders of magnitude under the physics evaluation that
produced the label) and appends in memory; ``flush()`` writes one
shard.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.learn.features import (
    FEATURE_NAMES,
    FEATURE_VERSION,
    featurize_candidate,
)

#: Bump when the shard record layout changes; readers reject other
#: versions instead of silently misparsing.
DATASET_SCHEMA_VERSION = 1


def default_learn_dir() -> Path:
    """``$REPRO_LEARN_DIR`` or ``~/.cache/repro/learn``."""
    env = os.environ.get("REPRO_LEARN_DIR", "")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "learn"


@dataclass(frozen=True)
class Example:
    """One featurized, physics-labeled candidate."""

    features: tuple[float, ...]
    correct: int
    total: int
    kind: str  # "canvas" | "operational"
    name: str = ""

    def to_record(self) -> dict:
        return {
            "features": list(self.features),
            "correct": self.correct,
            "total": self.total,
            "kind": self.kind,
            "name": self.name,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Example":
        return cls(
            features=tuple(float(x) for x in record["features"]),
            correct=int(record["correct"]),
            total=int(record["total"]),
            kind=str(record["kind"]),
            name=str(record.get("name", "")),
        )


def shard_header() -> dict:
    """The self-describing first record of every shard."""
    return {
        "kind": "header",
        "schema_version": DATASET_SCHEMA_VERSION,
        "feature_version": FEATURE_VERSION,
        "feature_names": list(FEATURE_NAMES),
    }


def _validate_header(header: dict, where: str) -> None:
    if header.get("kind") != "header":
        raise ValueError(f"{where}: first record is not a shard header")
    if header.get("schema_version") != DATASET_SCHEMA_VERSION:
        raise ValueError(
            f"{where}: dataset schema {header.get('schema_version')!r} != "
            f"{DATASET_SCHEMA_VERSION}"
        )
    if header.get("feature_version") != FEATURE_VERSION:
        raise ValueError(
            f"{where}: feature version {header.get('feature_version')!r} != "
            f"{FEATURE_VERSION}"
        )
    if tuple(header.get("feature_names", ())) != FEATURE_NAMES:
        raise ValueError(f"{where}: feature names do not match this build")


def dumps_shard(examples) -> str:
    """Serialize examples to canonical shard JSONL text."""
    lines = [json.dumps(shard_header(), sort_keys=True)]
    lines.extend(
        json.dumps(example.to_record(), sort_keys=True)
        for example in examples
    )
    return "\n".join(lines) + "\n"


def parse_shard(text: str, where: str = "<shard>") -> list[Example]:
    """Parse and schema-validate shard JSONL text."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{where}: empty shard")
    _validate_header(json.loads(lines[0]), where)
    examples = []
    for number, line in enumerate(lines[1:], start=2):
        record = json.loads(line)
        example = Example.from_record(record)
        if len(example.features) != len(FEATURE_NAMES):
            raise ValueError(
                f"{where}:{number}: {len(example.features)} features, "
                f"expected {len(FEATURE_NAMES)}"
            )
        examples.append(example)
    return examples


def shard_digest(text: str) -> str:
    """SHA-256 of the shard bytes (the content address)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_shard(directory: str | Path, examples) -> Path:
    """Atomically write a content-addressed JSONL shard; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    text = dumps_shard(examples)
    path = directory / f"shard-{shard_digest(text)[:12]}.jsonl"
    if path.exists():
        return path
    handle, staging = tempfile.mkstemp(
        prefix="shard-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
    return path


def write_shard_npz(path: str | Path, examples) -> Path:
    """Write examples as a compressed ``.npz`` shard (same schema)."""
    examples = list(examples)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        header=np.frombuffer(
            json.dumps(shard_header(), sort_keys=True).encode("utf-8"),
            dtype=np.uint8,
        ),
        features=np.array(
            [example.features for example in examples], dtype=np.float64
        ).reshape(len(examples), len(FEATURE_NAMES)),
        correct=np.array(
            [example.correct for example in examples], dtype=np.int64
        ),
        total=np.array(
            [example.total for example in examples], dtype=np.int64
        ),
        kinds=np.array([example.kind for example in examples], dtype=object),
        names=np.array([example.name for example in examples], dtype=object),
    )
    return path


def _load_npz(path: Path) -> list[Example]:
    with np.load(path, allow_pickle=True) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
        _validate_header(header, str(path))
        return [
            Example(
                features=tuple(float(x) for x in features),
                correct=int(correct),
                total=int(total),
                kind=str(kind),
                name=str(name),
            )
            for features, correct, total, kind, name in zip(
                data["features"],
                data["correct"],
                data["total"],
                data["kinds"],
                data["names"],
            )
        ]


def load_examples(source) -> "Dataset":
    """Load shards into one :class:`Dataset`.

    ``source`` is a shard file, a directory of ``shard-*`` files, or an
    iterable of either.  Shards failing schema validation raise.
    """
    paths: list[Path] = []
    sources = (
        [source] if isinstance(source, (str, Path)) else list(source)
    )
    for entry in sources:
        entry = Path(entry)
        if entry.is_dir():
            paths.extend(sorted(entry.glob("shard-*.jsonl")))
            paths.extend(sorted(entry.glob("shard-*.npz")))
            paths.extend(sorted(entry.glob("*.npz")))
        else:
            paths.append(entry)
    examples: list[Example] = []
    seen: set[Path] = set()
    for path in paths:
        if path in seen:
            continue
        seen.add(path)
        if path.suffix == ".npz":
            examples.extend(_load_npz(path))
        else:
            examples.extend(
                parse_shard(path.read_text(encoding="utf-8"), str(path))
            )
    return Dataset.from_examples(examples)


@dataclass
class Dataset:
    """In-memory example matrix with deterministic split helpers."""

    features: np.ndarray
    correct: np.ndarray
    total: np.ndarray
    kinds: list[str] = field(default_factory=list)
    names: list[str] = field(default_factory=list)

    @classmethod
    def from_examples(cls, examples) -> "Dataset":
        examples = list(examples)
        return cls(
            features=np.array(
                [example.features for example in examples], dtype=np.float64
            ).reshape(len(examples), len(FEATURE_NAMES)),
            correct=np.array(
                [example.correct for example in examples], dtype=np.int64
            ),
            total=np.array(
                [example.total for example in examples], dtype=np.int64
            ),
            kinds=[example.kind for example in examples],
            names=[example.name for example in examples],
        )

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def labels(self, threshold: float = 1.0) -> np.ndarray:
        """Binary labels: correct fraction >= ``threshold`` (default: all
        patterns correct, i.e. the candidate is operational)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            fraction = np.where(
                self.total > 0, self.correct / np.maximum(self.total, 1), 0.0
            )
        return (fraction >= threshold).astype(np.float64)

    def fractions(self) -> np.ndarray:
        """Soft labels: the correct-pattern fraction of each example.

        Training on fractions teaches the surrogate to *rank* partial
        designs (3/4 above 2/4 above 1/4), which is what guides a
        search whose intermediate trajectory is rarely operational;
        AUC against :meth:`labels` is unaffected because operational
        examples still receive the highest targets.
        """
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self.total > 0, self.correct / np.maximum(self.total, 1), 0.0
            ).astype(np.float64)

    def split(
        self, holdout: float = 0.25, seed: int = 0
    ) -> tuple["Dataset", "Dataset"]:
        """Deterministic shuffled (train, held-out) split."""
        count = len(self)
        order = np.random.default_rng(seed).permutation(count)
        cut = count - int(round(count * holdout))
        return self._take(order[:cut]), self._take(order[cut:])

    def _take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[indices],
            correct=self.correct[indices],
            total=self.total[indices],
            kinds=[self.kinds[i] for i in indices],
            names=[self.names[i] for i in indices],
        )


class ExampleCollector:
    """Thread-safe in-memory example buffer behind the learn hooks."""

    def __init__(self, directory: str | Path | None = None, store=None):
        self.directory = Path(directory) if directory else None
        self.store = store
        self._lock = threading.Lock()
        self._examples: list[Example] = []
        self.flushed_shards: list[Path] = []
        self.persisted_digests: list[str] = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._examples)

    def record_candidate(
        self,
        candidate,
        correct: int,
        total: int,
        kind: str,
        parameters=None,
        defects=(),
    ) -> None:
        """Featurize and buffer one physics-labeled candidate."""
        vector = featurize_candidate(
            candidate, parameters=parameters, defects=defects
        )
        self.record_example(
            Example(
                features=tuple(float(x) for x in vector),
                correct=int(correct),
                total=int(total),
                kind=kind,
                name=candidate.name,
            )
        )

    def record_example(self, example: Example) -> None:
        with self._lock:
            self._examples.append(example)
        obs.add("learn.examples_collected")

    def flush(self) -> Path | None:
        """Write buffered examples as one shard; returns its path.

        Clears the buffer.  With a ``store`` attached, the shard bytes
        are also persisted content-addressed via
        :meth:`ArtifactStore.put_blob`.  No examples -> no shard.
        """
        with self._lock:
            examples, self._examples = self._examples, []
        if not examples:
            return None
        text = dumps_shard(examples)
        path = None
        if self.directory is not None:
            path = write_shard(self.directory, examples)
            self.flushed_shards.append(path)
        if self.store is not None:
            digest = self.store.put_blob(
                text.encode("utf-8"),
                name="shard.jsonl",
                meta={
                    "schema_version": DATASET_SCHEMA_VERSION,
                    "feature_version": FEATURE_VERSION,
                    "examples": len(examples),
                },
            )
            self.persisted_digests.append(digest)
        return path
