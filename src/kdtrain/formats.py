"""On-disk artifact formats. All binary layouts are little-endian with a
5-byte magic string and a version byte; readers reject unknown magics
and versions and report the byte offset of any malformation.

DKDS1  dataset     header {K u32, D u32, utterances u64, frames u64},
                   manifest of {uid u64, offset u64, count u64},
                   labels u16 x frames, features f32 x frames x D.
DKST1  soft set    header {temperature f64, frames u64, K u32,
                   teacher digest 32 bytes}, rows f32 x frames x K.
DKDM1  checkpoint  arch tag u8 (the model class's ARCH_TAG: 0 feed-forward,
                   1 LSTM), the model's shape() as u32s (its layer count
                   first), parameters f64 in canonical arrays() order.

Run records are plain text: '#'-prefixed header lines followed by one
whitespace-separated row per epoch. Floats are written with repr so the
files are byte-stable and parse back exactly.

Each binary format has one serializer, which returns the file as a list
of bytes-like parts: headers as bytes, payloads as little-endian arrays.
The writers and ``checkpoint_digest`` consume those parts, so a payload
is converted once and never joined on its way to a file or a hash.
Every writer goes through ``write_atomic``: a temp file beside the
target, then a rename, so a killed or failing write never leaves a
partial file under the target's name. Readers read each payload with
``np.fromfile`` straight into the array that keeps it, so a read holds
no payload twice; only DKDS labels are converted (u16 to int64). DKDS
features and DKST rows stay float32, as stored, so a dataset or a
soft-target set is written and read without a conversion copy; a
non-finite feature is refused at read.
"""

import hashlib
import math
import os
import secrets
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import FrameDataset, Utterance
from .distill import REGIMES, SoftTargetSet
from .errors import FormatError, ShapeError
from .feedforward import FeedForwardParams
from .lstm import LstmProjParams

DATASET_MAGIC = b"DKDS1"
SOFT_MAGIC = b"DKST1"
MODEL_MAGIC = b"DKDM1"
FORMAT_VERSION = 1


class _Reader:
    """Cursor over an open file that reports offsets on underrun. Each
    payload is read by ``np.fromfile`` into the array that keeps it."""

    def __init__(self, f, what: str):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size
        self.pos = 0
        self.what = what

    def _advance(self, n: int) -> None:
        if self.pos + n > self.size:
            raise FormatError(
                f"{self.what}: truncated, needed {n} more bytes", offset=self.pos
            )
        self.pos += n

    def take(self, n: int) -> bytes:
        self._advance(n)
        return self.f.read(n)

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, stored: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The next ``shape`` values, stored as ``stored``, as a ``dtype``
        array that owns its memory (the array read, unless converted)."""
        count = math.prod(shape)
        self._advance(np.dtype(stored).itemsize * count)
        out = np.fromfile(self.f, dtype=stored, count=count)
        out.shape = shape
        return out.astype(dtype, copy=False)

    def expect_end(self):
        if self.pos != self.size:
            raise FormatError(
                f"{self.what}: {self.size - self.pos} trailing bytes", offset=self.pos
            )


def write_atomic(path, parts) -> None:
    """Write the bytes-like ``parts``, in order, as the whole content of
    ``path``: into a new file of a unique name in the same directory,
    then renamed over ``path``. A reader sees the old file or the whole
    new one, never a part, even if the writer is killed; a write that
    raises removes its temp file. The rename is not synced to disk, so
    a power loss may still lose the new file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_header(r: _Reader, magic: bytes):
    got = r.take(5)
    if got != magic:
        raise FormatError(f"{r.what}: bad magic {got!r}, expected {magic!r}", offset=0)
    (version,) = r.unpack("B")
    if version != FORMAT_VERSION:
        raise FormatError(f"{r.what}: unsupported version {version}", offset=5)


# ---------------------------------------------------------------------------
# DKDS1 datasets


def _dataset_parts(ds: FrameDataset) -> list:
    if ds.labels.size and ds.labels.max() > 0xFFFF:
        raise FormatError(
            f"label {ds.labels.max()} does not fit the u16 label field of {DATASET_MAGIC.decode()}"
        )
    header = struct.pack(
        "<BIIQQ", FORMAT_VERSION, ds.num_classes, ds.feature_dim, len(ds.utterances),
        ds.total_frames,
    )
    manifest = b"".join(struct.pack("<QQQ", u.uid, u.offset, u.count) for u in ds.utterances)
    return [
        DATASET_MAGIC, header, manifest,
        np.ascontiguousarray(ds.labels, dtype="<u2"),
        np.ascontiguousarray(ds.features, dtype="<f4"),
    ]


def write_dataset(path, ds: FrameDataset) -> None:
    write_atomic(path, _dataset_parts(ds))


def read_dataset(path) -> FrameDataset:
    with open(path, "rb") as f:
        r = _Reader(f, f"dataset {path}")
        _check_header(r, DATASET_MAGIC)
        k, d, n_utt, n_frames = r.unpack("IIQQ")
        if k < 2 or d < 1:
            raise FormatError(f"{r.what}: degenerate header K={k}, D={d}", offset=6)
        manifest = r.array("<u8", (n_utt, 3), np.uint64).tolist()
        labels_off = r.pos
        labels = r.array("<u2", (n_frames,), np.int64)
        bad = np.flatnonzero(labels >= k)
        if bad.size:
            raise FormatError(
                f"{r.what}: label {labels[bad[0]]} >= K={k} at frame index {bad[0]}",
                offset=labels_off + 2 * int(bad[0]),
            )
        features_off = r.pos
        features = r.array("<f4", (n_frames, d), np.float32)
        r.expect_end()
    utterances = [Utterance(*row) for row in manifest]
    # min and max propagate NaN and reach any infinity, with no temporary
    if not (math.isfinite(features.min(initial=0.0)) and math.isfinite(features.max(initial=0.0))):
        first = int(np.flatnonzero(~np.isfinite(features))[0])
        raise FormatError(
            f"{r.what}: non-finite feature {features.flat[first]} at frame index {first // d}",
            offset=features_off + 4 * first,
        )
    try:
        return FrameDataset(utterances, features, labels, k)
    except Exception as exc:
        raise FormatError(f"{r.what}: inconsistent manifest: {exc}") from exc


def export_manifest_text(ds: FrameDataset) -> str:
    """Human-readable manifest: one 'uid offset count' line per utterance."""
    return "".join(f"{u.uid} {u.offset} {u.count}\n" for u in ds.utterances)


# ---------------------------------------------------------------------------
# DKST1 soft-target sets


def _soft_targets_parts(s: SoftTargetSet) -> list:
    header = struct.pack("<BdQI", FORMAT_VERSION, s.temperature, s.frame_count, s.class_count)
    return [SOFT_MAGIC, header, s.teacher_digest, np.ascontiguousarray(s.rows, dtype="<f4")]


def write_soft_targets(path, s: SoftTargetSet) -> None:
    write_atomic(path, _soft_targets_parts(s))


def read_soft_targets(path) -> SoftTargetSet:
    """Load a DKST1 file. Rows are the stored float32 values; they are
    not renormalized, so write-read-write is byte-stable."""
    with open(path, "rb") as f:
        r = _Reader(f, f"soft targets {path}")
        _check_header(r, SOFT_MAGIC)
        temperature, frames, k = r.unpack("dQI")
        if not temperature > 0 or k < 2:
            raise FormatError(f"{r.what}: bad header T={temperature}, K={k}", offset=6)
        digest = r.take(32)
        rows = r.array("<f4", (frames, k), np.float32)
        r.expect_end()
    return SoftTargetSet(temperature, rows, digest)


# ---------------------------------------------------------------------------
# DKDM1 model checkpoints


_MODELS = {cls.ARCH_TAG: cls for cls in (FeedForwardParams, LstmProjParams)}


def _checkpoint_parts(params) -> list:
    cls = _MODELS.get(getattr(params, "ARCH_TAG", None))
    if cls is not type(params):
        raise FormatError(f"cannot checkpoint object of type {type(params).__name__}")
    shape, arrays = params.shape(), params.arrays()
    if [a.shape for a in arrays] != list(cls.array_shapes(shape)):
        raise FormatError(f"{cls.__name__} arrays do not fit its header {shape}")
    header = struct.pack(f"<BB{len(shape)}I", FORMAT_VERSION, cls.ARCH_TAG, *shape)
    return [MODEL_MAGIC, header, *(np.ascontiguousarray(a, dtype="<f8") for a in arrays)]


def checkpoint_digest(params) -> bytes:
    """SHA-256 of the serialized checkpoint; the provenance id recorded
    in soft-target files."""
    h = hashlib.sha256()
    for part in _checkpoint_parts(params):
        h.update(part)
    return h.digest()


def write_checkpoint(path, params) -> None:
    write_atomic(path, _checkpoint_parts(params))


def read_checkpoint(path):
    with open(path, "rb") as f:
        r = _Reader(f, f"checkpoint {path}")
        _check_header(r, MODEL_MAGIC)
        (tag,) = r.unpack("B")
        if tag not in _MODELS:
            raise FormatError(f"{r.what}: unknown architecture tag {tag}", offset=6)
        cls = _MODELS[tag]
        (n_layers,) = r.unpack("I")
        shape = (n_layers, *r.unpack(f"{cls.header_dims(n_layers)}I"))
        arrays = [r.array("<f8", s, np.float64) for s in cls.array_shapes(shape)]
        r.expect_end()
    try:
        return cls.from_arrays(arrays)
    except ShapeError as exc:
        raise FormatError(f"{r.what}: inconsistent header {shape}: {exc}") from exc


# ---------------------------------------------------------------------------
# Run records


@dataclass
class EpochStats:
    epoch: int
    learning_rate: float
    mean_loss: float
    train_accuracy: float
    cv_accuracy: float
    grad_variance: float
    grad_variance_first_term: float
    # measured, not persisted: reruns must produce byte-identical files
    wall_seconds: float = field(default=0.0, compare=False)


@dataclass
class RunRecord:
    """Per-run training log: one EpochStats per epoch plus identity."""

    model: str
    regime: str
    temperature: float
    alpha: float
    seed: int
    config_digest: str
    epochs: list[EpochStats] = field(default_factory=list)
    test_accuracy: float | None = None

    def __post_init__(self):
        for prev, cur in zip(self.epochs, self.epochs[1:]):
            if cur.epoch <= prev.epoch:
                raise FormatError(f"epochs not strictly increasing at {cur.epoch}")


_RUNREC_COLUMNS = "epoch lr mean_loss tr_fa cv_fa grad_var grad_var_first"


def run_record_text(rec: RunRecord) -> str:
    lines = [
        "# kdtrain-runrec v1",
        f"# model {rec.model}",
        f"# regime {rec.regime}",
        f"# temperature {rec.temperature!r}",
        f"# alpha {rec.alpha!r}",
        f"# seed {rec.seed}",
        f"# config_digest {rec.config_digest}",
        f"# columns {_RUNREC_COLUMNS}",
    ]
    for e in rec.epochs:
        lines.append(
            f"{e.epoch} {e.learning_rate!r} {e.mean_loss!r} {e.train_accuracy!r} "
            f"{e.cv_accuracy!r} {e.grad_variance!r} {e.grad_variance_first_term!r}"
        )
    if rec.test_accuracy is not None:
        lines.append(f"# test_fa {rec.test_accuracy!r}")
    return "\n".join(lines) + "\n"


def write_run_record(path, rec: RunRecord) -> None:
    write_atomic(path, [run_record_text(rec).encode()])


def read_run_record(path) -> RunRecord:
    """Parse a run record. Every header line that ``run_record_text``
    writes must be present (``test_fa`` is optional); an unknown regime,
    other columns, or a non-numeric value raise FormatError."""
    header: dict[str, tuple[int, str]] = {}
    epochs: list[EpochStats] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" ")
            header[key] = (lineno, value.strip())
            continue
        cols = line.split()
        if len(cols) != 7:
            raise FormatError(f"run record {path}: line {lineno} has {len(cols)} columns")
        try:
            epochs.append(EpochStats(int(cols[0]), *(float(c) for c in cols[1:])))
        except ValueError as exc:
            raise FormatError(f"run record {path}: line {lineno}: {exc}") from None

    def field(key: str, convert=str):
        if key not in header:
            raise FormatError(f"run record {path}: missing '# {key}' line")
        lineno, value = header[key]
        try:
            return convert(value)
        except ValueError as exc:
            raise FormatError(f"run record {path}: line {lineno}: {exc}") from None

    if field("kdtrain-runrec") != "v1":
        raise FormatError(f"run record {path}: unsupported header")
    if field("columns") != _RUNREC_COLUMNS:
        raise FormatError(f"run record {path}: columns are not '{_RUNREC_COLUMNS}'")
    regime = field("regime")
    if regime not in REGIMES:
        raise FormatError(f"run record {path}: unknown regime {regime!r}")
    return RunRecord(
        model=field("model"),
        regime=regime,
        temperature=field("temperature", float),
        alpha=field("alpha", float),
        seed=field("seed", int),
        config_digest=field("config_digest"),
        epochs=epochs,
        test_accuracy=field("test_fa", float) if "test_fa" in header else None,
    )
