"""On-disk artifact formats. All binary layouts are little-endian with a
5-byte magic string and a version byte; readers reject unknown magics
and versions and report the byte offset of any malformation.

DKDS1  dataset     header {K u32, D u32, utterances u64, frames u64},
                   manifest of {uid u64, offset u64, count u64},
                   labels u16 x frames, features f32 x frames x D.
DKST1  soft set    header {temperature f64, frames u64, K u32,
                   teacher digest 32 bytes}, rows f32 x frames x K.
DKDM1  checkpoint  arch tag u8 (0 feed-forward, 1 LSTM), integer shape
                   header, parameters f64 in canonical array order.

Run records are plain text: '#'-prefixed header lines followed by one
whitespace-separated row per epoch. Floats are written with repr so the
files are byte-stable and parse back exactly.
"""

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import FrameDataset, Utterance
from .distill import SoftTargetSet
from .errors import FormatError
from .feedforward import FeedForwardParams
from .lstm import LstmLayerParams, LstmProjParams

DATASET_MAGIC = b"DKDS1"
SOFT_MAGIC = b"DKST1"
MODEL_MAGIC = b"DKDM1"
FORMAT_VERSION = 1

ARCH_FEEDFORWARD = 0
ARCH_LSTM = 1


class _Reader:
    """Cursor over a byte buffer that reports offsets on underrun."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"{self.what}: truncated, needed {n} more bytes", offset=self.pos
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(itemsize * count), dtype=dtype).copy()

    def expect_end(self):
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.what}: {len(self.data) - self.pos} trailing bytes", offset=self.pos
            )


def _check_header(r: _Reader, magic: bytes):
    got = r.take(5)
    if got != magic:
        raise FormatError(f"{r.what}: bad magic {got!r}, expected {magic!r}", offset=0)
    (version,) = r.unpack("B")
    if version != FORMAT_VERSION:
        raise FormatError(f"{r.what}: unsupported version {version}", offset=5)


# ---------------------------------------------------------------------------
# DKDS1 datasets


def dataset_bytes(ds: FrameDataset) -> bytes:
    if ds.labels.size and ds.labels.max() > 0xFFFF:
        raise FormatError(
            f"label {ds.labels.max()} does not fit the u16 label field of {DATASET_MAGIC.decode()}"
        )
    parts = [DATASET_MAGIC, struct.pack("<B", FORMAT_VERSION)]
    parts.append(
        struct.pack(
            "<IIQQ", ds.num_classes, ds.feature_dim, len(ds.utterances), ds.total_frames
        )
    )
    for u in ds.utterances:
        parts.append(struct.pack("<QQQ", u.uid, u.offset, u.count))
    parts.append(ds.labels.astype("<u2").tobytes())
    parts.append(ds.features.astype("<f4").tobytes())
    return b"".join(parts)


def write_dataset(path, ds: FrameDataset) -> None:
    Path(path).write_bytes(dataset_bytes(ds))


def read_dataset(path) -> FrameDataset:
    r = _Reader(Path(path).read_bytes(), f"dataset {path}")
    _check_header(r, DATASET_MAGIC)
    k, d, n_utt, n_frames = r.unpack("IIQQ")
    if k < 2 or d < 1:
        raise FormatError(f"{r.what}: degenerate header K={k}, D={d}", offset=6)
    utterances = []
    for i in range(n_utt):
        uid, offset, count = r.unpack("QQQ")
        utterances.append(Utterance(uid, offset, count))
    labels_off = r.pos
    labels = r.array("<u2", n_frames).astype(np.int64)
    bad = np.flatnonzero(labels >= k)
    if bad.size:
        raise FormatError(
            f"{r.what}: label {labels[bad[0]]} >= K={k} at frame index {bad[0]}",
            offset=labels_off + 2 * int(bad[0]),
        )
    features = r.array("<f4", n_frames * d).astype(np.float64).reshape(n_frames, d)
    r.expect_end()
    try:
        return FrameDataset(utterances, features, labels, k)
    except Exception as exc:
        raise FormatError(f"{r.what}: inconsistent manifest: {exc}") from exc


def export_manifest_text(ds: FrameDataset) -> str:
    """Human-readable manifest: one 'uid offset count' line per utterance."""
    return "".join(f"{u.uid} {u.offset} {u.count}\n" for u in ds.utterances)


# ---------------------------------------------------------------------------
# DKST1 soft-target sets


def soft_targets_bytes(s: SoftTargetSet) -> bytes:
    parts = [SOFT_MAGIC, struct.pack("<B", FORMAT_VERSION)]
    parts.append(struct.pack("<dQI", s.temperature, s.frame_count, s.class_count))
    parts.append(s.teacher_digest)
    parts.append(s.rows.astype("<f4").tobytes())
    return b"".join(parts)


def write_soft_targets(path, s: SoftTargetSet) -> None:
    Path(path).write_bytes(soft_targets_bytes(s))


def read_soft_targets(path) -> SoftTargetSet:
    """Load a DKST1 file. Rows are the stored 32-bit values promoted to
    float64; they are not renormalized, so write-read-write is
    byte-stable."""
    r = _Reader(Path(path).read_bytes(), f"soft targets {path}")
    _check_header(r, SOFT_MAGIC)
    temperature, frames, k = r.unpack("dQI")
    if not temperature > 0 or k < 2:
        raise FormatError(f"{r.what}: bad header T={temperature}, K={k}", offset=6)
    digest = r.take(32)
    rows = r.array("<f4", frames * k).astype(np.float64).reshape(frames, k)
    r.expect_end()
    return SoftTargetSet(temperature, rows, digest)


# ---------------------------------------------------------------------------
# DKDM1 model checkpoints


def _ff_payload(p: FeedForwardParams) -> bytes:
    dims = p.layer_dims
    parts = [struct.pack("<BI", ARCH_FEEDFORWARD, len(p.weights))]
    parts.append(struct.pack(f"<{len(dims)}I", *dims))
    for a in p.arrays():
        parts.append(a.astype("<f8").tobytes())
    return b"".join(parts)


def _lstm_payload(p: LstmProjParams) -> bytes:
    parts = [
        struct.pack(
            "<BIIIII",
            ARCH_LSTM,
            len(p.layers),
            p.input_dim,
            p.layers[0].cell_dim,
            p.layers[0].proj_dim,
            p.output_dim,
        )
    ]
    for a in p.arrays():
        parts.append(a.astype("<f8").tobytes())
    return b"".join(parts)


def checkpoint_bytes(params) -> bytes:
    if isinstance(params, FeedForwardParams):
        payload = _ff_payload(params)
    elif isinstance(params, LstmProjParams):
        payload = _lstm_payload(params)
    else:
        raise FormatError(f"cannot checkpoint object of type {type(params).__name__}")
    return MODEL_MAGIC + struct.pack("<B", FORMAT_VERSION) + payload


def checkpoint_digest(params) -> bytes:
    """SHA-256 of the serialized checkpoint; the provenance id recorded
    in soft-target files."""
    return hashlib.sha256(checkpoint_bytes(params)).digest()


def write_checkpoint(path, params) -> None:
    Path(path).write_bytes(checkpoint_bytes(params))


def read_checkpoint(path):
    r = _Reader(Path(path).read_bytes(), f"checkpoint {path}")
    _check_header(r, MODEL_MAGIC)
    (arch,) = r.unpack("B")
    if arch == ARCH_FEEDFORWARD:
        (n_layers,) = r.unpack("I")
        dims = list(r.unpack(f"{n_layers + 1}I"))
        weights, biases = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            weights.append(r.array("<f8", d_out * d_in).reshape(d_out, d_in))
            biases.append(r.array("<f8", d_out))
        r.expect_end()
        return FeedForwardParams(weights, biases)
    if arch == ARCH_LSTM:
        n_layers, d_in, cells, proj, k = r.unpack("IIIII")
        layers = []
        cur_in = d_in
        for _ in range(n_layers):
            w_x = r.array("<f8", 4 * cells * cur_in).reshape(4 * cells, cur_in)
            w_r = r.array("<f8", 4 * cells * proj).reshape(4 * cells, proj)
            bias = r.array("<f8", 4 * cells)
            w_p = r.array("<f8", proj * cells).reshape(proj, cells)
            layers.append(LstmLayerParams(w_x, w_r, bias, w_p))
            cur_in = proj
        w_out = r.array("<f8", k * proj).reshape(k, proj)
        b_out = r.array("<f8", k)
        r.expect_end()
        return LstmProjParams(layers, w_out, b_out)
    raise FormatError(f"{r.what}: unknown architecture tag {arch}", offset=6)


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
    Path(path).write_text(run_record_text(rec))


def read_run_record(path) -> RunRecord:
    header: dict[str, str] = {}
    epochs: list[EpochStats] = []
    test_fa = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split(None, 1)
            if len(fields) == 2:
                header[fields[0]] = fields[1]
            continue
        cols = line.split()
        if len(cols) != 7:
            raise FormatError(f"run record {path}: line {lineno} has {len(cols)} columns")
        epochs.append(
            EpochStats(
                epoch=int(cols[0]),
                learning_rate=float(cols[1]),
                mean_loss=float(cols[2]),
                train_accuracy=float(cols[3]),
                cv_accuracy=float(cols[4]),
                grad_variance=float(cols[5]),
                grad_variance_first_term=float(cols[6]),
            )
        )
    if header.get("kdtrain-runrec") != "v1":
        raise FormatError(f"run record {path}: missing or unsupported header")
    if "test_fa" in header:
        test_fa = float(header["test_fa"])
    return RunRecord(
        model=header.get("model", "?"),
        regime=header.get("regime", "?"),
        temperature=float(header.get("temperature", "1.0")),
        alpha=float(header.get("alpha", "0.5")),
        seed=int(header.get("seed", "0")),
        config_digest=header.get("config_digest", ""),
        epochs=epochs,
        test_accuracy=test_fa,
    )
