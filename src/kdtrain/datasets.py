"""Frame-classification datasets: the in-memory model, the synthetic
sequence task that stands in for a speech corpus at desk scale, and the
soft-target/dataset consistency check.

The synthetic task emits utterances whose frame labels follow a Markov
chain with a strong self-loop. Feature vectors are noisy class
centroids, except near label transitions where they are convex blends
of the two adjacent centroids, so boundary frames are genuinely
confusable - the structural property soft targets are meant to help
with. Emission noise is AR(1)-correlated in time (unit marginal
variance): per-frame difficulty is unchanged, but a recurrent model
cannot simply average the noise away, which keeps the frame-wise
teacher competitive with the student.

All randomness comes from numpy's PCG64 generator seeded through
SeedSequence, so a given seed reproduces the same dataset on any
platform. Features are rounded to 32-bit float values at generation
time (then kept as float64 in memory), which makes file round trips
bit-exact.
"""

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ShapeError


@dataclass
class Utterance:
    uid: int
    offset: int
    count: int


@dataclass
class FrameDataset:
    """An ordered set of utterances over one flat frame axis.

    ``features`` is (total_frames x D) float64, ``labels`` one class id
    per frame. Utterance offsets partition the frame axis exactly.
    """

    utterances: list[Utterance]
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {self.features.shape}")
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ShapeError(f"labels shape {self.labels.shape} should be ({n},)")
        pos = 0
        for u in self.utterances:
            if u.offset != pos or u.count <= 0:
                raise ShapeError(
                    f"utterance {u.uid}: offset {u.offset}/count {u.count} breaks the "
                    f"partition at frame {pos}"
                )
            pos += u.count
        if pos != n:
            raise ShapeError(f"manifest covers {pos} frames but features hold {n}")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ShapeError(f"labels must lie in [0, {self.num_classes})")

    @property
    def total_frames(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def utterance_slice(self, index: int) -> slice:
        u = self.utterances[index]
        return slice(u.offset, u.offset + u.count)


@dataclass
class SplitSet:
    """Train / cross-validation / test splits with disjoint utterance ids."""

    train: FrameDataset
    cv: FrameDataset
    test: FrameDataset

    def __post_init__(self):
        seen: set[int] = set()
        for name, split in (("train", self.train), ("cv", self.cv), ("test", self.test)):
            ids = {u.uid for u in split.utterances}
            dup = seen & ids
            if dup:
                raise InvalidArgumentError(f"utterance ids {sorted(dup)[:3]} reused in {name}")
            seen |= ids


@dataclass
class SynthTaskSpec:
    """Parameters of the synthetic frame-classification task.

    ``centroids`` (K x D) and ``transitions`` (K x K, rows summing to 1)
    may be given explicitly; by default they are drawn from the seed:
    unit-normal centroids and a uniform off-diagonal chain with
    ``self_loop`` on the diagonal. ``noise_scale`` may be a scalar or a
    per-class vector; ``noise_corr`` is the AR(1) coefficient of the
    emission noise along time (0 = white). ``blend_frames`` is the
    number of frames on each side of a label transition whose features
    are convex centroid blends.
    """

    num_classes: int = 10
    feature_dim: int = 20
    self_loop: float = 0.85
    noise_scale: float | np.ndarray = 1.0
    noise_corr: float = 0.85
    blend_frames: int = 2
    min_frames: int = 30
    max_frames: int = 80
    train_utterances: int = 600
    cv_utterances: int = 200
    test_utterances: int = 200
    centroids: np.ndarray | None = None
    transitions: np.ndarray | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise InvalidArgumentError(f"need at least 2 classes, got {self.num_classes}")
        if self.feature_dim < 1:
            raise InvalidArgumentError(f"need at least 1 feature dim, got {self.feature_dim}")
        if not 0.0 <= self.self_loop <= 1.0:
            raise InvalidArgumentError(f"self_loop must be in [0, 1], got {self.self_loop}")
        if self.blend_frames < 0:
            raise InvalidArgumentError("blend_frames must be >= 0")
        if not 0.0 <= self.noise_corr < 1.0:
            raise InvalidArgumentError(f"noise_corr must be in [0, 1), got {self.noise_corr}")
        if not 1 <= self.min_frames <= self.max_frames:
            raise InvalidArgumentError(
                f"bad utterance length range [{self.min_frames}, {self.max_frames}]"
            )
        if self.transitions is not None:
            t = np.asarray(self.transitions, dtype=np.float64)
            if t.shape != (self.num_classes, self.num_classes):
                raise ShapeError(f"transition matrix shape {t.shape}")
            if np.abs(t.sum(axis=1) - 1.0).max() > 1e-9 or t.min() < 0:
                raise InvalidArgumentError("transition rows must be probabilities summing to 1")
            self.transitions = t
        if self.centroids is not None:
            c = np.asarray(self.centroids, dtype=np.float64)
            if c.shape != (self.num_classes, self.feature_dim):
                raise ShapeError(f"centroid matrix shape {c.shape}")
            self.centroids = c


def _resolve_task(spec: SynthTaskSpec, rng: np.random.Generator):
    k = spec.num_classes
    if spec.centroids is not None:
        centroids = spec.centroids
    else:
        centroids = rng.normal(0.0, 1.0, size=(k, spec.feature_dim))
    if spec.transitions is not None:
        transitions = spec.transitions
    else:
        off = (1.0 - spec.self_loop) / (k - 1)
        transitions = np.full((k, k), off)
        np.fill_diagonal(transitions, spec.self_loop)
    noise = np.broadcast_to(np.asarray(spec.noise_scale, dtype=np.float64), (k,)).copy()
    return centroids, transitions, noise


def _blend_means(
    labels: np.ndarray, first: np.ndarray, centroids: np.ndarray, blend: int
) -> np.ndarray:
    """Per-frame mean vectors: the own-class centroid, blended toward the
    adjacent class within ``blend`` frames of a label transition.

    ``first`` marks the first frame of each utterance; no transition
    crosses it. For each transition in frame order and each distance
    k < ``blend``, the frame k before it (if it has the outgoing label)
    and then the frame k after it (if it has the incoming label) take
    weight 0.5 - (k + 0.5)/(2*blend) on the other label's centroid, and
    a later write to a frame replaces an earlier one. So the frame right
    at a boundary keeps weight 0.5 + 1/(4*blend) on its own class, and
    weights ramp linearly back to 1 with distance.
    """
    means = centroids[labels]
    if blend == 0:
        return means
    utt = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], labels.size)
    j = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    j = np.repeat(j[~first[j]], blend)  # first frame of each new segment, per k
    k = np.tile(np.arange(blend), j.size // blend)
    # the writes in order: per (transition, k), the left frame, then the right one
    target = np.stack([j - 1 - k, j + k], axis=1).ravel()
    own = np.stack([labels[j - 1], labels[j]], axis=1).ravel()
    other = np.stack([labels[j], labels[j - 1]], axis=1).ravel()
    k = np.repeat(k, 2)
    inside = (target >= np.repeat(starts[utt[j]], 2)) & (target < np.repeat(ends[utt[j]], 2))
    hit = inside & (labels[np.where(inside, target, 0)] == own)
    target, own, other, k = target[hit], own[hit], other[hit], k[hit]
    _, from_end = np.unique(target[::-1], return_index=True)
    last = target.size - 1 - from_end  # the write that stays
    w = (0.5 - (k[last] + 0.5) / (2 * blend))[:, np.newaxis]
    means[target[last]] = (1.0 - w) * centroids[own[last]] + w * centroids[other[last]]
    return means


def _generate_split(
    spec: SynthTaskSpec,
    count: int,
    first_uid: int,
    centroids: np.ndarray,
    transitions: np.ndarray,
    noise: np.ndarray,
    rng: np.random.Generator,
) -> FrameDataset:
    k = spec.num_classes
    # rng.choice(k, p=row) draws one rng.random() and bisects the row's
    # normalised cumulative sum to the right; drawing an utterance's
    # chain with one rng.random(length - 1) call does the same with the
    # same draws in the same order
    cdfs = []
    for row in transitions:
        cdf = row.cumsum()
        cdf /= cdf[-1]
        cdfs.append(cdf.tolist())
    utterances = []
    label_chunks = []
    eps_chunks = []
    offset = 0
    for i in range(count):
        length = int(rng.integers(spec.min_frames, spec.max_frames + 1))
        label = int(rng.integers(0, k))
        labels = [label]
        for u in rng.random(length - 1).tolist():
            label = bisect_right(cdfs[label], u)
            labels.append(label)
        label_chunks.append(np.array(labels, dtype=np.int64))
        eps_chunks.append(rng.normal(size=(length, spec.feature_dim)))
        utterances.append(Utterance(first_uid + i, offset, length))
        offset += length

    # white noise of all utterances, padded to the longest one
    lengths = np.array([u.count for u in utterances])
    eps = np.zeros((count, lengths.max(), spec.feature_dim))
    for u, chunk in enumerate(eps_chunks):
        eps[u, : len(chunk)] = chunk
    if spec.noise_corr > 0.0:
        # AR(1) walk with unit marginal variance, reset per utterance
        rho = spec.noise_corr
        mix = np.sqrt(1.0 - rho * rho)
        for t in range(1, eps.shape[1]):
            eps[:, t] = rho * eps[:, t - 1] + mix * eps[:, t]
    eps = eps[np.arange(eps.shape[1]) < lengths[:, np.newaxis]]

    labels = np.concatenate(label_chunks)
    first = np.zeros(labels.size, dtype=bool)
    first[[u.offset for u in utterances]] = True
    means = _blend_means(labels, first, centroids, spec.blend_frames)
    features = means + noise[labels][:, np.newaxis] * eps
    # canonicalize to 32-bit values so disk round trips are bit-exact
    features = features.astype(np.float32).astype(np.float64)
    return FrameDataset(utterances, features, labels, k)


def generate_synth(spec: SynthTaskSpec, seed: int) -> SplitSet:
    """Deterministically generate train/cv/test splits from one seed.

    Utterance ids are globally sequential across splits, so no id ever
    appears twice.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    centroids, transitions, noise = _resolve_task(spec, rng)
    train = _generate_split(
        spec, spec.train_utterances, 0, centroids, transitions, noise, rng
    )
    cv = _generate_split(
        spec, spec.cv_utterances, spec.train_utterances, centroids, transitions, noise, rng
    )
    test = _generate_split(
        spec,
        spec.test_utterances,
        spec.train_utterances + spec.cv_utterances,
        centroids,
        transitions,
        noise,
        rng,
    )
    return SplitSet(train, cv, test)


def validate_soft_targets(soft_set, dataset: FrameDataset) -> list[str]:
    """Consistency check between a soft-target set and a dataset.

    Returns a list of human-readable violations; empty means valid.
    Never mutates either argument. Row normalization is checked at the
    1e-6 storage tolerance.
    """
    violations = []
    if soft_set.frame_count != dataset.total_frames:
        violations.append(
            f"frame count mismatch: soft targets have {soft_set.frame_count}, "
            f"dataset has {dataset.total_frames}"
        )
    if soft_set.class_count != dataset.num_classes:
        violations.append(
            f"class count mismatch: soft targets have {soft_set.class_count}, "
            f"dataset has {dataset.num_classes}"
        )
    rows = soft_set.rows
    bad_range = np.flatnonzero((rows < 0).any(axis=1) | (rows > 1).any(axis=1))
    for idx in bad_range[:10]:
        violations.append(f"row {idx} has entries outside [0, 1]")
    sums = rows.sum(axis=1)
    bad_norm = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
    for idx in bad_norm[:10]:
        violations.append(f"row {idx} sums to {sums[idx]:.9f}, expected 1 within 1e-6")
    return violations
