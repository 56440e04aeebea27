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
platform. Features are held as the 32-bit float values that the DKDS
format stores, so file round trips are bit-exact and a split takes half
the memory of float64. Every computation on them is float64: each
consumer widens only the rows it uses into a buffer it owns. The
generator draws each utterance's length, first label, label chain and
white noise, in that order, and computes in float64 one chunk of whole
utterances at a time (``_CHUNK_FRAMES``), finished before the noise of
an utterance that would not fit and after the last: it adds the means
into the chunk's noise in place and casts it into the float32 split.
"""

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, InvalidArgumentError, ShapeError


@dataclass
class Utterance:
    uid: int
    offset: int
    count: int


@dataclass
class FrameDataset:
    """An ordered set of utterances over one flat frame axis.

    ``features`` is a C-contiguous (total_frames x D) float32 array,
    ``labels`` one int64 class id per frame. Features given in another
    dtype are rounded to float32 once, here, so a dataset holds exactly
    what ``write_dataset`` stores. Utterance offsets partition the frame
    axis exactly.
    """

    utterances: list[Utterance]
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
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

    def require_fit(self, model) -> None:
        """The one fit rule: AlignmentError unless ``model`` has this D and K."""
        if (model.input_dim, model.output_dim) != (self.feature_dim, self.num_classes):
            raise AlignmentError(f"model of D={model.input_dim}, K={model.output_dim} does not "
                                 f"fit a split of D={self.feature_dim}, K={self.num_classes}")


class SplitSet(NamedTuple):
    """Train / cross-validation / test splits."""

    train: FrameDataset
    cv: FrameDataset
    test: FrameDataset


@dataclass
class SynthTaskSpec:
    """Parameters of the synthetic frame-classification task.

    The class centroids are unit-normal draws from the seed, and labels
    follow a chain with ``self_loop`` on the diagonal and the rest
    spread uniformly off it. ``noise_scale`` may be a scalar or a
    per-class vector; ``noise_corr`` is the AR(1) coefficient of the
    emission noise along time (0 = white). ``blend_frames`` is the
    number of frames on each side of a label transition whose features
    are convex centroid blends. The defaults are the config's task:
    ``config.DEFAULTS`` reads them from here.
    """

    num_classes: int = 10
    feature_dim: int = 20
    self_loop: float = 0.85
    noise_scale: float | np.ndarray = 1.6
    noise_corr: float = 0.85
    blend_frames: int = 2
    min_frames: int = 30
    max_frames: int = 80
    train_utterances: int = 300
    cv_utterances: int = 150
    test_utterances: int = 300

    def __post_init__(self):
        if self.num_classes < 2:
            raise InvalidArgumentError(f"need at least 2 classes, got {self.num_classes}")
        if self.feature_dim < 1:
            raise InvalidArgumentError(f"need at least 1 feature dim, got {self.feature_dim}")
        if not 0.0 <= self.self_loop <= 1.0:
            raise InvalidArgumentError(f"self_loop must be in [0, 1], got {self.self_loop}")
        if self.blend_frames < 0:
            raise InvalidArgumentError("blend_frames must be >= 0")
        noise = np.asarray(self.noise_scale, dtype=np.float64)
        if not (np.isfinite(noise) & (noise >= 0.0)).all():
            raise InvalidArgumentError(f"noise_scale must be finite and >= 0, got {noise}")
        if noise.ndim and noise.shape != (self.num_classes,):
            raise ShapeError(f"noise_scale shape {noise.shape} is neither () nor (num_classes,)")
        if not 0.0 <= self.noise_corr < 1.0:
            raise InvalidArgumentError(f"noise_corr must be in [0, 1), got {self.noise_corr}")
        if not 1 <= self.min_frames <= self.max_frames:
            raise InvalidArgumentError(
                f"bad utterance length range [{self.min_frames}, {self.max_frames}]"
            )
        if min(self.train_utterances, self.cv_utterances, self.test_utterances) < 1:
            raise InvalidArgumentError("every split needs at least 1 utterance")


def _resolve_task(spec: SynthTaskSpec, rng: np.random.Generator):
    k = spec.num_classes
    centroids = rng.normal(0.0, 1.0, size=(k, spec.feature_dim))
    transitions = np.full((k, k), (1.0 - spec.self_loop) / (k - 1))
    np.fill_diagonal(transitions, spec.self_loop)
    noise = np.broadcast_to(np.asarray(spec.noise_scale, dtype=np.float64), (k,)).copy()
    return centroids, transitions, noise


def _blend_means(
    labels: np.ndarray, first: np.ndarray, centroids: np.ndarray, blend: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame mean vectors: the own-class centroid, blended toward the
    adjacent class within ``blend`` frames of a label transition.

    ``first`` marks the first frame of each utterance; no transition
    crosses it. A frame k < ``blend`` frames before its segment's end
    blends toward the next segment's class; otherwise, a frame k <
    ``blend`` frames after its segment's start blends toward the
    previous segment's class. Either takes weight 0.5 - (k + 0.5) /
    (2*blend) on the other class, so the frame right at a boundary keeps
    weight 0.5 + 1/(4*blend) on its own class, and weights ramp linearly
    back to 1 with distance.

    Returns (vectors, row): the distinct mean vectors, the centroids
    first, and each frame's row into them. No frame-sized float array is
    made: each distinct (own, other, k) blend is computed once.
    """
    if blend == 0:
        return centroids, labels
    seg_start = first.copy()
    seg_start[1:] |= labels[1:] != labels[:-1]
    starts = np.flatnonzero(seg_start)
    ends = np.append(starts[1:], labels.size)
    seg = np.cumsum(seg_start) - 1
    from_start = np.arange(labels.size) - starts[seg]
    to_end = ends[seg] - 1 - starts[seg] - from_start
    # a transition ends a segment, and starts one, unless an utterance does
    toward_next = np.append(~first[starts[1:]], False)[seg] & (to_end < blend)
    hit = np.flatnonzero(toward_next | (~first[starts][seg] & (from_start < blend)))
    nxt = toward_next[hit]
    other = labels[np.where(nxt, ends[seg[hit]], starts[seg[hit]] - 1)]
    k = np.where(nxt, to_end[hit], from_start[hit])
    classes = centroids.shape[0]
    codes, which = np.unique((labels[hit] * classes + other) * blend + k, return_inverse=True)
    pairs, dist = np.divmod(codes, blend)
    a, b = np.divmod(pairs, classes)
    w = (0.5 - (dist + 0.5) / (2 * blend))[:, np.newaxis]
    vectors = np.concatenate([centroids, (1.0 - w) * centroids[a] + w * centroids[b]])
    row = labels.copy()
    row[hit] = classes + which
    return vectors, row


# The most frames whose float64 noise and AR(1) walk are held at once:
# a chunk is whole utterances, so it is at most this many frames, or one
# utterance of up to max_frames. Its means are gathered and added into
# the noise _ADD_ROWS frames at a time.
_CHUNK_FRAMES = 8192
_ADD_ROWS = 1024


def _finish_chunk(
    spec: SynthTaskSpec,
    eps: np.ndarray,
    chains: list[np.ndarray],
    centroids: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """The float64 features of whole consecutive utterances with label
    ``chains``, formed in place in the front of ``eps``, which holds
    their white noise on the utterances' flat frame axis.

    Every step is utterance-local, so finishing a split in chunks gives
    the bits of finishing it whole.
    """
    lengths = np.array([chain.size for chain in chains])
    labels = np.concatenate(chains)
    eps = eps[: labels.size]
    starts = np.cumsum(lengths) - lengths
    if spec.noise_corr > 0.0:
        # AR(1) walk with unit marginal variance, reset per utterance:
        # step t moves frame t of every utterance longer than t
        rho = spec.noise_corr
        mix = np.sqrt(1.0 - rho * rho)
        for t in range(1, lengths.max()):
            rows = starts[lengths > t] + t
            eps[rows] = rho * eps[rows - 1] + mix * eps[rows]
    first = np.zeros(labels.size, dtype=bool)
    first[starts] = True
    eps *= noise[labels][:, np.newaxis]
    vectors, row = _blend_means(labels, first, centroids, spec.blend_frames)
    # noise + mean in place: addition commutes, so these are the bits of mean + noise
    for lo in range(0, labels.size, _ADD_ROWS):
        eps[lo : lo + _ADD_ROWS] += vectors[row[lo : lo + _ADD_ROWS]]
    return eps


def _generate_split(
    spec: SynthTaskSpec,
    count: int,
    first_uid: int,
    centroids: np.ndarray,
    transitions: np.ndarray,
    noise: np.ndarray,
    rng: np.random.Generator,
) -> FrameDataset:
    """Draw ``count`` utterances, each its length, first label, label
    chain and white noise in that order, into one float32 split. The
    noise fills a float64 chunk buffer; before drawing the noise of an
    utterance that would not fit, and after the last utterance, the
    chunk's whole utterances are finished and cast into the split."""
    # rng.choice(k, p=row) draws one rng.random() and bisects the row's
    # normalised cumulative sum to the right; drawing an utterance's
    # chain with one rng.random(length - 1) call does the same with the
    # same draws in the same order
    cdfs = [(cdf / cdf[-1]).tolist() for cdf in transitions.cumsum(axis=1)]
    # the float32 features of all utterances on the flat frame axis;
    # pages past the last frame written are never touched
    features = np.empty((count * spec.max_frames, spec.feature_dim), dtype=np.float32)
    eps = np.empty((max(_CHUNK_FRAMES, spec.max_frames), spec.feature_dim))
    utterances, chains = [], []
    lo = done = first = 0  # the open chunk: frames [lo, done), chains[first:]
    with np.errstate(over="ignore"):  # refused below, so numpy need not warn
        for uid in range(first_uid, first_uid + count):
            length = int(rng.integers(spec.min_frames, spec.max_frames + 1))
            label = int(rng.integers(0, spec.num_classes))
            chain = [label]
            for u in rng.random(length - 1).tolist():
                label = bisect_right(cdfs[label], u)
                chain.append(label)
            if done + length - lo > eps.shape[0]:
                features[lo:done] = _finish_chunk(spec, eps, chains[first:], centroids, noise)
                lo, first = done, len(chains)
            rng.standard_normal(out=eps[done - lo : done - lo + length])
            chains.append(np.array(chain, dtype=np.int64))
            utterances.append(Utterance(uid, done, length))
            done += length
        features[lo:done] = _finish_chunk(spec, eps, chains[first:], centroids, noise)
    features = features[:done]
    if not np.isfinite([features.min(), features.max()]).all():
        raise InvalidArgumentError(f"noise_scale {spec.noise_scale} overflows float32")
    return FrameDataset(utterances, features, np.concatenate(chains), spec.num_classes)


def generate_synth(spec: SynthTaskSpec, seed: int) -> SplitSet:
    """Deterministically generate train/cv/test splits from one seed.

    Utterance ids are globally sequential across splits, so no id ever
    appears twice. A feature past float32's range is InvalidArgumentError.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    task = _resolve_task(spec, rng)
    splits = []
    first_uid = 0
    for count in (spec.train_utterances, spec.cv_utterances, spec.test_utterances):
        splits.append(_generate_split(spec, count, first_uid, *task, rng))
        first_uid += count
    return SplitSet(*splits)


def validate_soft_targets(soft_set, dataset: FrameDataset) -> list[str]:
    """Consistency check between a soft-target set and a dataset.

    Returns a list of human-readable violations; empty means valid.
    Never mutates either argument. A NaN or infinite entry is outside
    [0, 1]. Row normalization is checked at the 1e-6 tolerance of the
    float32 rows, on float64 sums of their widened values.
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
    # NaN fails both comparisons, so it lands outside the range
    bad_range = np.flatnonzero(~((rows >= 0) & (rows <= 1)).all(axis=1))
    for idx in bad_range[:10]:
        violations.append(f"row {idx} has entries outside [0, 1]")
    with np.errstate(invalid="ignore"):  # inf - inf in a row sums to NaN
        sums = rows.sum(axis=1, dtype=np.float64)
    bad_norm = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
    for idx in bad_norm[:10]:
        violations.append(f"row {idx} sums to {sums[idx]:.9f}, expected 1 within 1e-6")
    return violations
