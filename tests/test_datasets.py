"""Synthetic task generator and dataset invariants."""

import hashlib
import warnings

import numpy as np
import pytest
from test_training import traced_peak

from kdtrain import datasets
from kdtrain.datasets import (
    _ADD_ROWS,
    _CHUNK_FRAMES,
    FrameDataset,
    SynthTaskSpec,
    Utterance,
    _blend_means,
    generate_synth,
    validate_soft_targets,
)
from kdtrain.distill import SoftTargetSet
from kdtrain.errors import InvalidArgumentError, ShapeError


def utterance_slice(ds, index):
    """The rows of utterance ``index`` on the flat frame axis."""
    u = ds.utterances[index]
    return slice(u.offset, u.offset + u.count)


class TestFrameDataset:
    def test_partition_must_be_exact(self):
        feats = np.zeros((10, 2))
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ShapeError):
            FrameDataset([Utterance(0, 0, 4), Utterance(1, 5, 5)], feats, labels, 3)
        with pytest.raises(ShapeError):
            FrameDataset([Utterance(0, 0, 4), Utterance(1, 4, 4)], feats, labels, 3)

    def test_label_range_checked(self):
        feats = np.zeros((4, 2))
        with pytest.raises(ShapeError):
            FrameDataset([Utterance(0, 0, 4)], feats, np.array([0, 1, 2, 5]), 3)

    def test_utterance_slice(self):
        ds = FrameDataset(
            [Utterance(0, 0, 3), Utterance(1, 3, 2)],
            np.arange(10).reshape(5, 2).astype(float),
            np.zeros(5, dtype=int),
            2,
        )
        assert utterance_slice(ds, 1) == slice(3, 5)
        assert ds.total_frames == 5
        assert ds.feature_dim == 2


class TestSynthTaskSpec:
    def test_degenerate_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SynthTaskSpec(num_classes=1)
        with pytest.raises(InvalidArgumentError):
            SynthTaskSpec(feature_dim=0)
        with pytest.raises(InvalidArgumentError):
            SynthTaskSpec(noise_corr=1.0)
        for noise in (float("inf"), [1.0, -0.5, 1.0], [1.0, float("nan"), 1.0]):
            with pytest.raises(InvalidArgumentError, match="noise_scale"):
                SynthTaskSpec(num_classes=3, noise_scale=noise)
        for noise in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]):
            with pytest.raises(ShapeError, match="noise_scale"):
                SynthTaskSpec(num_classes=3, noise_scale=noise)


def loop_blend_means(labels, centroids, blend):
    """Reference for one utterance, frame by frame: a frame k < blend
    frames before its segment's end blends toward the next segment's
    class; otherwise a frame k < blend frames after its segment's start
    blends toward the previous segment's class."""
    means = centroids[labels].copy()
    for p in range(labels.size):
        end = start = p
        while end + 1 < labels.size and labels[end + 1] == labels[p]:
            end += 1
        while start > 0 and labels[start - 1] == labels[p]:
            start -= 1
        if end + 1 < labels.size and end - p < blend:
            k, other = end - p, labels[end + 1]
        elif start > 0 and p - start < blend:
            k, other = p - start, labels[start - 1]
        else:
            continue
        w = 0.5 - (k + 0.5) / (2 * blend)
        means[p] = (1.0 - w) * centroids[labels[p]] + w * centroids[other]
    return means


def small_spec(**kw):
    base = dict(
        num_classes=4, feature_dim=3, noise_scale=1.0, train_utterances=12, cv_utterances=4,
        test_utterances=4, min_frames=10, max_frames=20,
    )
    base.update(kw)
    return SynthTaskSpec(**base)


class TestGenerateSynth:
    # sha256 over each split's features widened to float64 (the
    # generator's dtype when they were pinned) then labels.tobytes(),
    # train, cv, test, at seed 11; recorded from the per-frame reference
    # generator (one rng.choice per label, one AR(1) step per utterance
    # frame), so a faster generator must reproduce it byte for byte.
    # "ar1_wide_blend_chunks" was recorded from the generator that
    # finished each split whole, and its train split (19,638 frames, 182
    # 1-frame utterances) spans three chunks. The two blend-3 pins were
    # re-recorded when each blend became bounded by its frame's own
    # segment (``loop_blend_means``); blend 2 gives the bits it gave.
    PINNED = {
        "ar1_wide_blend": (
            dict(num_classes=4, feature_dim=5, self_loop=0.5, noise_scale=[0.5, 1.0, 2.0, 0.1],
                 noise_corr=0.5, blend_frames=3, min_frames=1, max_frames=15,
                 train_utterances=12, cv_utterances=4, test_utterances=4),
            "df3c67e7425a871bd7b424f9bec42714f0cf77364d375c3823765c1a4f9a06af",
        ),
        "ar1_wide_blend_chunks": (
            dict(num_classes=4, feature_dim=5, self_loop=0.5, noise_scale=[0.5, 1.0, 2.0, 0.1],
                 noise_corr=0.5, blend_frames=3, min_frames=1, max_frames=15,
                 train_utterances=2500, cv_utterances=4, test_utterances=4),
            "64e46e777dc738c39ac353648ded77f51c83f7fc244df8867dd1f50ed3379497",
        ),
        "desk_like": (
            dict(num_classes=6, feature_dim=3, self_loop=0.7, noise_scale=1.0, noise_corr=0.85,
                 blend_frames=2,
                 min_frames=5, max_frames=25, train_utterances=10, cv_utterances=3,
                 test_utterances=3),
            "0534d5cebe81d5e087fc3a26b2425d3ce031a33a1eebdb86ebde19a1234266e2",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_bytes_match_pinned_digest(self, name):
        kwargs, want = self.PINNED[name]
        splits = generate_synth(SynthTaskSpec(**kwargs), 11)
        h = hashlib.sha256()
        for ds in (splits.train, splits.cv, splits.test):
            h.update(ds.features.astype(np.float64).tobytes())
            h.update(ds.labels.tobytes())
        assert h.hexdigest() == want

    def test_chunked_pin_spans_several_chunks(self):
        """The chunked pin crosses chunk boundaries with 1-frame
        utterances on the train split."""
        kwargs, _ = self.PINNED["ar1_wide_blend_chunks"]
        train = generate_synth(SynthTaskSpec(**kwargs), 11).train
        assert train.total_frames > 2 * _CHUNK_FRAMES
        assert sum(u.count == 1 for u in train.utterances) > 100

    # (spec, chunk frames, the frames of each chunk when they are known):
    # a chunk of one utterance at most; one that three 12-frame
    # utterances fill exactly, so train's 12 fill four chunks and cv's
    # and test's 4 fill one and start another; and one past any split
    CHUNKINGS = {
        "max_frames": (small_spec(min_frames=1, max_frames=25, blend_frames=3), 25, None),
        "exact fill": (small_spec(min_frames=12, max_frames=12), 36, [36] * 4 + [36, 12] * 2),
        "past a split": (small_spec(), 12 * 20 + 1, None),
    }

    @pytest.mark.parametrize("name", sorted(CHUNKINGS))
    def test_chunk_size_changes_no_byte(self, monkeypatch, name):
        """The splits are the same bytes whatever ``_CHUNK_FRAMES`` is:
        a chunk is finished before the noise of an utterance that would
        not fit, and after a split's last utterance, so every chunk is
        whole utterances and no more frames than the buffer holds."""
        spec, chunk, frames = self.CHUNKINGS[name]
        want = generate_synth(spec, 17)
        sizes, finish = [], datasets._finish_chunk

        def recording(spec, eps, chains, *args):
            sizes.append((sum(chain.size for chain in chains), len(chains)))
            return finish(spec, eps, chains, *args)

        monkeypatch.setattr(datasets, "_CHUNK_FRAMES", chunk)
        monkeypatch.setattr(datasets, "_finish_chunk", recording)
        got = generate_synth(spec, 17)
        for a, b in zip(want, got, strict=True):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()
            assert a.utterances == b.utterances
        assert sum(n for _, n in sizes) == sum(len(ds.utterances) for ds in want)
        assert max(n for n, _ in sizes) <= max(chunk, spec.max_frames)
        if frames is not None:
            assert [n for n, _ in sizes] == frames
        if chunk > spec.train_utterances * spec.max_frames:
            assert len(sizes) == 3
        else:
            assert len(sizes) > 3

    def test_deterministic_given_seed(self):
        a = generate_synth(small_spec(), 123)
        b = generate_synth(small_spec(), 123)
        np.testing.assert_array_equal(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.train.labels, b.train.labels)
        np.testing.assert_array_equal(a.test.features, b.test.features)

    def test_different_seed_differs(self):
        a = generate_synth(small_spec(), 123)
        b = generate_synth(small_spec(), 124)
        assert not np.array_equal(a.train.features, b.train.features)

    def test_zero_noise_zero_blend_gives_exact_centroids(self):
        """Features are the 32-bit-rounded class centroids."""
        s = generate_synth(small_spec(noise_scale=0.0, blend_frames=0), 7)
        spec_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
        centroids = spec_rng.normal(0.0, 1.0, size=(4, 3))
        want = centroids.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(s.train.features, want[s.train.labels])

    def test_self_loop_one_keeps_one_class_per_utterance(self):
        s = generate_synth(small_spec(self_loop=1.0), 11)
        for ds in (s.train, s.cv, s.test):
            for i in range(len(ds.utterances)):
                labels = ds.labels[utterance_slice(ds, i)]
                assert np.all(labels == labels[0])

    @pytest.mark.parametrize("noise", [1e39, 1e300])
    def test_noise_past_float32_is_refused_without_a_warning(self, noise):
        """1e39 passes float32's range only in the cast, 1e300 passes
        float64's in the noise product; neither warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="noise_scale .* overflows float32"):
                generate_synth(small_spec(noise_scale=noise), 13)

    def test_disjoint_utterance_ids(self):
        s = generate_synth(small_spec(), 13)
        ids = [u.uid for ds in (s.train, s.cv, s.test) for u in ds.utterances]
        assert len(ids) == len(set(ids))

    def test_empirical_transitions_match_matrix(self):
        """Counted class-transition frequencies over ~1e5 frames agree
        with the chain's transition matrix within 0.02 per entry."""
        spec = SynthTaskSpec(noise_scale=1.0, train_utterances=1800, cv_utterances=1,
                             test_utterances=1)
        s = generate_synth(spec, 17)
        ds = s.train
        assert ds.total_frames >= 90_000
        k = spec.num_classes
        counts = np.zeros((k, k))
        for i in range(len(ds.utterances)):
            labels = ds.labels[utterance_slice(ds, i)]
            np.add.at(counts, (labels[:-1], labels[1:]), 1.0)
        empirical = counts / counts.sum(axis=1, keepdims=True)
        off = (1.0 - spec.self_loop) / (k - 1)
        expected = np.full((k, k), off)
        np.fill_diagonal(expected, spec.self_loop)
        assert np.abs(empirical - expected).max() < 0.02

    @pytest.mark.parametrize("blend", [1, 2, 3, 5])
    def test_blend_means_equals_per_utterance_loop(self, blend):
        """Short segments and 1-frame utterances included, bit for bit."""
        rng = np.random.default_rng(blend)
        centroids = rng.normal(size=(3, 4))
        lengths = rng.integers(1, 12, size=40)
        chunks = [rng.integers(0, 3, size=n) for n in lengths]
        labels = np.concatenate(chunks)
        first = np.zeros(labels.size, dtype=bool)
        first[np.cumsum(lengths) - lengths] = True
        want = np.concatenate([loop_blend_means(c, centroids, blend) for c in chunks])
        vectors, row = _blend_means(labels, first, centroids, blend)
        np.testing.assert_array_equal(vectors[row], want)

    def test_a_blend_stays_inside_its_frames_segment(self):
        """Labels 2, 1, 2, 3 at blend 3: frame 0 is the last frame of its
        segment, so it takes 5/12 of class 1, the next segment's, and
        nothing of class 3 beyond it."""
        labels = np.array([2, 1, 2, 3])
        vectors, row = _blend_means(labels, np.array([True, False, False, False]), np.eye(4), 3)
        want = np.array([[0, 5, 7, 0], [0, 7, 5, 0], [0, 0, 7, 5], [0, 0, 5, 7]]) / 12
        np.testing.assert_allclose(vectors[row], want, rtol=0, atol=1e-15)

    def test_boundary_frames_are_convex_blends(self):
        """With zero noise, frames near a transition sit strictly between
        the two adjacent centroids."""
        s = generate_synth(small_spec(noise_scale=0.0, blend_frames=2, self_loop=0.6), 19)
        ds = s.train
        spec_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(19)))
        centroids = spec_rng.normal(0.0, 1.0, size=(4, 3))
        checked = 0
        for i in range(len(ds.utterances)):
            sl = utterance_slice(ds, i)
            labels = ds.labels[sl]
            feats = ds.features[sl]
            changes = np.flatnonzero(labels[1:] != labels[:-1]) + 1
            for j in changes:
                a, b = labels[j - 1], labels[j]
                # frame just left of the boundary: 0.625 own + 0.375 next
                want = 0.625 * centroids[a] + 0.375 * centroids[b]
                got = feats[j - 1]
                if np.array_equal(
                    got, (0.625 * centroids[a] + 0.375 * centroids[b])
                    .astype(np.float32).astype(np.float64)
                ):
                    checked += 1
        assert checked > 10

    def test_generation_holds_each_split_once(self):
        """The traced peak is at most 3x the largest split's features
        in float64, the bound of a generator that finishes each split
        whole in float64: its noise buffer (room for count x max_frames
        frames, 1.45x the frames drawn at these lengths), the features
        the noise is added to, the smaller splits and index arrays. No
        padded copy of the noise and no full-size temporary."""
        spec = SynthTaskSpec(noise_scale=1.0, train_utterances=400, cv_utterances=20,
                             test_utterances=20)
        splits, peak = traced_peak(generate_synth, spec, 5)
        assert peak <= 3 * splits.train.features.size * 8

    def test_generation_holds_the_float32_splits_and_one_chunk(self):
        """The traced peak is at most each split's float32 buffer (room
        for count x max_frames frames), 16 bytes of labels per frame (the
        utterances' arrays and their concatenation), one chunk's float64
        noise and one slice of means added into it, with 1 MiB for the
        manifests and index arrays; not a float64 copy of a split, nor a
        chunk's features beside its noise."""
        counts = (1000, 50, 50)
        spec = SynthTaskSpec(feature_dim=40, noise_scale=1.0, train_utterances=counts[0],
                             cv_utterances=counts[1], test_utterances=counts[2])
        splits, peak = traced_peak(generate_synth, spec, 5)
        buffers = sum(counts) * spec.max_frames * spec.feature_dim * 4
        frames = sum(ds.total_frames for ds in splits)
        chunk = (_CHUNK_FRAMES + _ADD_ROWS) * spec.feature_dim * 8
        assert peak <= buffers + 16 * frames + chunk + 2**20 < splits.train.features.size * 8 * 2

    def test_noise_corr_makes_consecutive_noise_similar(self):
        flat = generate_synth(small_spec(noise_corr=0.0, blend_frames=0), 21)
        corr = generate_synth(small_spec(noise_corr=0.95, blend_frames=0), 21)

        def mean_step(ds):
            deltas = []
            for i in range(len(ds.utterances)):
                f = ds.features[utterance_slice(ds, i)]
                deltas.append(np.mean(np.sum(np.diff(f, axis=0) ** 2, axis=1)))
            return np.mean(deltas)

        assert mean_step(corr.train) < 0.5 * mean_step(flat.train)


class TestValidateSoftTargets:
    def _dataset(self):
        return generate_synth(small_spec(), 23).train

    def test_matching_pair_is_ok(self):
        ds = self._dataset()
        soft = SoftTargetSet(1.0, np.full((ds.total_frames, 4), 0.25))
        assert validate_soft_targets(soft, ds) == []

    def test_frame_count_mismatch(self):
        ds = self._dataset()
        soft = SoftTargetSet(1.0, np.full((ds.total_frames - 1, 4), 0.25))
        violations = validate_soft_targets(soft, ds)
        assert any("frame count mismatch" in v for v in violations)

    def test_class_count_mismatch(self):
        ds = self._dataset()
        soft = SoftTargetSet(1.0, np.full((ds.total_frames, 5), 0.2))
        assert any("class count" in v for v in validate_soft_targets(soft, ds))

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [np.inf, -np.inf]],
                             ids=["nan", "inf", "inf-and-minus-inf"])
    def test_non_finite_entry_is_outside_the_range(self, bad):
        """NaN fails every comparison; a row of inf and -inf sums to NaN
        without a RuntimeWarning."""
        ds = self._dataset()
        rows = np.full((ds.total_frames, 4), 0.25)
        rows[5, : len(bad)] = bad
        violations = validate_soft_targets(SoftTargetSet(1.0, rows), ds)
        assert violations[0] == "row 5 has entries outside [0, 1]"

    def test_off_normalized_row_named(self):
        ds = self._dataset()
        rows = np.full((ds.total_frames, 4), 0.25)
        rows[7] = [0.3, 0.3, 0.2, 0.1]
        rows[7] *= 0.9
        violations = validate_soft_targets(SoftTargetSet(1.0, rows), ds)
        assert any("row 7" in v for v in violations)
