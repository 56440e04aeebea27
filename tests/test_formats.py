"""Binary artifact formats: bit-exact round trips and precise rejection
of malformed files."""

import numpy as np
import pytest

from kdtrain.datasets import FrameDataset, SynthTaskSpec, Utterance, generate_synth
from kdtrain.distill import SoftTargetSet, export_soft_targets
from kdtrain.errors import FormatError
from kdtrain.feedforward import init_feedforward
from kdtrain.formats import (
    EpochStats,
    RunRecord,
    checkpoint_bytes,
    checkpoint_digest,
    dataset_bytes,
    export_manifest_text,
    read_checkpoint,
    read_dataset,
    read_run_record,
    read_soft_targets,
    run_record_text,
    soft_targets_bytes,
    write_checkpoint,
    write_dataset,
    write_run_record,
    write_soft_targets,
)
from kdtrain.lstm import init_lstm


@pytest.fixture(scope="module")
def dataset():
    spec = SynthTaskSpec(
        num_classes=5, feature_dim=4, train_utterances=8, cv_utterances=2,
        test_utterances=2, min_frames=6, max_frames=12,
    )
    return generate_synth(spec, 31).train


class TestDatasetFormat:
    def test_round_trip_is_bit_exact(self, dataset, tmp_path):
        path = tmp_path / "d.dkds"
        write_dataset(path, dataset)
        loaded = read_dataset(path)
        np.testing.assert_array_equal(loaded.features, dataset.features)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        assert [(u.uid, u.offset, u.count) for u in loaded.utterances] == [
            (u.uid, u.offset, u.count) for u in dataset.utterances
        ]
        write_dataset(tmp_path / "d2.dkds", loaded)
        assert (tmp_path / "d.dkds").read_bytes() == (tmp_path / "d2.dkds").read_bytes()

    def test_labels_beyond_u16_rejected_before_writing(self, tmp_path):
        """K = 70,000 is a valid dataset, but label 65,536 would wrap to 0
        in the u16 label field; nothing may be written."""
        ds = FrameDataset([Utterance(0, 0, 2)], np.zeros((2, 3)), [65_535, 65_536], 70_000)
        path = tmp_path / "wide.dkds"
        with pytest.raises(FormatError, match="65536"):
            write_dataset(path, ds)
        assert not path.exists()
        ds.labels[1] = 65_535
        write_dataset(path, ds)
        np.testing.assert_array_equal(read_dataset(path).labels, [65_535, 65_535])

    def test_bad_magic_rejected(self, dataset, tmp_path):
        raw = bytearray(dataset_bytes(dataset))
        raw[0] = ord(b"X")
        p = tmp_path / "bad.dkds"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            read_dataset(p)
        assert exc.value.offset == 0

    def test_unknown_version_rejected(self, dataset, tmp_path):
        raw = bytearray(dataset_bytes(dataset))
        raw[5] = 99
        p = tmp_path / "v.dkds"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            read_dataset(p)
        assert exc.value.offset == 5

    def test_truncated_features_report_offset(self, dataset, tmp_path):
        raw = dataset_bytes(dataset)
        p = tmp_path / "t.dkds"
        p.write_bytes(raw[:-10])
        with pytest.raises(FormatError) as exc:
            read_dataset(p)
        assert exc.value.offset is not None
        assert "truncated" in str(exc.value)

    def test_corrupted_label_names_frame_index(self, dataset, tmp_path):
        raw = bytearray(dataset_bytes(dataset))
        # labels start after header (6) + counts (24) + manifest (24/utt)
        labels_off = 6 + 24 + 24 * len(dataset.utterances)
        frame = 3
        raw[labels_off + 2 * frame : labels_off + 2 * frame + 2] = (255).to_bytes(2, "little")
        p = tmp_path / "c.dkds"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            read_dataset(p)
        assert f"frame index {frame}" in str(exc.value)

    def test_trailing_bytes_rejected(self, dataset, tmp_path):
        p = tmp_path / "x.dkds"
        p.write_bytes(dataset_bytes(dataset) + b"junk")
        with pytest.raises(FormatError):
            read_dataset(p)

    def test_manifest_text(self, dataset):
        text = export_manifest_text(dataset)
        lines = text.strip().splitlines()
        assert len(lines) == len(dataset.utterances)
        uid, off, count = lines[0].split()
        assert (int(uid), int(off), int(count)) == (
            dataset.utterances[0].uid, 0, dataset.utterances[0].count,
        )


class TestSoftTargetFormat:
    def test_write_read_write_is_byte_stable(self, dataset, tmp_path):
        teacher = init_feedforward([4, 6, 5], np.random.default_rng(33))
        soft = export_soft_targets(teacher, dataset, 2.0)
        p1 = tmp_path / "a.dkst"
        write_soft_targets(p1, soft)
        loaded = read_soft_targets(p1)
        assert loaded.temperature == 2.0
        assert loaded.teacher_digest == soft.teacher_digest
        p2 = tmp_path / "b.dkst"
        write_soft_targets(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_survive_storage_at_f32_precision(self, dataset, tmp_path):
        teacher = init_feedforward([4, 6, 5], np.random.default_rng(34))
        soft = export_soft_targets(teacher, dataset, 1.0)
        p = tmp_path / "s.dkst"
        write_soft_targets(p, soft)
        loaded = read_soft_targets(p)
        np.testing.assert_allclose(loaded.rows, soft.rows, atol=1e-7)
        assert np.abs(loaded.rows.sum(axis=1) - 1.0).max() < 1e-6

    def test_truncation_rejected(self, dataset, tmp_path):
        soft = SoftTargetSet(1.0, np.full((dataset.total_frames, 5), 0.2))
        raw = soft_targets_bytes(soft)
        p = tmp_path / "t.dkst"
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            read_soft_targets(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.dkst"
        p.write_bytes(b"NOPE!" + bytes(60))
        with pytest.raises(FormatError) as exc:
            read_soft_targets(p)
        assert exc.value.offset == 0


class TestCheckpointFormat:
    def test_feedforward_round_trip_bit_exact(self, tmp_path):
        p = init_feedforward([4, 7, 3], np.random.default_rng(35))
        path = tmp_path / "ff.dkdm"
        write_checkpoint(path, p)
        q = read_checkpoint(path)
        for a, b in zip(p.arrays(), q.arrays()):
            np.testing.assert_array_equal(a, b)
        write_checkpoint(tmp_path / "ff2.dkdm", q)
        assert path.read_bytes() == (tmp_path / "ff2.dkdm").read_bytes()

    def test_lstm_round_trip_bit_exact(self, tmp_path):
        p = init_lstm(5, 4, layers=2, cells=6, projection=3, rng=np.random.default_rng(36))
        path = tmp_path / "l.dkdm"
        write_checkpoint(path, p)
        q = read_checkpoint(path)
        for a, b in zip(p.arrays(), q.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_digest_tracks_content(self):
        a = init_feedforward([3, 4, 2], np.random.default_rng(37))
        b = a.copy()
        assert checkpoint_digest(a) == checkpoint_digest(b)
        b.weights[0][0, 0] += 1e-9
        assert checkpoint_digest(a) != checkpoint_digest(b)
        assert len(checkpoint_digest(a)) == 32

    def test_unknown_arch_tag(self, tmp_path):
        p = init_feedforward([3, 4, 2], np.random.default_rng(38))
        raw = bytearray(checkpoint_bytes(p))
        raw[6] = 9
        path = tmp_path / "a.dkdm"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert "architecture" in str(exc.value)

    def test_truncation_reports_offset(self, tmp_path):
        p = init_lstm(3, 2, cells=3, projection=2, rng=np.random.default_rng(39))
        raw = checkpoint_bytes(p)
        path = tmp_path / "t.dkdm"
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert exc.value.offset is not None


def _record():
    return RunRecord(
        model="student",
        regime="reg",
        temperature=2.0,
        alpha=0.5,
        seed=3,
        config_digest="ab" * 32,
        epochs=[
            EpochStats(1, 0.003, 2.19722457733, 34.125, 33.9, 0.81, 0.91, 1.5),
            EpochStats(2, 0.0015, 1.9876543210987654, 41.0, 40.25, 0.7, 0.8, 1.4),
        ],
        test_accuracy=51.0625,
    )


class TestRunRecords:
    def test_round_trip_preserves_every_value(self, tmp_path):
        rec = _record()
        path = tmp_path / "r.runrec"
        write_run_record(path, rec)
        loaded = read_run_record(path)
        assert loaded.model == "student" and loaded.regime == "reg"
        assert loaded.temperature == 2.0 and loaded.alpha == 0.5 and loaded.seed == 3
        assert loaded.config_digest == "ab" * 32
        assert loaded.test_accuracy == rec.test_accuracy
        for a, b in zip(loaded.epochs, rec.epochs):
            assert a.epoch == b.epoch
            assert a.learning_rate == b.learning_rate
            assert a.mean_loss == b.mean_loss
            assert a.train_accuracy == b.train_accuracy
            assert a.cv_accuracy == b.cv_accuracy
            assert a.grad_variance == b.grad_variance
            assert a.grad_variance_first_term == b.grad_variance_first_term

    def test_serialization_is_byte_stable_and_omits_wall_clock(self):
        rec = _record()
        text = run_record_text(rec)
        assert run_record_text(_record()) == text
        assert "1.5" not in text.replace("51.0625", "")  # wall seconds absent

    def test_epochs_must_strictly_increase(self):
        with pytest.raises(FormatError):
            RunRecord(
                "student", "hard", 1.0, 0.5, 1, "x",
                epochs=[
                    EpochStats(2, 0.1, 1.0, 1.0, 1.0, 0.0, 0.0),
                    EpochStats(2, 0.1, 1.0, 1.0, 1.0, 0.0, 0.0),
                ],
            )

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.runrec"
        p.write_text("1 0.1 2.0 30.0 29.0 0.5 0.6\n")
        with pytest.raises(FormatError):
            read_run_record(p)
