"""Binary artifact formats: bit-exact round trips and precise rejection
of malformed files."""

import hashlib
import struct

import numpy as np
import pytest
from test_training import traced_peak

from kdtrain import formats
from kdtrain.datasets import FrameDataset, SynthTaskSpec, Utterance, generate_synth
from kdtrain.distill import SoftTargetSet, export_soft_targets
from kdtrain.errors import FormatError
from kdtrain.feedforward import init_feedforward
from kdtrain.formats import (
    EpochStats,
    RunRecord,
    checkpoint_digest,
    export_manifest_text,
    read_checkpoint,
    read_dataset,
    read_run_record,
    read_soft_targets,
    run_record_text,
    write_atomic,
    write_checkpoint,
    write_dataset,
    write_run_record,
    write_soft_targets,
)
from kdtrain.lstm import init_lstm


def written(write, obj, path) -> bytes:
    """The bytes that ``write`` puts in the file ``path`` for ``obj``."""
    write(path, obj)
    return path.read_bytes()


@pytest.fixture(scope="module")
def dataset():
    spec = SynthTaskSpec(
        num_classes=5, feature_dim=4, noise_scale=1.0, train_utterances=8, cv_utterances=2,
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

    def test_round_trip_equals_a_dataset_built_from_float64(self, tmp_path):
        """A dataset rounds float64 features to float32 once, when it is
        built, so it holds what the file stores, bit for bit; a strided
        input ends up C-contiguous."""
        rng = np.random.default_rng(47)
        ds = FrameDataset(
            [Utterance(0, 0, 7), Utterance(1, 7, 5)], rng.normal(scale=1e3, size=(3, 12)).T,
            rng.integers(0, 4, 12), 4,
        )
        assert ds.features.dtype == np.float32 and ds.features.flags.c_contiguous
        path = tmp_path / "d.dkds"
        write_dataset(path, ds)
        loaded = read_dataset(path)
        assert loaded.features.dtype == np.float32
        assert loaded.features.tobytes() == ds.features.tobytes()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feature_names_frame_and_offset(self, dataset, tmp_path, value):
        raw = bytearray(written(write_dataset, dataset, tmp_path / "ok.dkds"))
        d = dataset.feature_dim
        features_off = len(raw) - 4 * dataset.total_frames * d
        frame, dim = 5, 2
        at = features_off + 4 * (frame * d + dim)
        raw[at : at + 4] = struct.pack("<f", value)
        p = tmp_path / "n.dkds"
        p.write_bytes(bytes(raw))
        message = f"non-finite feature {value} at frame index {frame}"
        with pytest.raises(FormatError, match=message) as exc:
            read_dataset(p)
        assert exc.value.offset == at

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
        raw = bytearray(written(write_dataset, dataset, tmp_path / "ok.dkds"))
        raw[0] = ord(b"X")
        p = tmp_path / "bad.dkds"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            read_dataset(p)
        assert exc.value.offset == 0

    def test_unknown_version_rejected(self, dataset, tmp_path):
        raw = bytearray(written(write_dataset, dataset, tmp_path / "ok.dkds"))
        raw[5] = 99
        p = tmp_path / "v.dkds"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            read_dataset(p)
        assert exc.value.offset == 5

    def test_truncated_features_report_offset(self, dataset, tmp_path):
        raw = written(write_dataset, dataset, tmp_path / "ok.dkds")
        p = tmp_path / "t.dkds"
        p.write_bytes(raw[:-10])
        with pytest.raises(FormatError) as exc:
            read_dataset(p)
        assert exc.value.offset is not None
        assert "truncated" in str(exc.value)

    def test_corrupted_label_names_frame_index(self, dataset, tmp_path):
        raw = bytearray(written(write_dataset, dataset, tmp_path / "ok.dkds"))
        # labels start after header (6) + counts (24) + manifest (24/utt)
        labels_off = 6 + 24 + 24 * len(dataset.utterances)
        frame = 3
        raw[labels_off + 2 * frame : labels_off + 2 * frame + 2] = (255).to_bytes(2, "little")
        p = tmp_path / "c.dkds"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            read_dataset(p)
        assert f"frame index {frame}" in str(exc.value)

    @pytest.mark.parametrize("at, value, shown", [(6, 1, "K=1, D=4"), (10, 0, "K=5, D=0")],
                             ids=["one-class", "no-features"])
    def test_degenerate_header_rejected(self, dataset, tmp_path, at, value, shown):
        raw = bytearray(written(write_dataset, dataset, tmp_path / "ok.dkds"))
        raw[at : at + 4] = struct.pack("<I", value)
        p = tmp_path / "h.dkds"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"degenerate header {shown}") as exc:
            read_dataset(p)
        assert exc.value.offset == 6

    def test_manifest_that_does_not_partition_the_frames_rejected(self, dataset, tmp_path):
        raw = bytearray(written(write_dataset, dataset, tmp_path / "ok.dkds"))
        # the first utterance's offset field: header (30), then its uid (8)
        raw[38:46] = struct.pack("<Q", 1)
        p = tmp_path / "m.dkds"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="inconsistent manifest: .* breaks the partition"):
            read_dataset(p)

    def test_trailing_bytes_rejected(self, dataset, tmp_path):
        p = tmp_path / "x.dkds"
        p.write_bytes(written(write_dataset, dataset, tmp_path / "ok.dkds") + b"junk")
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
        soft = next(export_soft_targets(teacher, dataset, [2.0]))
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
        soft = next(export_soft_targets(teacher, dataset, [1.0]))
        p = tmp_path / "s.dkst"
        write_soft_targets(p, soft)
        loaded = read_soft_targets(p)
        np.testing.assert_allclose(loaded.rows, soft.rows, atol=1e-7)
        assert np.abs(loaded.rows.sum(axis=1) - 1.0).max() < 1e-6

    def test_read_rows_are_the_stored_float32_values(self, dataset, tmp_path):
        """A fresh set and the set read from its file hold the same
        float32 values, byte for byte."""
        teacher = init_feedforward([4, 6, 5], np.random.default_rng(36))
        soft = next(export_soft_targets(teacher, dataset, [2.0]))
        p = tmp_path / "s.dkst"
        write_soft_targets(p, soft)
        loaded = read_soft_targets(p)
        for rows in (soft.rows, loaded.rows):
            assert rows.dtype == np.float32 and rows.flags.c_contiguous
        assert loaded.rows.tobytes() == soft.rows.tobytes()

    def test_truncation_rejected(self, dataset, tmp_path):
        soft = SoftTargetSet(1.0, np.full((dataset.total_frames, 5), 0.2))
        raw = written(write_soft_targets, soft, tmp_path / "ok.dkst")
        p = tmp_path / "t.dkst"
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            read_soft_targets(p)

    @pytest.mark.parametrize("at, fmt, value, shown", [
        (6, "<d", 0.0, "T=0.0, K=5"), (6, "<d", -2.0, "T=-2.0, K=5"),
        (6, "<d", float("nan"), "T=nan, K=5"), (22, "<I", 1, "T=1.0, K=1"),
    ], ids=["T=0", "T<0", "T=nan", "K=1"])
    def test_bad_header_rejected(self, dataset, tmp_path, at, fmt, value, shown):
        soft = SoftTargetSet(1.0, np.full((dataset.total_frames, 5), 0.2))
        raw = bytearray(written(write_soft_targets, soft, tmp_path / "ok.dkst"))
        raw[at : at + struct.calcsize(fmt)] = struct.pack(fmt, value)
        p = tmp_path / "h.dkst"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"bad header {shown}") as exc:
            read_soft_targets(p)
        assert exc.value.offset == 6

    def test_infinite_header_temperature_rejected(self, dataset, tmp_path):
        soft = SoftTargetSet(1.0, np.full((dataset.total_frames, 5), 0.2))
        raw = bytearray(written(write_soft_targets, soft, tmp_path / "ok.dkst"))
        raw[6:14] = struct.pack("<d", float("inf"))
        p = tmp_path / "h.dkst"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="bad header T=inf, K=5") as exc:
            read_soft_targets(p)
        assert exc.value.offset == 6

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
        raw = bytearray(written(write_checkpoint, p, tmp_path / "ok.dkdm"))
        raw[6] = 9
        path = tmp_path / "a.dkdm"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert "architecture" in str(exc.value)

    def test_truncation_reports_offset(self, tmp_path):
        p = init_lstm(3, 2, layers=1, cells=3, projection=2, rng=np.random.default_rng(39))
        raw = written(write_checkpoint, p, tmp_path / "ok.dkdm")
        path = tmp_path / "t.dkdm"
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert exc.value.offset is not None

    def test_non_model_object_is_refused(self, tmp_path):
        with pytest.raises(FormatError, match="cannot checkpoint object of type dict"):
            write_checkpoint(tmp_path / "x.dkdm", {"weights": []})
        assert list(tmp_path.iterdir()) == []

    def test_lstm_whose_layers_differ_in_width_is_refused(self, tmp_path):
        """The header holds one C and P for every layer, so a model whose
        layers differ cannot be written in a form that reads back."""
        p = init_lstm(5, 4, layers=2, cells=6, projection=3, rng=np.random.default_rng(40))
        q = init_lstm(3, 4, layers=1, cells=5, projection=3, rng=np.random.default_rng(40))
        p.layers[1] = q.layers[0]
        with pytest.raises(FormatError, match="do not fit its header"):
            write_checkpoint(tmp_path / "x.dkdm", p)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "tag, shape, n_values, message",
        [
            # w_x 8x3, w_r 8x4, bias 8, w_p 4x2, w_out 2x4, b_out 2
            (1, (1, 3, 2, 4, 2), 82, "projection dim 4 exceeds cell dim 2"),
            (0, (0, 5), 0, "need one (weight, bias) pair per layer"),
        ],
        ids=["lstm-projection-wider-than-cells", "feedforward-no-layers"],
    )
    def test_header_that_disagrees_with_itself_names_file_and_header(
        self, tmp_path, tag, shape, n_values, message
    ):
        """The full payload the header asks for is present, so only the
        model's own shape rules can refuse it."""
        path = tmp_path / "bad.dkdm"
        path.write_bytes(
            b"DKDM1" + struct.pack(f"<BB{len(shape)}I", 1, tag, *shape) + bytes(8 * n_values)
        )
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert str(path) in str(exc.value)
        assert f"inconsistent header {shape}: {message}" in str(exc.value)


def _init_models():
    """Four init models at fixed seeds: FF with and without a hidden
    layer, a 1-layer and a 2-layer LSTM."""
    return {
        "ff-5-8-4": init_feedforward([5, 8, 4], np.random.default_rng(41)),
        "ff-5-4": init_feedforward([5, 4], np.random.default_rng(42)),
        "lstm-1-layer": init_lstm(5, 4, layers=1, cells=6, projection=3,
                                  rng=np.random.default_rng(43)),
        "lstm-2-layer": init_lstm(5, 4, layers=2, cells=6, projection=3,
                                  rng=np.random.default_rng(44)),
    }


class TestModelLayout:
    # sha256 of the checkpoint file, recorded before init, copy and the
    # checkpoint writer were rewritten over array_shapes/from_arrays.
    # Only the generator and byte packing are involved, no BLAS, so they
    # hold on every platform.
    PINNED = {
        "ff-5-8-4": "fa10b5e406f075c431dbcf7ca3ed71f26973d041ec73a674571460980d81050f",
        "ff-5-4": "5623a0df570226352a74081c0dfb743c049f99c597be65858ffda0595022fae3",
        "lstm-1-layer": "7ed9bcc3f7d7bb69832e591076a6e4953259abd1250fe966c2c6e3f12296e148",
        "lstm-2-layer": "96ffd439a40e248e3dbbe6bebf00b400c6270b6d3cf170dd75dabb7ea65025c3",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_init_checkpoint_bytes_are_pinned(self, tmp_path, name):
        raw = written(write_checkpoint, _init_models()[name], tmp_path / "m.dkdm")
        assert hashlib.sha256(raw).hexdigest() == self.PINNED[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_layout_contract(self, name):
        p = _init_models()[name]
        arrays = p.arrays()
        assert [a.shape for a in arrays] == list(p.array_shapes(p.shape()))
        q = type(p).from_arrays(arrays)
        assert type(q) is type(p) and q.shape() == p.shape()
        for a, b in zip(arrays, q.arrays(), strict=True):
            assert b is a
        c = p.copy()
        assert type(c) is type(p)
        for a, b in zip(arrays, c.arrays(), strict=True):
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(a, b)


class TestStreamedWriters:
    """Each writer streams its serializer's parts to the file without
    joining them; the files are pinned to the bytes the joined
    serializer wrote. The checkpoint pins are TestModelLayout's."""

    DATASET = "d531c2c35ddc07ed823b0a109649d1ccb68a7ca5155b30d4e30bb3ff4c268d63"
    SOFT = "5b195adb1dd8418b9bde1fc9ca31da80d1d3723ac384e53da5fd2985c175b7b0"

    def test_dataset_file_is_pinned(self, dataset, tmp_path):
        write_dataset(tmp_path / "d.dkds", dataset)
        assert hashlib.sha256((tmp_path / "d.dkds").read_bytes()).hexdigest() == self.DATASET

    def test_soft_targets_file_is_pinned(self, tmp_path):
        rows = np.random.default_rng(45).random((37, 5))
        write_soft_targets(tmp_path / "s.dkst", SoftTargetSet(2.5, rows, bytes(range(32))))
        assert hashlib.sha256((tmp_path / "s.dkst").read_bytes()).hexdigest() == self.SOFT

    @pytest.mark.parametrize("name", sorted(TestModelLayout.PINNED))
    def test_checkpoint_file_and_digest_are_pinned(self, tmp_path, name):
        params = _init_models()[name]
        write_checkpoint(tmp_path / "m.dkdm", params)
        want = TestModelLayout.PINNED[name]
        assert hashlib.sha256((tmp_path / "m.dkdm").read_bytes()).hexdigest() == want
        assert checkpoint_digest(params).hex() == want


class TestAtomicWrites:
    def test_a_write_that_raises_midway_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "a.bin"
        write_atomic(path, [b"earlier"])

        def parts():
            yield b"DKDS1"
            # the write is under way, in a temp file beside the target
            assert len(list(tmp_path.iterdir())) == 2
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_atomic(path, parts())
        assert path.read_bytes() == b"earlier"
        assert list(tmp_path.iterdir()) == [path]

    def test_a_writer_that_fails_midway_keeps_the_earlier_file(
        self, dataset, tmp_path, monkeypatch
    ):
        path = tmp_path / "d.dkds"
        write_dataset(path, dataset)
        before = path.read_bytes()
        header, *payload = formats._dataset_parts(dataset)
        # a part that is not bytes-like fails the write after the header
        monkeypatch.setattr(formats, "_dataset_parts", lambda ds: [header, None, *payload])
        with pytest.raises(TypeError):
            write_dataset(path, dataset)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestZeroCopyReads:
    """Readers read each payload with ``np.fromfile`` into the array
    that keeps it, so every returned array is a fresh, writable array
    that owns its memory, and no read holds a payload twice."""

    @staticmethod
    def _assert_owned(*arrays):
        for a in arrays:
            assert a.flags.writeable and a.flags.owndata and a.base is None

    def test_dataset_arrays_own_their_memory(self, dataset, tmp_path):
        write_dataset(tmp_path / "d.dkds", dataset)
        loaded = read_dataset(tmp_path / "d.dkds")
        self._assert_owned(loaded.features, loaded.labels)

    def test_soft_target_rows_own_their_memory(self, tmp_path):
        write_soft_targets(tmp_path / "s.dkst", SoftTargetSet(1.0, np.full((9, 3), 1 / 3)))
        loaded = read_soft_targets(tmp_path / "s.dkst")
        self._assert_owned(loaded.rows)
        assert type(loaded.teacher_digest) is bytes

    @pytest.mark.parametrize("name", ["ff-5-8-4", "lstm-2-layer"])
    def test_checkpoint_arrays_own_their_memory(self, tmp_path, name):
        write_checkpoint(tmp_path / "m.dkdm", _init_models()[name])
        self._assert_owned(*read_checkpoint(tmp_path / "m.dkdm").arrays())

    def test_read_peak_is_the_file_and_the_result(self, tmp_path):
        """Besides the file's bytes and the arrays returned, a read holds
        only small transients: no second copy of any payload."""
        frames, dim = 20_000, 20
        rng = np.random.default_rng(46)
        ds = FrameDataset(
            [Utterance(0, 0, 8_000), Utterance(1, 8_000, 12_000)],
            rng.normal(size=(frames, dim)).astype(np.float32), rng.integers(0, 10, frames), 10,
        )
        path = tmp_path / "big.dkds"
        write_dataset(path, ds)
        loaded, peak = traced_peak(read_dataset, path)
        result = loaded.features.nbytes + loaded.labels.nbytes
        assert peak <= path.stat().st_size + result + 2**16

    def test_read_peak_is_the_result(self, tmp_path):
        """A read's traced peak is the arrays it returns plus small
        transients (the dataset's u16 labels before they are widened);
        the file's bytes are never held."""
        frames, dim = 20_000, 20
        rng = np.random.default_rng(47)
        ds = FrameDataset(
            [Utterance(0, 0, 8_000), Utterance(1, 8_000, 12_000)],
            rng.normal(size=(frames, dim)).astype(np.float32), rng.integers(0, 10, frames), 10,
        )
        write_dataset(tmp_path / "big.dkds", ds)
        loaded, peak = traced_peak(read_dataset, tmp_path / "big.dkds")
        assert peak <= loaded.features.nbytes + loaded.labels.nbytes + 2**16
        write_soft_targets(tmp_path / "big.dkst",
                           SoftTargetSet(1.0, rng.dirichlet(np.ones(10), size=frames)))
        soft, peak = traced_peak(read_soft_targets, tmp_path / "big.dkst")
        assert peak <= soft.rows.nbytes + 2**16


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

    def test_empty_digest_and_no_test_accuracy_round_trip(self, tmp_path):
        rec = RunRecord("teacher", "hard", 1.0, 0.5, 0, "")
        path = tmp_path / "r.runrec"
        write_run_record(path, rec)
        loaded = read_run_record(path)
        assert loaded.config_digest == "" and loaded.test_accuracy is None
        assert run_record_text(loaded) == run_record_text(rec)

    @pytest.mark.parametrize("field", [
        "kdtrain-runrec", "model", "regime", "temperature", "alpha", "seed", "config_digest",
        "columns",
    ])
    def test_missing_header_field_rejected(self, tmp_path, field):
        lines = run_record_text(_record()).splitlines(keepends=True)
        p = tmp_path / "r.runrec"
        p.write_text("".join(ln for ln in lines if not ln.startswith(f"# {field} ")))
        with pytest.raises(FormatError, match=f"missing '# {field}' line"):
            read_run_record(p)

    @pytest.mark.parametrize("old, new, message", [
        ("# regime reg", "# regime kaldi", "unknown regime 'kaldi'"),
        ("# seed 3", "# seed three", "line 6"),
        ("# columns epoch lr", "# columns epoch rate", "columns are not"),
        (" 41.0 ", " forty-one ", "line 10"),
        ("\n2 ", "\n2.5 ", "line 10"),
        (" 0.7 0.8\n", " 0.7\n", "line 10 has 6 columns"),
        (" 0.7 0.8\n", " 0.7 0.8 0.9\n", "line 10 has 8 columns"),
        ("# kdtrain-runrec v1", "# kdtrain-runrec v2", "unsupported header"),
    ])
    def test_malformed_record_rejected_naming_the_fault(self, tmp_path, old, new, message):
        text = run_record_text(_record())
        assert text.count(old) == 1
        p = tmp_path / "r.runrec"
        p.write_text(text.replace(old, new))
        with pytest.raises(FormatError, match=message):
            read_run_record(p)
