import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from bct import trainer
from bct.config import ModelConfig, TrainConfig
from bct.data import (
    MANIFEST_NAME,
    allocate_splits,
    ensure_manifest,
    load_manifest,
    load_split,
    make_batches,
    read_ppm,
    resize_nearest,
    scan_dataset,
    stack_batch,
    synth_generate,
    synth_image,
    write_ppm,
)
from bct.errors import ConfigError, DataError
from bct.rng import Rng


class TestPpmCodec:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = Rng(51)
        img = (rng.uniform(5 * 7 * 3) * 256).astype(np.uint8).reshape(5, 7, 3)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        np.testing.assert_array_equal(read_ppm(path), img)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.zeros((2, 3, 3), dtype=np.uint8))
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert len(raw) == len(b"P6\n3 2\n255\n") + 18

    def test_write_is_deterministic(self, tmp_path):
        img = np.arange(27, dtype=np.uint8).reshape(3, 3, 3)
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(a, img)
        write_ppm(b, img)
        assert a.read_bytes() == b.read_bytes()

    def test_tolerant_header_whitespace_and_comments(self, tmp_path):
        pixels = bytes(range(12))
        path = tmp_path / "odd.ppm"
        path.write_bytes(b"P6 # comment\n# another\n  2\t2 \n255\n" + pixels)
        img = read_ppm(path)
        assert img.shape == (2, 2, 3)
        assert img.tobytes() == pixels

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(DataError, match="magic"):
            read_ppm(path)

    def test_truncated_reports_offset(self, tmp_path):
        path = tmp_path / "cut.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(DataError, match="truncated"):
            read_ppm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
        with pytest.raises(DataError, match="maxval"):
            read_ppm(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00\x00")
        with pytest.raises(DataError, match="trailing"):
            read_ppm(path)

    @pytest.mark.parametrize("raw, message", [
        (b"# made by hand\nP6\n1 1\n255\n\x01\x02\x03", None),
        (b"P6#c 1 1 255\n\x01\x02\x03", "bad magic, expected P6 at byte 0"),
        (b"P6\n", "missing width at byte 3"),
        (b"P6 2 x 255\n", "non-numeric height b'x' at byte 6"),
        (b"P6 2#c 1 255\n", "non-numeric width b'2#c' at byte 6"),
    ], ids=["comment-before-magic", "comment-glued-to-magic", "width-at-eof", "height-not-a-number", "hash-inside-token"])
    def test_header_messages_and_offsets(self, tmp_path, raw, message):
        path = tmp_path / "h.ppm"
        path.write_bytes(raw)
        if message is None:
            assert read_ppm(path).tobytes() == b"\x01\x02\x03"
            return
        with pytest.raises(DataError) as e:
            read_ppm(path)
        assert str(e.value) == f"{path}: {message}"


class TestResize:
    def test_upscale_replicates(self):
        src = np.array([[[0], [1]], [[2], [3]]], dtype=np.uint8)
        out = resize_nearest(src, 4, 4)
        want = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]], dtype=np.uint8)
        np.testing.assert_array_equal(out[:, :, 0], want)

    def test_identity_when_same_size(self):
        src = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        np.testing.assert_array_equal(resize_nearest(src, 2, 2), src)

    def test_downscale_picks_floor_source_index(self):
        src = np.arange(16, dtype=np.uint8).reshape(4, 4, 1)
        out = resize_nearest(src, 2, 2)
        # source rows 0,2 and cols 0,2
        np.testing.assert_array_equal(out[:, :, 0], [[0, 2], [8, 10]])


class TestSynth:
    def test_bytes_deterministic(self):
        a = synth_image("checker", 1, 16, 4, 0.1, seed=99)
        b = synth_image("checker", 1, 16, 4, 0.1, seed=99)
        np.testing.assert_array_equal(a, b)
        c = synth_image("checker", 1, 16, 4, 0.1, seed=100)
        assert not np.array_equal(a, c)

    def test_checkerboard_exact_at_zero_noise(self):
        img = synth_image("checker", 1, 16, 8, 0.0, seed=0)
        assert set(np.unique(img)) == {0, 255}
        # cell (0,0) dark, cell (1,0) bright, 8-pixel period
        assert img[0, 0, 0] == 0 and img[0, 8, 0] == 255 and img[8, 0, 0] == 255
        assert img[8, 8, 0] == 0

    def test_gradient_exact_at_zero_noise(self):
        img = synth_image("checker", 0, 64, 8, 0.0, seed=0)
        x = np.arange(64, dtype=np.float64)
        want = np.floor(255.0 * x / 63.0 + 0.5).astype(np.uint8)
        np.testing.assert_array_equal(img[0, :, 0], want)
        np.testing.assert_array_equal(img[0], img[63])  # rows identical

    def test_rings_family_differs(self):
        rings = synth_image("rings", 1, 32, 8, 0.0, seed=0)
        checker = synth_image("checker", 1, 32, 8, 0.0, seed=0)
        assert not np.array_equal(rings, checker)
        diag = synth_image("rings", 0, 32, 8, 0.0, seed=0)
        assert diag[0, 0, 0] == 0 and diag[31, 31, 0] == 255

    def test_noise_bounded(self):
        clean = synth_image("checker", 1, 16, 8, 0.0, seed=0).astype(np.int32)
        noisy = synth_image("checker", 1, 16, 8, 0.1, seed=0).astype(np.int32)
        assert np.abs(noisy - clean).max() <= int(0.1 * 255) + 1

    def test_generate_writes_counts_and_manifest(self, tmp_path):
        m = synth_generate(tmp_path, n_per_class=5, seed=3, image_size=8, ratios=(0.6, 0.2, 0.2))
        assert len(list((tmp_path / "class0").glob("*.ppm"))) == 5
        assert len(list((tmp_path / "class1").glob("*.ppm"))) == 5
        assert (tmp_path / MANIFEST_NAME).is_file()
        assert len(m.entries) == 10

    def test_generate_imbalanced(self, tmp_path):
        m = synth_generate(tmp_path, seed=0, image_size=8, class_counts=(9, 1))
        bal = m.class_balance()
        total0 = sum(bal[s][0] for s in bal)
        total1 = sum(bal[s][1] for s in bal)
        assert (total0, total1) == (9, 1)

    def test_generate_rerun_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        synth_generate(a_dir, n_per_class=3, seed=7, image_size=8)
        synth_generate(b_dir, n_per_class=3, seed=7, image_size=8)
        for rel in sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file()):
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel

    def test_bad_args(self, tmp_path):
        with pytest.raises(ConfigError):
            synth_generate(tmp_path, noise_level=1.5, image_size=8)
        with pytest.raises(ConfigError):
            synth_generate(tmp_path, image_size=8, cell_size=0)
        with pytest.raises(ConfigError):
            synth_image("stripes", 0, 8, 2, 0.0, seed=0)


class TestSplits:
    def test_allocate_hand_values(self):
        assert allocate_splits(10, (0.8, 0.1, 0.1)) == (8, 1, 1)
        assert allocate_splits(7, (0.8, 0.1, 0.1)) == (5, 1, 1)
        assert allocate_splits(5, (0.6, 0.2, 0.2)) == (3, 1, 1)
        # remainder tie 0.5/0.5 between train and val goes to train
        assert allocate_splits(5, (0.5, 0.3, 0.2)) == (3, 1, 1)
        assert allocate_splits(0, (0.8, 0.1, 0.1)) == (0, 0, 0)

    def test_scan_ten_images_gives_8_1_1(self, tmp_path):
        m = synth_generate(tmp_path, n_per_class=5, seed=0, image_size=8)
        sizes = tuple(len(m.ids(s)) for s in ("train", "val", "test"))
        assert sizes == (8, 1, 1)

    def test_partition_disjoint_and_exhaustive(self, tmp_path):
        m = synth_generate(tmp_path, n_per_class=13, seed=5, image_size=8)
        splits = [set(m.ids(s)) for s in ("train", "val", "test")]
        assert sum(len(s) for s in splits) == 26
        assert len(splits[0] | splits[1] | splits[2]) == 26

    def test_same_seed_same_assignment(self, tmp_path):
        synth_generate(tmp_path, n_per_class=10, seed=1, image_size=8)
        m1 = scan_dataset(tmp_path, image_size=8, seed=42)
        m2 = scan_dataset(tmp_path, image_size=8, seed=42)
        assert m1.entries == m2.entries
        m3 = scan_dataset(tmp_path, image_size=8, seed=43)
        assert m3.entries != m1.entries

    def test_resplit_with_the_pinned_ratios_and_another_seed_rescans(self, tmp_path):
        pinned = synth_generate(tmp_path, n_per_class=10, seed=1, image_size=8)
        assert ensure_manifest(tmp_path, image_size=8, seed=2).entries == pinned.entries  # the pin wins
        resplit = ensure_manifest(tmp_path, image_size=8, seed=2, resplit=True)
        assert resplit.seed == load_manifest(tmp_path).seed == 2
        assert resplit.entries == scan_dataset(tmp_path, image_size=8, seed=2).entries != pinned.entries

    def test_ratio_validation(self, tmp_path):
        synth_generate(tmp_path, n_per_class=2, seed=0, image_size=8)
        with pytest.raises(ConfigError, match="sum to 1"):
            scan_dataset(tmp_path, ratios=(0.5, 0.5, 0.2))
        with pytest.raises(ConfigError):
            scan_dataset(tmp_path, ratios=(1.2, -0.1, -0.1))
        for bad in ((float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5), (float("inf"), 0.0, 0.0)):
            with pytest.raises(ConfigError):
                scan_dataset(tmp_path, ratios=bad)

    def test_missing_class_dir(self, tmp_path):
        (tmp_path / "class0").mkdir()
        write_ppm(tmp_path / "class0" / "x.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(DataError, match="class1"):
            scan_dataset(tmp_path)

    def test_empty_class_dir(self, tmp_path):
        (tmp_path / "class0").mkdir()
        (tmp_path / "class1").mkdir()
        write_ppm(tmp_path / "class0" / "x.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(DataError, match="no .ppm"):
            scan_dataset(tmp_path)

    def test_manifest_roundtrip(self, tmp_path):
        m = synth_generate(tmp_path, n_per_class=4, seed=9, image_size=8, ratios=(0.5, 0.25, 0.25))
        back = load_manifest(tmp_path)
        assert back.entries == m.entries
        assert back.image_size == 8
        assert back.ratios == (0.5, 0.25, 0.25)
        assert back.seed == 9

    @pytest.mark.parametrize(
        "header, match",
        [
            ("ratios = 1", "three numbers"),
            ("ratios = 0.5,0.5", "three numbers"),
            ("ratios = 0.5,0.25,0.25,0", "three numbers"),
            ("ratios = nan,0.5,0.5", "three numbers"),
            ("ratios = 0.5,0.5,0.5", "three numbers"),
            ("ratios = -1,1,1", "three numbers"),
            ("image_size = 0", "image_size must be >= 1"),
        ],
        ids=["one_ratio", "two_ratios", "four_ratios", "nan_ratio", "sum_ratio", "negative_ratio", "image_size_0"],
    )
    def test_manifest_header_values_are_checked(self, tmp_path, header, match):
        synth_generate(tmp_path, n_per_class=2, seed=0, image_size=8)
        path = tmp_path / MANIFEST_NAME
        key = header.split(" ")[0]
        lines = [header if line.startswith(key + " ") else line for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=match):
            load_manifest(tmp_path)

    def test_manifest_that_is_not_utf8_is_a_data_error(self, tmp_path):
        synth_generate(tmp_path, n_per_class=2, seed=0, image_size=8)
        path = tmp_path / MANIFEST_NAME
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(DataError, match=MANIFEST_NAME):
            load_manifest(tmp_path)

    def test_manifest_repeated_header_key_names_both_lines(self, tmp_path):
        synth_generate(tmp_path, n_per_class=2, seed=0, image_size=8)
        path = tmp_path / MANIFEST_NAME
        lines = path.read_text().splitlines()
        first = next(i for i, line in enumerate(lines, start=1) if line.startswith("seed "))
        lines.insert(first, "seed = 5")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{MANIFEST_NAME}:{first + 1}: duplicate key 'seed', first set on line {first}$"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("same_split", [True, False], ids=["same_split", "other_split"])
    def test_manifest_repeated_image_names_both_lines(self, tmp_path, same_split):
        synth_generate(tmp_path, n_per_class=3, seed=0, image_size=8)
        path = tmp_path / MANIFEST_NAME
        lines = path.read_text().splitlines()
        img_id, label, split = lines[-1].split("\t")
        other = split if same_split else next(s for s in ("train", "val", "test") if s != split)
        lines.append(f"{img_id}\t{label}\t{other}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{MANIFEST_NAME}:{len(lines)}: image '{img_id}' already listed on line {len(lines) - 1}$"):
            load_manifest(tmp_path)

    def test_class_balance_counts(self, tmp_path):
        m = synth_generate(tmp_path, n_per_class=10, seed=2, image_size=8)
        bal = m.class_balance()
        assert sum(bal[s][0] + bal[s][1] for s in bal) == 20
        assert all(v >= 0 for s in bal for v in bal[s].values())


class TestSamplesAndBatches:
    @pytest.fixture
    def dataset(self, tmp_path):
        return synth_generate(tmp_path, n_per_class=6, seed=4, image_size=8)

    def test_load_split_tensors(self, dataset):
        split = load_split(dataset, "train")
        images = stack_batch(split).images.data
        assert len(split) == len(dataset.ids("train"))
        assert images.shape == (len(split), 3, 8, 8)
        assert images.dtype == np.float32
        assert 0.0 <= float(images.min()) and float(images.max()) <= 1.0
        assert split.labels.dtype == np.int64
        assert set(split.labels.tolist()) <= {0, 1}
        assert list(split.ids) == dataset.ids("train")
        assert [int(i[5]) for i in split.ids] == split.labels.tolist()  # "classN/..."

    def test_load_split_resizes(self, tmp_path):
        synth_generate(tmp_path, n_per_class=2, seed=0, image_size=8)
        m = scan_dataset(tmp_path, image_size=4, seed=0)
        split = load_split(m, "train")
        assert split.pixels.shape[1:] == (3, 4, 4)
        assert stack_batch(split).images.shape[1:] == (3, 4, 4)

    def test_batches_cover_each_sample_once(self, dataset):
        split = load_split(dataset, "train")
        batches = make_batches(split, batch_size=4, seed=11)
        assert all(idx.dtype == np.int64 for idx in batches)
        assert sorted(np.concatenate(batches).tolist()) == list(range(len(split)))
        assert [len(idx) for idx in batches[:-1]] == [4] * (len(batches) - 1)
        assert len(batches[-1]) == len(split) - 4 * (len(batches) - 1)

    def test_batch_onehot_targets(self, dataset):
        split = load_split(dataset, "train")
        b = stack_batch(split[make_batches(split, batch_size=3, seed=0)[0]])
        np.testing.assert_array_equal(b.targets.data.sum(axis=1), np.ones(3))
        for row, label in zip(b.targets.data, b.labels):
            assert row[label] == 1.0

    def test_epoch_seed_changes_order(self, dataset):
        split = load_split(dataset, "train")
        run_seed = 19
        e0 = np.concatenate(make_batches(split, 4, run_seed ^ 0)).tolist()
        e1 = np.concatenate(make_batches(split, 4, run_seed ^ 1)).tolist()
        again = np.concatenate(make_batches(split, 4, run_seed ^ 0)).tolist()
        assert e0 != e1
        assert e0 == again

    def test_empty_split_errors(self, dataset):
        with pytest.raises(DataError):
            make_batches(load_split(dataset, "train")[:0], 4, 0)


class TestDecodedBytesAndLazyBatches:
    """A split keeps its decoded bytes; each batch's floats are built only when the loop reaches it."""

    @pytest.fixture
    def split(self, tmp_path):
        return load_split(synth_generate(tmp_path, n_per_class=8, seed=5, image_size=16), "train")

    def test_pixels_are_the_decoded_bytes(self, split):
        assert split.pixels.dtype == np.uint8
        assert split.pixels.nbytes == len(split) * 3 * 16 * 16
        images = stack_batch(split).images.data
        assert images.tobytes() == (split.pixels.astype(np.float32) / np.float32(255.0)).tobytes()
        assert split[2:5].pixels.base is split.pixels  # a slice gathers no bytes

    def test_make_batches_allocates_under_one_batch(self, split):
        one_batch = 4 * 3 * 16 * 16 * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            batches = make_batches(split, 4, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(batches) == math.ceil(len(split) / 4) > 1
        assert peak < one_batch

    def test_reading_batches_keeps_one_batch_alive(self, split, tmp_path, monkeypatch):
        real, refs = trainer.stack_batch, []

        def stack(sub):
            batch = real(sub)
            if sys._getframe(1).f_code.co_name == "train":  # eval_split's batches are not counted
                # the loop still holds the previous batch until it rebinds the name
                assert sum(r() is not None for r in refs) <= 1
                refs.append(weakref.ref(batch.images.data))
            return batch

        monkeypatch.setattr(trainer, "stack_batch", stack)
        trainer.train(TrainConfig(data_root=str(tmp_path), image_size=16, batch_size=3, max_epochs=2,
                                  model=ModelConfig(channels=(2, 2), dense_width=4)))
        assert len(refs) == 2 * math.ceil(len(split) / 3)

    def test_indexing_reads_the_same_batches(self, split):
        batches = make_batches(split, 5, seed=2)
        order = Rng(2).permutation(len(split))
        assert np.concatenate(batches).tobytes() == order.tobytes()
        assert [split[idx].ids.tolist() for idx in batches] == [
            split.ids[order[start : start + 5]].tolist() for start in range(0, len(split), 5)
        ]
        assert [idx.tolist() for idx in make_batches(split, 5, seed=2)] == [idx.tolist() for idx in batches]


# ---- the array-backed split against the per-sample decode it replaced


def decode_per_sample(manifest, split):
    """One float32 (3, H, W) array per image in manifest order, as the old loader built them."""
    images, labels, ids = [], [], []
    size = manifest.image_size
    for img_id, label, s in manifest.entries:
        if s != split:
            continue
        pixels = read_ppm(manifest.root / img_id)
        if pixels.shape[:2] != (size, size):
            pixels = resize_nearest(pixels, size, size)
        images.append(np.transpose(pixels, (2, 0, 1)).astype(np.float32) / np.float32(255.0))
        labels.append(label)
        ids.append(img_id)
    return images, labels, ids


def batches_per_sample(images, labels, ids, batch_size, seed):
    """The old make_batches: shuffle, then np.stack each batch's per-sample arrays."""
    order = list(range(len(images)))
    Rng(seed).shuffle(order)
    out = []
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        out.append((np.stack([images[i] for i in idx]), np.array([labels[i] for i in idx], dtype=np.int64),
                    [ids[i] for i in idx]))
    return out


@pytest.fixture
def random_bytes_dataset(tmp_path):
    """Non-square 6x10 images of uniform random bytes, so nearly every byte value is decoded."""
    rng = Rng(77)
    for label, n in ((0, 9), (1, 7)):
        (tmp_path / f"class{label}").mkdir()
        for i in range(n):
            img = (rng.uniform(6 * 10 * 3) * 256).astype(np.uint8).reshape(6, 10, 3)
            write_ppm(tmp_path / f"class{label}" / f"img_{i:02d}.ppm", img)
    return tmp_path


class TestSplitByteOracle:
    @pytest.mark.parametrize("split", ["train", "val", "test"])
    @pytest.mark.parametrize("image_size", [8, 5, 13])
    def test_images_equal_per_sample_decode(self, random_bytes_dataset, split, image_size):
        m = scan_dataset(random_bytes_dataset, image_size=image_size, ratios=(0.5, 0.25, 0.25), seed=3)
        images, labels, ids = decode_per_sample(m, split)
        got = load_split(m, split)
        assert len(got) == len(images) > 0
        got_images = stack_batch(got).images.data
        assert got_images.dtype == np.float32 and got_images.shape == (len(images), 3, image_size, image_size)
        assert got_images.tobytes() == np.stack(images).tobytes()
        assert got.labels.tobytes() == np.array(labels, dtype=np.int64).tobytes()
        assert list(got.ids) == ids

    def test_file_size_images_equal_per_sample_decode(self, tmp_path):
        m = synth_generate(tmp_path, n_per_class=5, seed=8, noise_level=0.5, image_size=8)
        for split in ("train", "val", "test"):
            images, _, _ = decode_per_sample(m, split)
            assert stack_batch(load_split(m, split)).images.data.tobytes() == np.stack(images).tobytes()

    def test_empty_split(self, random_bytes_dataset):
        m = scan_dataset(random_bytes_dataset, image_size=8, ratios=(1.0, 0.0, 0.0), seed=3)
        for split in ("val", "test"):
            assert decode_per_sample(m, split) == ([], [], [])
            got = load_split(m, split)
            assert len(got) == 0 and not got
            got_images = stack_batch(got).images.data
            assert got_images.shape == (0, 3, 8, 8) and got_images.dtype == np.float32
            assert got.labels.shape == (0,) and got.labels.dtype == np.int64
            assert list(got.ids) == []

    @pytest.mark.parametrize("batch_size", [3, 5, 16])
    def test_batches_equal_per_sample_gather(self, random_bytes_dataset, batch_size):
        m = scan_dataset(random_bytes_dataset, image_size=8, ratios=(1.0, 0.0, 0.0), seed=3)
        split = load_split(m, "train")
        images, labels, ids = decode_per_sample(m, "train")
        for seed in range(4):
            got = make_batches(split, batch_size, seed)
            want = batches_per_sample(images, labels, ids, batch_size, seed)
            assert len(got) == len(want)
            for idx, (w_images, w_labels, w_ids) in zip(got, want):
                b = stack_batch(split[idx])
                assert b.images.data.tobytes() == w_images.tobytes()
                assert b.labels.tobytes() == w_labels.tobytes()
                assert b.targets.data.tobytes() == np.eye(2, dtype=np.float32)[w_labels].tobytes()
                assert list(b.ids) == w_ids

    def test_contiguous_batches_equal_per_sample_stack(self, random_bytes_dataset):
        # eval_split batches a split by slices, in manifest order
        m = scan_dataset(random_bytes_dataset, image_size=8, ratios=(1.0, 0.0, 0.0), seed=3)
        split = load_split(m, "train")
        images, labels, ids = decode_per_sample(m, "train")
        for start in range(0, len(split), 6):
            b = stack_batch(split[start : start + 6])
            assert b.images.data.tobytes() == np.stack(images[start : start + 6]).tobytes()
            assert b.labels.tolist() == labels[start : start + 6]
            assert list(b.ids) == ids[start : start + 6]
