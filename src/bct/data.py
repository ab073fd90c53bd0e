"""Datasets on disk: binary PPM images in class0/ and class1/ directories.

A dataset root contains the two class directories plus a split manifest
(written by scan_dataset) that pins every image to train/val/test. All
randomness (split assignment, synthetic textures, per-epoch batch order)
flows through the seeded splitmix64 streams, so identical inputs reproduce
identical bytes everywhere. Splits stay uint8; batches are index arrays.
"""

import re
from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, read_input, write_output
from .rng import Rng, derive
from .tensor import Tensor

SPLITS = ("train", "val", "test")
MANIFEST_NAME = "split_manifest.tsv"

# stream tags for derived seeds; arbitrary but fixed forever
_SPLIT_STREAM = 0x5B717
_NOISE_STREAM = 0x40153


# ---------------------------------------------------------------- PPM codec

_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")  # whitespace and '#' comments, then the next PPM header token


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM (P6, maxval 255)."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError(f"write_ppm needs (H, W, 3) uint8, got {pixels.shape} {pixels.dtype}")
    h, w = pixels.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    write_output(path, header + pixels.tobytes(), DataError)


def read_ppm(path) -> np.ndarray:
    """Parse a binary PPM into (H, W, 3) uint8.

    Accepts arbitrary whitespace and '#' comments between header tokens.
    Corrupt files raise DataError naming the path and byte offset.
    """
    buf = read_input(path, DataError)
    pos = 0

    def fail(msg):
        raise DataError(f"{path}: {msg} at byte {pos}")

    def token(what):
        nonlocal pos
        m = _HEADER_TOKEN.match(buf, pos)
        pos = m.end()
        if not m[1]:
            fail(f"missing {what}")
        return m[1]

    if token("magic") != b"P6":
        pos = 0
        fail("bad magic, expected P6")
    dims = []
    for what in ("width", "height", "maxval"):
        t = token(what)
        if not t.isdigit():
            fail(f"non-numeric {what} {t!r}")
        dims.append(int(t))
    w, h, maxval = dims
    if w < 1 or h < 1:
        fail(f"bad dimensions {w}x{h}")
    if maxval != 255:
        fail(f"unsupported maxval {maxval}, only 255")
    pos += 1  # exactly one whitespace byte separates header from pixels
    need = w * h * 3
    if len(buf) - pos < need:
        fail(f"truncated pixel data: need {need} bytes, have {len(buf) - pos}")
    if len(buf) - pos > need:
        fail(f"{len(buf) - pos - need} trailing bytes after pixel data")
    return np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos).reshape(h, w, 3)


def resize_nearest(pixels: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor resize of (H, W, C): source index = dst * src // dst_size."""
    if height < 1 or width < 1:
        raise ValueError(f"resize target must be positive, got {height}x{width}")
    h, w = pixels.shape[:2]
    ys = (np.arange(height) * h) // height
    xs = (np.arange(width) * w) // width
    return pixels[ys][:, xs]


# ------------------------------------------------------------ synth textures


def _base_pattern(family: str, label: int, size: int, cell_size: int) -> np.ndarray:
    """Grayscale pattern in [0, 1], float64 (size, size)."""
    try:
        y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    except (ValueError, MemoryError) as e:  # more bytes than an array or this machine can hold
        raise ConfigError(f"image size {size}: {e}") from None
    if family == "checker":
        if label == 0:
            return x / (size - 1) if size > 1 else np.zeros((size, size))
        return (((x // cell_size) + (y // cell_size)) % 2).astype(np.float64)
    if family == "rings":
        if label == 0:
            return (x + y) / (2 * size - 2) if size > 1 else np.zeros((size, size))
        c = (size - 1) / 2.0
        r = np.sqrt((x - c) ** 2 + (y - c) ** 2)
        return ((r // cell_size) % 2).astype(np.float64)
    raise ConfigError(f"unknown synth family {family!r}; expected 'checker' or 'rings'")


def synth_image(family: str, label: int, size: int, cell_size: int, noise_level: float, seed: int) -> np.ndarray:
    """One synthetic (size, size, 3) uint8 image; the seed pins every byte.

    byte = floor(255 * clip(base + uniform(-noise, +noise)) + 0.5), per channel.
    """
    base = _base_pattern(family, label, size, cell_size)
    rng = Rng(seed)
    noise = rng.uniform(size * size * 3, -noise_level, noise_level).reshape(size, size, 3)
    v = np.clip(base[:, :, None] + noise, 0.0, 1.0)
    return np.floor(v * 255.0 + 0.5).astype(np.uint8)


def synth_generate(
    root,
    n_per_class: int = 100,
    seed: int = 0,
    noise_level: float = 0.1,
    image_size: int = 64,
    family: str = "checker",
    cell_size: int = 8,
    class_counts: tuple | None = None,
    ratios: tuple = (0.8, 0.1, 0.1),
) -> "DatasetManifest":
    """Write a synthetic two-class dataset and its split manifest under root.

    class 0 is a smooth gradient texture, class 1 a periodic texture
    (checkerboard or rings depending on family); class_counts overrides
    n_per_class for imbalanced datasets. Re-running with identical arguments
    reproduces every file byte for byte.
    """
    counts = class_counts if class_counts is not None else (n_per_class, n_per_class)
    if len(counts) != 2 or min(counts) < 1:
        raise ConfigError(f"class counts must be two positive ints, got {counts}")
    if not 0 <= noise_level <= 1:
        raise ConfigError(f"noise level must be in [0, 1], got {noise_level}")
    if image_size < 2:
        raise ConfigError(f"image size must be >= 2, got {image_size}")
    if cell_size < 1 or cell_size > image_size:
        raise ConfigError(f"cell size must be in [1, {image_size}], got {cell_size}")
    root = Path(root)
    for label in (0, 1):
        cdir = root / f"class{label}"
        for i in range(counts[label]):
            img = synth_image(
                family, label, image_size, cell_size, noise_level,
                seed=derive(seed, _NOISE_STREAM, label, i),
            )
            write_ppm(cdir / f"img_{i:04d}.ppm", img)
    return scan_dataset(root, image_size=image_size, ratios=ratios, seed=seed)


# ------------------------------------------------------- manifest and splits


@dataclass
class DatasetManifest:
    """Pinned split assignment for every image under a dataset root."""

    root: Path
    image_size: int
    ratios: tuple
    seed: int
    entries: list  # (id, label, split) in scan order

    def ids(self, split: str) -> list[str]:
        _check_split(split)
        return [i for i, _, s in self.entries if s == split]

    def class_balance(self) -> dict:
        """Per-split {0: n, 1: n} image counts."""
        out = {s: {0: 0, 1: 0} for s in SPLITS}
        for _, label, split in self.entries:
            out[split][label] += 1
        return out

    def summary(self) -> str:
        bal = self.class_balance()
        parts = [
            f"{s}: {bal[s][0] + bal[s][1]} ({bal[s][0]}/{bal[s][1]})" for s in SPLITS
        ]
        return f"{len(self.entries)} images; " + ", ".join(parts) + "  [total (class0/class1)]"


def _check_split(split: str) -> None:
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}; expected one of {SPLITS}")


def check_ratios(ratios) -> tuple:
    """The train/val/test ratios as floats; a ConfigError unless they are three non-negative values summing to 1."""
    r = tuple(float(x) for x in ratios)
    if len(r) != 3 or not all(x >= 0 for x in r) or not abs(sum(r) - 1.0) <= 1e-9:  # written so that NaN fails
        raise ConfigError(f"data.ratios must be three non-negative values that sum to 1, got {r}")
    return r


def allocate_splits(n: int, ratios: tuple) -> tuple[int, int, int]:
    """Largest-remainder split sizes; remainder ties favor train, then val."""
    raw = [n * r for r in ratios]
    sizes = [int(x) for x in raw]
    leftover = n - sum(sizes)
    order = sorted(range(3), key=lambda i: (-(raw[i] - sizes[i]), i))
    for i in range(leftover):
        sizes[order[i]] += 1
    return tuple(sizes)


def scan_dataset(root, image_size: int = 64, ratios: tuple = (0.8, 0.1, 0.1), seed: int = 0) -> DatasetManifest:
    """Enumerate class0/ and class1/, assign splits, and write the manifest.

    Ids are sorted before the seeded shuffle, so the assignment depends only
    on the file names, the seed, and the ratios.
    """
    ratios = check_ratios(ratios)
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} does not exist")
    ids: list[tuple[str, int]] = []
    for label in (0, 1):
        cdir = root / f"class{label}"
        if not cdir.is_dir():
            raise DataError(f"{root}: missing class directory class{label}/")
        files = sorted(p.name for p in cdir.iterdir() if p.suffix == ".ppm")
        if not files:
            raise DataError(f"{cdir}: no .ppm images found")
        ids.extend((f"class{label}/{name}", label) for name in files)

    order = Rng(derive(seed, _SPLIT_STREAM)).permutation(len(ids)).tolist()
    names = [name for name, n in zip(SPLITS, allocate_splits(len(ids), ratios)) for _ in range(n)]
    assignment = dict(zip(order, names))
    entries = [(img_id, label, assignment[i]) for i, (img_id, label) in enumerate(ids)]
    manifest = DatasetManifest(root=root, image_size=image_size, ratios=ratios, seed=seed, entries=entries)
    save_manifest(manifest)
    return manifest


def ensure_manifest(root, image_size: int = 64, ratios: tuple = (0.8, 0.1, 0.1),
                    seed: int = 0, resplit: bool = False) -> DatasetManifest:
    """Load the dataset's pinned split if it has one, else scan and pin it.

    An existing manifest wins over the requested seed, so training runs with
    different seeds score the same test set. resplit=True (the explicit
    data.seed knob) re-scans whenever the pinned seed or ratios disagree
    with the requested ones. image_size only controls decoding, never the
    split, so the returned manifest always adopts the requested size.
    """
    ratios = check_ratios(ratios)
    if not (Path(root) / MANIFEST_NAME).exists():  # anything else at the path is load_manifest's error
        return scan_dataset(root, image_size, ratios, seed)
    manifest = load_manifest(root)
    same_ratios = all(abs(a - b) <= 1e-9 for a, b in zip(manifest.ratios, ratios))
    if resplit and (manifest.seed != seed or not same_ratios):
        return scan_dataset(root, image_size, ratios, seed)
    if not same_ratios:
        raise ConfigError(
            f"{root}: manifest pins ratios {manifest.ratios} but the config asks for "
            f"{ratios}; set data.seed to re-split or delete {MANIFEST_NAME}"
        )
    manifest.image_size = image_size
    return manifest


def read_key_values(lines, path, error: type) -> dict[str, tuple[str, int]]:
    """{key: (value, line number)} of `key = value` lines, given as (line number, line) pairs; a line without '='
    or a key set twice raises error naming path and line. Config files and the manifest header share this format."""
    found: dict[str, tuple[str, int]] = {}
    for ln, line in lines:
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{path}:{ln}: expected 'key = value', got {line.rstrip()!r}")
        key = key.strip()
        if key in found:
            raise error(f"{path}:{ln}: duplicate key {key!r}, first set on line {found[key][1]}")
        found[key] = (value.strip(), ln)
    return found


def fmt_float(x: float) -> str:
    """The 9-significant-digit text of a float that every written artifact and config echo uses."""
    return f"{x:.9g}"


def save_manifest(manifest: DatasetManifest) -> None:
    lines = [
        f"image_size = {manifest.image_size}",
        f"ratios = {','.join(fmt_float(r) for r in manifest.ratios)}",
        f"seed = {manifest.seed}",
        "",
    ]
    lines += [f"{i}\t{label}\t{split}" for i, label, split in manifest.entries]
    write_output(Path(manifest.root) / MANIFEST_NAME, "\n".join(lines) + "\n", DataError)


def load_manifest(root) -> DatasetManifest:
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise DataError(f"{root}: no {MANIFEST_NAME}; run scan (or synth) first")
    lines = enumerate(read_input(path, DataError, text=True).splitlines(), start=1)
    header_lines = takewhile(lambda pair: pair[1].strip(), lines)  # also takes the blank line that ends the header
    header = {}
    for key, (value, ln) in read_key_values(header_lines, path, DataError).items():
        if key not in ("image_size", "ratios", "seed"):
            raise DataError(f"{path}:{ln}: unknown header key {key!r}; expected image_size, ratios and seed")
        header[key] = value
    id_lines: dict[str, int] = {}  # image id -> the row that lists it
    entries = []
    for ln, line in lines:
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[1] not in ("0", "1") or parts[2] not in SPLITS:
            raise DataError(f"{path}:{ln}: malformed record {line!r}")
        if parts[0] in id_lines:
            raise DataError(f"{path}:{ln}: image {parts[0]!r} already listed on line {id_lines[parts[0]]}")
        id_lines[parts[0]] = ln
        entries.append((parts[0], int(parts[1]), parts[2]))
    try:
        image_size = int(header["image_size"])
        seed = int(header["seed"])
        ratios = check_ratios(header["ratios"].split(","))
    except ConfigError as e:  # the file is at fault, not the config
        raise DataError(f"{path}: ratios must be three numbers, non-negative and summing to 1, got {header['ratios']!r}") from e
    except (KeyError, ValueError) as e:
        raise DataError(f"{path}: bad or missing header field ({e})") from e
    if image_size < 1:
        raise DataError(f"{path}: image_size must be >= 1, got {image_size}")
    return DatasetManifest(Path(root), image_size, ratios, seed, entries)


# ------------------------------------------------------------ splits/batches


@dataclass(frozen=True)
class Split:
    """Decoded images of one split, in manifest order; indexing gathers a sub-split.

    The split keeps the decoded bytes; stack_batch builds the float32 values
    (byte / 255) of one batch at a time, so a run holds no float copy of a split.
    """

    pixels: np.ndarray  # (N, 3, H, W) uint8
    labels: np.ndarray  # (N,) int64
    ids: np.ndarray  # (N,) str

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index) -> "Split":
        """A slice (views) or an index array (copies, in the array's order)."""
        return Split(self.pixels[index], self.labels[index], self.ids[index])


def load_split(manifest: DatasetManifest, split: str) -> Split:
    """Decode every image of a split, resized to manifest.image_size."""
    _check_split(split)
    entries = [(img_id, label) for img_id, label, s in manifest.entries if s == split]
    size = manifest.image_size
    try:
        pixels = np.empty((len(entries), 3, size, size), dtype=np.uint8)
    except (ValueError, MemoryError) as e:  # more bytes than an array or this machine can hold
        raise DataError(f"{manifest.root}: cannot hold {len(entries)} {split} images at image_size {size}: {e}") from None
    for slot, (img_id, _) in zip(pixels, entries):
        image = read_ppm(Path(manifest.root) / img_id)
        if image.shape[:2] != (size, size):
            image = resize_nearest(image, size, size)
        slot[...] = np.transpose(image, (2, 0, 1))
    labels = np.array([label for _, label in entries], dtype=np.int64)
    return Split(pixels, labels, np.array([img_id for img_id, _ in entries], dtype=str))


class Batch(NamedTuple):
    images: Tensor  # (N, 3, H, W) float32
    targets: Tensor  # (N, 2) one-hot float32
    labels: np.ndarray  # (N,) int64
    ids: np.ndarray  # (N,) str


def stack_batch(split: Split) -> Batch:
    images = Tensor(split.pixels)  # the Tensor's own copy is the exact uint8 -> float32 cast
    images.data /= np.float32(255.0)
    return Batch(images, Tensor(np.eye(2, dtype=np.float32)[split.labels]), split.labels, split.ids)


def make_batches(split: Split, batch_size: int, seed: int) -> list[np.ndarray]:
    """A seeded shuffle cut into int64 index arrays of batch_size, the last maybe short; read as stack_batch(split[idx])."""
    if not split:
        raise DataError("cannot batch an empty split")
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    order = Rng(seed).permutation(len(split))
    return [order[start : start + batch_size] for start in range(0, len(order), batch_size)]
