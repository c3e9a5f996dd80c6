"""Handwritten-digit experiments: idx files, generation, prediction, curves.

Images are 28x28 greyscale bytes binarized at a threshold; each image
becomes one observed world over 794 atoms, the pixel propositions p0..p783
followed by the digit propositions d0..d9 (exactly one of which holds).
Digit images are generated as per-pixel white probabilities conditioned on
a digit atom, and digits are predicted from the posterior over training
observations given all 784 pixel literals. A Hamming-distance k-nearest-
neighbour baseline is included for comparison.
"""

from __future__ import annotations

import csv
import gzip
import os
import struct
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .data import Dataset
from .engine import LIMIT_ONE, Regime, UNDEFINED, fixed, posterior_data
from .formulas import Atom, Formula, Not
from .signature import Signature
from .worlds import World

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
SIDE = 28
N_PIXELS = SIDE * SIDE
N_DIGITS = 10
DEFAULT_THRESHOLD = 30


@dataclass(frozen=True, eq=False)
class ImageSet:
    """Greyscale images as a (n, 784) uint8 array with (n,) uint8 labels."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.dtype != np.uint8 or self.images.ndim != 2 \
                or self.images.shape[1] != N_PIXELS:
            raise ValueError("images must be a (n, 784) uint8 array")
        if self.labels.dtype != np.uint8 or self.labels.shape != (len(self.images),):
            raise ValueError("labels must be a uint8 array matching the images")
        if self.labels.size and int(self.labels.max()) >= N_DIGITS:
            raise ValueError("labels must lie in 0..9")

    def __len__(self) -> int:
        return len(self.images)

    def take(self, n: int) -> "ImageSet":
        """The first n images, in file order."""
        if not 0 < n <= len(self):
            raise ValueError(f"cannot take {n} of {len(self)} images")
        return ImageSet(self.images[:n], self.labels[:n])


def load_idx(path) -> np.ndarray:
    """Read one idx file: (n, 784) uint8 for images, (n,) uint8 for labels.

    Accepts gzip-compressed files by extension. Only 28x28 image files
    (magic 2051) and label files (magic 2049) are recognized.
    """
    name = os.fspath(path)
    with (gzip.open if name.endswith(".gz") else open)(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{name}: truncated idx header")
    (magic,) = struct.unpack_from(">i", raw, 0)
    if magic == IMAGE_MAGIC:
        if len(raw) < 16:
            raise ValueError(f"{name}: truncated image header")
        n, rows, cols = struct.unpack_from(">iii", raw, 4)
        if rows != SIDE or cols != SIDE:
            raise ValueError(f"{name}: expected 28x28 images, got {rows}x{cols}")
        body = raw[16:]
        if len(body) != n * N_PIXELS:
            raise ValueError(f"{name}: image payload does not match the header count")
        return np.frombuffer(body, dtype=np.uint8).reshape(n, N_PIXELS).copy()
    if magic == LABEL_MAGIC:
        (n,) = struct.unpack_from(">i", raw, 4)
        body = raw[8:]
        if len(body) != n:
            raise ValueError(f"{name}: label payload does not match the header count")
        labels = np.frombuffer(body, dtype=np.uint8).copy()
        if labels.size and int(labels.max()) >= N_DIGITS:
            raise ValueError(f"{name}: labels must lie in 0..9")
        return labels
    raise ValueError(f"{name}: unrecognized idx magic {magic}")


def write_idx(path, array: np.ndarray) -> None:
    """Write a (n, 784) image array or a (n,) label array in idx format."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    with open(path, "wb") as fh:
        if arr.ndim == 2 and arr.shape[1] == N_PIXELS:
            fh.write(struct.pack(">iiii", IMAGE_MAGIC, arr.shape[0], SIDE, SIDE))
        elif arr.ndim == 1:
            fh.write(struct.pack(">ii", LABEL_MAGIC, arr.shape[0]))
        else:
            raise ValueError("expected a (n, 784) image array or a (n,) label array")
        fh.write(arr.tobytes())


def load_image_set(images_path, labels_path) -> ImageSet:
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 2:
        raise ValueError(f"{os.fspath(images_path)}: not an image file")
    if labels.ndim != 1:
        raise ValueError(f"{os.fspath(labels_path)}: not a label file")
    if len(images) != len(labels):
        raise ValueError("image and label files disagree on the number of items")
    return ImageSet(images, labels)


def binarize(images: np.ndarray, threshold: int = DEFAULT_THRESHOLD) -> np.ndarray:
    """Boolean white mask: intensity at or above the threshold."""
    arr = np.asarray(images)
    if arr.ndim != 2 or arr.shape[1] != N_PIXELS:
        raise ValueError("images must have shape (n, 784)")
    return arr >= threshold


@lru_cache(maxsize=1)
def digit_signature() -> Signature:
    """The 794-proposition vocabulary: p0..p783 then d0..d9."""
    names = tuple(f"p{i}" for i in range(N_PIXELS))
    names += tuple(f"d{c}" for c in range(N_DIGITS))
    return Signature(propositions=names)


def image_dataset(batch: ImageSet, threshold: int = DEFAULT_THRESHOLD) -> Dataset:
    """One observed world per image: pixel bits plus the label's digit atom."""
    sig = digit_signature()
    packed = np.packbits(binarize(batch.images, threshold), axis=1, bitorder="little")
    entries = []
    for row, label in zip(packed, batch.labels):
        bits = int.from_bytes(row.tobytes(), "little") | (1 << (N_PIXELS + int(label)))
        entries.append((World(sig, bits), 1))
    return Dataset(tuple(entries))


def split_dataset(data: Dataset):
    """Unpack a digit dataset into (pixels, labels, counts) numpy arrays.

    pixels is (n, 784) bool, labels and counts are (n,) int64; each entry
    must set exactly one digit atom.
    """
    bits = np.unpackbits(data.words.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    digits = bits[:, N_PIXELS:]
    if (digits.sum(axis=1) != 1).any():
        raise ValueError("each observation must set exactly one digit atom")
    return bits[:, :N_PIXELS].view(bool), digits.argmax(axis=1), data.masses.astype(np.int64)


def generate_all(data: Dataset) -> np.ndarray:
    """White-probability images for all ten digits, shape (10, 784).

    Row d is each pixel's class-conditional relative frequency, which is
    what conditioning the pixel atom on the digit atom d yields as mu -> 1.
    """
    pixels, labels, counts = split_dataset(data)
    rows = []
    for d in range(N_DIGITS):
        mask = labels == d
        if not mask.any():
            raise ValueError(f"no observations labelled {d}")
        w = counts[mask]
        # Integer sums, one float division: bit-identical to any recount.
        rows.append((pixels[mask] * w[:, None]).sum(axis=0) / w.sum())
    return np.stack(rows)


def write_pgm(path, probs) -> None:
    """Render 784 values in [0, 1] as a binary 28x28 greyscale image."""
    arr = np.asarray(probs, dtype=np.float64).reshape(N_PIXELS)
    if arr.min() < 0 or arr.max() > 1:
        raise ValueError("pixel probabilities must lie in [0, 1]")
    body = np.rint(arr * 255).astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(b"P5\n28 28\n255\n" + body)


def pixel_premises(pixel_bits: int) -> tuple[Formula, ...]:
    """All 784 pixel literals of an image: p_j when white, not p_j when black."""
    out = []
    for j in range(N_PIXELS):
        atom = Atom(f"p{j}")
        out.append(atom if (pixel_bits >> j) & 1 else Not(atom))
    return tuple(out)


def predict_digit(train: Dataset, pixel_bits: int, regime: Regime = LIMIT_ONE):
    """Posterior over the ten digit atoms given every pixel literal.

    Each training observation is weighted by how well it matches the pixel
    evidence under the regime; the weights then vote for their labels.
    Returns a 10-tuple summing to 1, or UNDEFINED when the regime is the
    strict one and no training image matches exactly.
    """
    weights = posterior_data(pixel_premises(pixel_bits), train, regime)
    if weights is UNDEFINED:
        return UNDEFINED
    totals = [0] * N_DIGITS
    for (w, c), wt in zip(train.entries, weights):
        label = (w.bits >> N_PIXELS).bit_length() - 1
        totals[label] += c * wt
    return tuple(totals)


_BLOCK_ROWS = 128  # test rows per distance block: 10k x 60k never exists at once


def _words(bits) -> np.ndarray:
    """Bit rows packed into 13 uint64 words (98 bytes, zero-padded), shape (13, n)."""
    arr = np.asarray(bits, dtype=bool)
    if arr.ndim != 2 or arr.shape[1] != N_PIXELS:
        raise ValueError("expected a (n, 784) boolean array")
    packed = np.packbits(arr, axis=1, bitorder="little")
    return np.pad(packed, ((0, 0), (0, 6))).view(np.uint64).T.copy()


def hamming_matrix(train_bits, test_bits) -> np.ndarray:
    """Pairwise Hamming distances between bit rows, shape (n_test, n_train)."""
    train, test = _words(train_bits), _words(test_bits)
    out = np.zeros((test.shape[1], train.shape[1]), dtype=np.uint16)  # at most 784
    for w in range(len(train)):
        out += np.bitwise_count(test[w, :, None] ^ train[w])
    return out.astype(np.int64)


# Scorers: distances (n_test, n_train), one-hot labels (n_train, 10) -> (n_test, 10).
def _limit_scores(dist: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Label vote shares among the training rows at the minimum distance."""
    votes = (dist == dist.min(axis=1, keepdims=True)) @ onehot
    return votes / votes.sum(axis=1, keepdims=True)


def _fixed_scores(mu):
    """Scorer for fixed(mu): per-label share of r**(d - d_ref), r = (1 - mu) / mu.

    d_ref is the minimum distance when r <= 1, else the maximum, as in
    posterior_data; powers are taken in mu's own arithmetic, then rounded.
    """
    mu = fixed(mu).mu  # rejects mu outside (0, 1)
    r = (1 - mu) / mu
    sign = 1 if r <= 1 else -1
    powers = np.array([float(r ** (sign * e)) for e in range(N_PIXELS + 1)])

    def scores(dist: np.ndarray, onehot: np.ndarray) -> np.ndarray:
        ref = (dist.min if sign > 0 else dist.max)(axis=1, keepdims=True)
        weights = powers[sign * (dist - ref)]
        # Running sums in training order, as predict_digit adds: equal floats,
        # where a BLAS sum splits ties. [:, -1:].sum() is 0 for an absent label.
        weights /= np.cumsum(weights, axis=1)[:, -1:]
        return np.stack([np.cumsum(weights[:, onehot[:, d] > 0], axis=1)[:, -1:].sum(axis=1)
                         for d in range(N_DIGITS)], axis=1)
    return scores


def _knn_votes(dist: np.ndarray, onehot: np.ndarray, k: int) -> np.ndarray:
    """Label vote shares among the k nearest rows; ties go to the earlier row."""
    n = dist.shape[1]
    # Distinct keys, distance first: the k smallest are a stable sort's first k.
    nearest = np.argpartition(dist * n + np.arange(n), k - 1, axis=1)[:, :k]
    return onehot[nearest].sum(axis=1) / k


def knn_scores(train_bits, train_labels, test_bits, k: int) -> np.ndarray:
    """Per-digit neighbour vote fractions, shape (n_test, 10).

    Distance ties are broken by training order (stable sort), matching the
    brute-force reference.
    """
    onehot = np.eye(N_DIGITS)[np.asarray(train_labels, dtype=np.int64)]
    if not 1 <= k <= len(onehot):
        raise ValueError(f"k must lie in 1..{len(onehot)}, got {k}")
    out = np.zeros((len(test_bits), N_DIGITS))
    for start in range(0, len(out), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        out[rows] = _knn_votes(hamming_matrix(train_bits, test_bits[rows]), onehot, k)
    return out


@dataclass(frozen=True)
class RocCurve:
    """Operating points (fpr, tpr) in sweep order plus the area under them."""

    points: tuple[tuple[float, float], ...]
    auc: float


def roc_curve(scores, labels) -> RocCurve:
    """Threshold-sweep ROC with tied scores grouped; trapezoidal area.

    labels mark the positive class; both classes must be nonempty.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching 1-d arrays")
    pos = int(labels.sum())
    neg = labels.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("roc needs at least one positive and one negative example")
    order = np.argsort(-scores, kind="stable")
    ranked, hits = scores[order], labels[order]
    # One point after each group of tied scores; areas summed in sweep order.
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    fpr = np.append(0.0, np.cumsum(~hits)[ends] / neg)
    tpr = np.append(0.0, np.cumsum(hits)[ends] / pos)
    auc = np.cumsum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2)[-1]
    return RocCurve(tuple(zip(fpr.tolist(), tpr.tolist())), float(auc))


@dataclass(frozen=True)
class CurvePoint:
    """One learning-curve cell: a method's AUC on one digit at one size."""

    method: str
    param: str
    train_size: int
    digit: int
    auc: float
    macro_auc: float


def learning_curve(train: ImageSet, test: ImageSet, sizes=(100, 300, 1000),
                   mus=(0.8,), include_limit: bool = True, ks=(1, 3, 5),
                   threshold: int = DEFAULT_THRESHOLD, test_size: int = 1000,
                   out_dir=None) -> tuple[CurvePoint, ...]:
    """One-vs-rest AUC per digit for each method and training-set size.

    Methods: the limit-regime predictor, a fixed-mu predictor per value in
    mus (float or Fraction) and the Hamming k-nearest-neighbour baseline per
    value in ks (a repeated value counts once), all on prefixes of the given
    sets. They score from one distance matrix, test rows by the largest
    training prefix, built a block of test rows at a time; each size reads a
    column prefix. The scores are predict_digit's, with no formula built.
    When out_dir is given, writes learning_curve.csv and, for the largest
    size, roc_<method>_<digit>.csv.
    """
    sizes = tuple(sorted({int(s) for s in sizes}))
    if not sizes or sizes[0] < 1:
        raise ValueError("sizes must be positive")
    if sizes[-1] > len(train):
        raise ValueError(f"largest size {sizes[-1]} exceeds the {len(train)} training images")
    mus, ks = tuple(dict.fromkeys(mus)), tuple(dict.fromkeys(map(int, ks)))
    if not all(1 <= k <= sizes[0] for k in ks):
        raise ValueError(f"every k must lie in 1..{sizes[0]}, got {ks}")
    test = test.take(min(test_size, len(test)))
    test_bits = binarize(test.images, threshold)
    train = train.take(sizes[-1])
    train_bits = binarize(train.images, threshold)
    onehot = np.eye(N_DIGITS)[train.labels]

    # (method, param, ROC file token, scorer); "/" cannot go in a file name
    methods = [("gl-limit", "", "gl-limit", _limit_scores)] if include_limit else []
    methods += [("gl-mu", str(mu), f"gl-mu{mu}".replace("/", "_"), _fixed_scores(mu))
                for mu in mus]
    methods += [("knn", str(k), f"knn-k{k}", partial(_knn_votes, k=k)) for k in ks]
    cells = [(size, *method) for size in sizes for method in methods]
    blocks = []
    for start in range(0, len(test_bits), _BLOCK_ROWS):
        dist = hamming_matrix(train_bits, test_bits[start : start + _BLOCK_ROWS])
        blocks.append([score(dist[:, :size], onehot[:size]) for size, *_, score in cells])

    points, roc_out = [], {}
    columns = map(np.concatenate, zip(*blocks))  # each cell's scores, all test rows
    for (size, method, param, token, _), scores in zip(cells, columns):
        curves = [roc_curve(scores[:, d], test.labels == d) for d in range(N_DIGITS)]
        if size == sizes[-1]:
            roc_out.update(((token, d), c) for d, c in enumerate(curves))
        macro = sum(c.auc for c in curves) / N_DIGITS
        points.extend(CurvePoint(method, param, size, d, c.auc, macro)
                      for d, c in enumerate(curves))
    if out_dir is not None:
        _write_curve_files(points, roc_out, out_dir)
    return tuple(points)


def _write_curve_files(points, roc_out, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "learning_curve.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "param", "train_size", "digit", "auc", "macro_auc"])
        for pt in points:
            writer.writerow([pt.method, pt.param, pt.train_size, pt.digit,
                             f"{pt.auc:.6f}", f"{pt.macro_auc:.6f}"])
    for (token, digit), curve in roc_out.items():
        with open(out / f"roc_{token}_{digit}.csv", "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fpr", "tpr"])
            writer.writerows((f"{f:.6f}", f"{t:.6f}") for f, t in curve.points)


_IDX_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def locate_idx_files(root=None):
    """Find the four classic idx files (possibly .gz) under a directory.

    Searches root when given, else $GENLOGIC_MNIST_DIR, else ./data/mnist.
    Returns a name-to-path dict, or None when any file is missing.
    """
    candidates = []
    if root is not None:
        candidates.append(Path(root))
    else:
        env = os.environ.get("GENLOGIC_MNIST_DIR")
        if env:
            candidates.append(Path(env))
        candidates.append(Path("data") / "mnist")
    for base in candidates:
        found = {}
        for key, name in _IDX_NAMES.items():
            for candidate in (base / name, base / (name + ".gz")):
                if candidate.is_file():
                    found[key] = candidate
                    break
        if len(found) == len(_IDX_NAMES):
            return found
    return None


def load_split(root=None, synthetic_dir="data/synthetic-mnist", seed: int = 0):
    """The train/test image sets: real idx files when present, else synthetic.

    Returns (train, test, synthetic) where the flag records the fallback.
    An explicitly given root must hold the files; only the default search
    (environment variable, then ./data/mnist) may fall back to synthetic
    digits, written once under synthetic_dir with the classic idx names and
    reused on later calls.
    """
    found = locate_idx_files(root)
    synthetic = False
    if found is None and root is not None:
        raise OSError(f"no idx files under {os.fspath(root)}")
    if found is None:
        from .synthdata import ensure_synthetic_idx
        ensure_synthetic_idx(synthetic_dir, seed=seed)
        found = locate_idx_files(synthetic_dir)
        if found is None:
            raise OSError(f"could not provision image files under {synthetic_dir}")
        synthetic = True
    train = load_image_set(found["train_images"], found["train_labels"])
    test = load_image_set(found["test_images"], found["test_labels"])
    return train, test, synthetic
