"""Handwritten-digit experiments: idx files, generation, prediction, curves.

Images are 28x28 greyscale bytes binarized at a threshold. image_dataset
makes each one an observed world over the pixels p0..p783 and the digits
d0..d9 (exactly one holds). Class images are each label's per-pixel white
frequency. A digit's posterior given all 784 pixel literals depends on each
training image only through its Hamming distance, so prediction and the
curve score from distances, beside a Hamming k-nearest-neighbour baseline.
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
from .engine import LIMIT_ONE, Regime, UNDEFINED, _ratio, _weights, fixed
from .engine import posterior_data  # unused here: perfbench wraps mnist.posterior_data
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
    magic, n = struct.unpack_from(">ii", raw, 0)
    if magic == IMAGE_MAGIC:
        if len(raw) < 16:
            raise ValueError(f"{name}: truncated image header")
        rows, cols = struct.unpack_from(">ii", raw, 8)
        if rows != SIDE or cols != SIDE:
            raise ValueError(f"{name}: expected 28x28 images, got {rows}x{cols}")
        kind, start, shape = "image", 16, (n, N_PIXELS)
    elif magic == LABEL_MAGIC:
        kind, start, shape = "label", 8, (n,)
    else:
        raise ValueError(f"{name}: unrecognized idx magic {magic}")
    if len(raw) - start != np.prod(shape):  # a negative count never matches
        raise ValueError(f"{name}: {kind} payload does not match the header count")
    # A view from the offset, copied once: no slice of raw is made.
    out = np.frombuffer(raw, np.uint8, offset=start).reshape(shape).copy()
    if kind == "label" and out.size and int(out.max()) >= N_DIGITS:
        raise ValueError(f"{name}: labels must lie in 0..9")
    return out


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


def image_bits(images: np.ndarray, threshold: int = DEFAULT_THRESHOLD) -> list[int]:
    """Each image's white pixels as an int, pixel j at bit j."""
    rows = np.packbits(binarize(images, threshold), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def image_dataset(batch: ImageSet, threshold: int = DEFAULT_THRESHOLD) -> Dataset:
    """One observed world per image: pixel bits plus the label's digit atom."""
    sig = digit_signature()
    return Dataset(tuple((World(sig, bits | 1 << (N_PIXELS + label)), 1) for bits, label
                         in zip(image_bits(batch.images, threshold), batch.labels.tolist())))


def generate_all(batch: ImageSet, threshold: int = DEFAULT_THRESHOLD) -> np.ndarray:
    """White-probability images for all ten digits, shape (10, 784).

    Row d is the share of digit-d images in which each binarized pixel is
    white: what conditioning its atom on d in image_dataset yields as mu -> 1.
    """
    bits = binarize(batch.images, threshold)
    counts = np.bincount(batch.labels, minlength=N_DIGITS)
    if not counts.all():
        raise ValueError(f"no observations labelled {counts.argmin()}")
    # Integer sums, one float division: bit-identical to any recount.
    sums = [bits[batch.labels == d].sum(axis=0) for d in range(N_DIGITS)]
    return np.stack(sums) / counts[:, None]


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


def predict_digit(train: ImageSet, image, regime: Regime = LIMIT_ONE,
                  threshold: int = DEFAULT_THRESHOLD):
    """Posterior over the ten digit atoms given every pixel literal of image.

    A training image's premise score is 784 minus its Hamming distance to
    the image. Float fixed(mu) is the curve's scorer on that distance row.
    Otherwise h counts the training images by (score s, label d), and label
    d gets sum_s w(s) h[s][d] over that sum for all labels, w being the
    regime's weight table. Returns ten values of one type summing to 1, or
    UNDEFINED when the regime is the strict one and no training image
    matches exactly.
    """
    if not len(train):
        raise ValueError("predict_digit needs at least one training image")
    dist = hamming_matrix(binarize(train.images, threshold),
                          binarize(np.asarray(image)[None], threshold))
    if isinstance(regime.mu, float):
        return tuple(_fixed_scores(regime.mu)(dist, np.eye(N_DIGITS)[train.labels])[0].tolist())
    hist = np.zeros((N_PIXELS + 1, N_DIGITS), dtype=np.int64)
    np.add.at(hist, (N_PIXELS - dist[0], train.labels), 1)
    live = np.flatnonzero(hist.any(axis=1)).tolist()
    weights = _weights(regime, N_PIXELS, min(live), max(live))
    num = [sum(weights[s] * c for s, c in zip(live, col)) for col in hist[live].T.tolist()]
    den = sum(num)
    return UNDEFINED if den == 0 else tuple(_ratio(n, den) for n in num)


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


def _distance_blocks(train_bits, test_bits):
    """Hamming distance matrices of successive blocks of _BLOCK_ROWS test rows."""
    for start in range(0, len(test_bits), _BLOCK_ROWS):
        yield hamming_matrix(train_bits, test_bits[start : start + _BLOCK_ROWS])


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
        # Running sums in entry order, as the engine's per-entry sum: equal floats,
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
    blocks = (_knn_votes(dist, onehot, k) for dist in _distance_blocks(train_bits, test_bits))
    return np.concatenate([np.zeros((0, N_DIGITS)), *blocks])  # zero test rows: (0, 10)


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
    blocks = [[score(dist[:, :size], onehot[:size]) for size, *_, score in cells]
              for dist in _distance_blocks(train_bits, test_bits)]

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


# Where the default search writes its synthetic fallback, and from which seed.
SYNTHETIC_DIR = "data/synthetic-mnist"
SYNTHETIC_SEED = 0


def load_split(root=None):
    """The train/test image sets: real idx files when present, else synthetic.

    Returns (train, test, synthetic) where the flag records the fallback.
    An explicitly given root must hold the files; only the default search
    (environment variable, then ./data/mnist) may fall back to synthetic
    digits, written once under SYNTHETIC_DIR from SYNTHETIC_SEED with the
    classic idx names and reused on later calls.
    """
    found = locate_idx_files(root)
    synthetic = False
    if found is None and root is not None:
        raise OSError(f"no idx files under {os.fspath(root)}")
    if found is None:
        from .synthdata import ensure_synthetic_idx
        ensure_synthetic_idx(SYNTHETIC_DIR, seed=SYNTHETIC_SEED)
        found = locate_idx_files(SYNTHETIC_DIR)
        if found is None:
            raise OSError(f"could not provision image files under {SYNTHETIC_DIR}")
        synthetic = True
    train = load_image_set(found["train_images"], found["train_labels"])
    test = load_image_set(found["test_images"], found["test_labels"])
    return train, test, synthetic
