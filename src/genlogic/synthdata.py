"""Synthetic digit images for running the experiments without real scans.

Digits are drawn as seven-segment shapes on a 28x28 canvas, jittered by a
random shift of up to two pixels, with stroke and background intensities
that stay on opposite sides of the default binarization threshold plus a
few salt-and-pepper flips so no two images are byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .mnist import _IDX_NAMES, N_PIXELS, SIDE, ImageSet, write_idx

_SEGMENTS = {
    "a": (slice(5, 7), slice(9, 19)),
    "b": (slice(5, 15), slice(17, 19)),
    "c": (slice(13, 23), slice(17, 19)),
    "d": (slice(21, 23), slice(9, 19)),
    "e": (slice(13, 23), slice(9, 11)),
    "f": (slice(5, 15), slice(9, 11)),
    "g": (slice(13, 15), slice(9, 19)),
}

_DIGIT_SEGMENTS = (
    "abcdef", "bc", "abged", "abgcd", "fgbc",
    "afgcd", "afgedc", "abc", "abcdefg", "abcdfg",
)


def _digit_masks() -> np.ndarray:
    masks = np.zeros((10, SIDE, SIDE), dtype=bool)
    for digit, segments in enumerate(_DIGIT_SEGMENTS):
        for name in segments:
            rows, cols = _SEGMENTS[name]
            masks[digit, rows, cols] = True
    return masks


def make_image_set(n: int, seed: int = 0) -> ImageSet:
    """n noisy seven-segment digit images with labels cycling 0..9."""
    if n < 1:
        raise ValueError("need at least one image")
    rng = np.random.default_rng(seed)
    base = _digit_masks()
    # All shifts stay inside the canvas margins, so roll never wraps strokes.
    variants = np.zeros((10, 5, 5, SIDE, SIDE), dtype=bool)
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            variants[:, dy + 2, dx + 2] = np.roll(base, (dy, dx), axis=(1, 2))
    labels = (np.arange(n) % 10).astype(np.uint8)
    shifts = rng.integers(0, 5, size=(n, 2))
    strokes = rng.integers(170, 256, size=n, dtype=np.uint8)
    images = rng.integers(0, 25, size=(n, N_PIXELS), dtype=np.uint8)
    for i in range(n):
        mask = variants[labels[i], shifts[i, 0], shifts[i, 1]].ravel()
        images[i, mask] = strokes[i]
    flips = rng.integers(0, N_PIXELS, size=(n, 6))
    rows = np.repeat(np.arange(n), flips.shape[1])
    cols = flips.ravel()
    images[rows, cols] = np.where(images[rows, cols] >= 128, 10, 200).astype(np.uint8)
    return ImageSet(images, labels)


def ensure_synthetic_idx(dir_path, n_train: int = 60000, n_test: int = 10000,
                         seed: int = 0) -> Path:
    """Write classic-named idx files with synthetic digits unless present."""
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    if all((out / name).is_file() for name in _IDX_NAMES.values()):
        return out
    train = make_image_set(n_train, seed=seed)
    test = make_image_set(n_test, seed=seed + 1)
    for key, array in (("train_images", train.images), ("train_labels", train.labels),
                       ("test_images", test.images), ("test_labels", test.labels)):
        write_idx(out / _IDX_NAMES[key], array)
    return out
