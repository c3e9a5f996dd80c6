#!/usr/bin/env python3
"""Run the digit experiments end to end: generation, prediction, curves.

Writes per-digit PGM renderings, a learning-curve CSV and per-digit ROC
CSVs under --out. Uses real idx files when found (--mnist-dir, then
$GENLOGIC_MNIST_DIR, then ./data/mnist) and falls back to the bundled
synthetic digits otherwise.
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

from genlogic.mnist import (
    DEFAULT_THRESHOLD,
    generate_all,
    image_dataset,
    learning_curve,
    load_split,
    write_pgm,
)


def comma_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def comma_mus(text: str) -> tuple:
    """mu values in (0, 1): an item with a '/' is an exact Fraction, else a float."""
    mus = []
    for part in text.split(","):
        try:
            mu = Fraction(part) if "/" in part else float(part)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"not a number: {part!r}") from None
        if not 0 < mu < 1:
            raise argparse.ArgumentTypeError(f"mu must lie in (0, 1), got {part!r}")
        mus.append(mu)
    return tuple(mus)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mnist-dir", help="directory with the four idx files")
    parser.add_argument("--out", default="out", help="output directory (default %(default)s)")
    parser.add_argument("--sizes", type=comma_ints, default=(100, 300, 1000),
                        help="training-set sizes for the curve (default 100,300,1000)")
    parser.add_argument("--test", type=int, default=1000,
                        help="test prefix size (default %(default)s)")
    parser.add_argument("--mus", type=comma_mus, default=(0.8,),
                        help="fixed mu values to sweep, floats or fractions like 4/5 "
                             "(default 0.8)")
    parser.add_argument("--k", type=comma_ints, default=(1, 3, 5),
                        help="neighbour counts for the baseline (default 1,3,5)")
    parser.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                        help="white threshold byte (default %(default)s)")
    parser.add_argument("--generate-size", type=int, default=None,
                        help="training images for generation (default: all)")
    args = parser.parse_args(argv)

    train, test, synthetic = load_split(args.mnist_dir)
    if synthetic:
        print("note: no idx files found, using bundled synthetic digits")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    gen_train = train if args.generate_size is None else train.take(args.generate_size)
    t0 = time.perf_counter()
    grid = generate_all(image_dataset(gen_train, args.threshold))
    for digit in range(10):
        write_pgm(out / f"digit-{digit}.pgm", grid[digit])
    print(f"generation: 10 pgm files from {len(gen_train)} images "
          f"in {time.perf_counter() - t0:.1f}s -> {out}")

    t0 = time.perf_counter()
    points = learning_curve(
        train, test, sizes=args.sizes, mus=args.mus, include_limit=True,
        ks=args.k, threshold=args.threshold, test_size=args.test, out_dir=out,
    )
    print(f"curve: {len(points)} rows in {time.perf_counter() - t0:.1f}s "
          f"-> {out / 'learning_curve.csv'}")

    # one macro-AUC line per method and size, largest size last
    seen = {}
    for p in points:
        seen[(p.train_size, p.method, p.param)] = p.macro_auc
    for (size, method, param), macro in sorted(seen.items()):
        label = method if not param else f"{method} {param}"
        print(f"  n={size:>6}  {label:<12} macro-auc {macro:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
