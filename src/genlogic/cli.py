"""Command-line front end: queries, consequence checks, digit experiments.

Exit codes: 0 for success (an "undefined" result is a success), 1 for usage
errors, 2 for data or format errors. Identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .data import read_dataset_csv, read_distribution
from .engine import (
    LIMIT_ONE,
    ONE,
    Query,
    Regime,
    UNDEFINED,
    classical_entails,
    cond_prob,
    fixed,
    generative_consequence,
    mcs,
    mps,
    possible_entails,
)
from .formulas import Formula, ground, pretty
from .mnist import (
    DEFAULT_THRESHOLD,
    N_DIGITS,
    binarize,
    generate_all,
    image_dataset,
    learning_curve,
    load_split,
    predict_digit,
    write_pgm,
)
from .parser import parse_premises, parse_query
from .signature import Signature
from .worlds import enumerate_worlds


class UsageError(Exception):
    """Bad flag combination or flag value; exits with status 1."""


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise UsageError("expected at least one integer")
    return values


def _add_regime_flags(cmd: argparse.ArgumentParser) -> None:
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--one", action="store_true",
                       help="strict semantics: condition on exact satisfaction")
    group.add_argument("--limit", action="store_true",
                       help="limit semantics: best-matching worlds (default)")
    group.add_argument("--mu", metavar="V",
                       help="explicit likelihood parameter in (0,1); 1 means --one; "
                            "mnist curve takes a comma list")


def _add_numeric_flags(cmd: argparse.ArgumentParser, exact_default: bool) -> None:
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="exact", action="store_true",
                       help="exact rational arithmetic")
    group.add_argument("--float", dest="exact", action="store_false",
                       help="floating-point arithmetic")
    cmd.set_defaults(exact=exact_default)


def _resolve_regime(args, default: Regime) -> Regime:
    if args.one:
        return ONE
    if args.limit:
        return LIMIT_ONE
    return default if args.mu is None else _mu_regime(args.mu, args.exact)


def _mu_regime(text: str, exact: bool) -> Regime:
    """One --mu value: ONE at 1, else fixed(mu), a Fraction when exact."""
    try:
        mu = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--mu expects a number, got {text!r}") from None
    if mu == 1:
        return ONE
    if not 0 < mu < 1:
        raise UsageError("--mu must lie in (0,1], e.g. 0.8 or 4/5")
    return fixed(mu if exact else float(mu))


def _load_signature(args) -> Signature:
    if args.signature is None:
        raise UsageError("--signature is required")
    return Signature.read(args.signature)


def _load_source(args, sig: Signature):
    if (args.data is None) == (args.dist is None):
        raise UsageError("give exactly one of --data or --dist")
    if args.data is not None:
        return read_dataset_csv(args.data, sig)
    return read_distribution(args.dist, sig, exact=args.exact)


def _show(value, exact: bool) -> str:
    if value is UNDEFINED:
        return "undefined"
    if not exact and isinstance(value, Fraction):
        return str(float(value))
    return str(value)


def cmd_infer(args) -> int:
    sig = _load_signature(args)
    source = _load_source(args, sig)
    regime = _resolve_regime(args, LIMIT_ONE)
    conclusion, premises = parse_query(args.query, sig)
    query = Query(ground(conclusion, sig), tuple(ground(p, sig) for p in premises))
    print(_show(cond_prob(query, source, regime), args.exact))
    return 0


def _render_subsets(subsets, premises) -> list[str]:
    order = list(dict.fromkeys(premises))
    lines = []
    for subset in subsets:
        members = [pretty(f) for f in order if f in subset]
        lines.append("{" + ", ".join(members) + "}")
    return sorted(lines)


def cmd_entail(args) -> int:
    sig = _load_signature(args)
    if args.mode in ("mcs", "mps"):
        premises = tuple(ground(f, sig) for f in parse_premises(args.query, sig))
        if args.mode == "mcs":
            analysis = mcs(premises, enumerate_worlds(sig))
        else:
            if args.dist is None:
                raise UsageError("mode mps needs --dist")
            analysis = mps(premises, read_distribution(args.dist, sig, exact=args.exact))
        for line in _render_subsets(analysis.subsets, premises):
            print(line)
        return 0
    conclusion, premises = parse_query(args.query, sig)
    conclusion = ground(conclusion, sig)
    premises = tuple(ground(p, sig) for p in premises)
    if args.mode == "classical":
        verdict = classical_entails(premises, conclusion, enumerate_worlds(sig))
    elif args.mode == "possible":
        if args.dist is None:
            raise UsageError("mode possible needs --dist")
        dist = read_distribution(args.dist, sig, exact=args.exact)
        verdict = possible_entails(premises, conclusion, dist)
    else:  # gc
        if args.theta is None:
            raise UsageError("mode gc needs --theta")
        try:
            theta = Fraction(args.theta)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--theta expects a number, got {args.theta!r}") from None
        if not Fraction(1, 2) < theta <= 1:
            raise UsageError("--theta must lie in (1/2, 1]")
        source = _load_source(args, sig)
        regime = _resolve_regime(args, LIMIT_ONE)
        verdict = generative_consequence(Query(conclusion, premises), source,
                                         theta, regime)
    if verdict is UNDEFINED:
        print("undefined")
    else:
        print("yes" if verdict else "no")
    return 0


def cmd_mnist(args) -> int:
    train, test, synthetic = load_split(args.mnist_dir)
    if synthetic:
        print("note: no idx files found, using bundled synthetic digits",
              file=sys.stderr)
    if args.train is not None:
        train = train.take(args.train)
    out_dir = Path(args.out)

    if args.task == "generate":
        images = generate_all(image_dataset(train, args.threshold))
        out_dir.mkdir(parents=True, exist_ok=True)
        for digit in range(N_DIGITS):
            path = out_dir / f"digit-{digit}.pgm"
            write_pgm(path, images[digit])
            print(f"wrote {path}")
        return 0

    if args.task == "predict":
        if not 0 <= args.index < len(test):
            raise UsageError(f"--index must lie in 0..{len(test) - 1}")
        regime = _resolve_regime(args, LIMIT_ONE)
        data = image_dataset(train, args.threshold)
        row = binarize(test.images[args.index : args.index + 1], args.threshold)
        bits = int.from_bytes(
            np.packbits(row, axis=1, bitorder="little").tobytes(), "little")
        post = predict_digit(data, bits, regime)
        if post is UNDEFINED:
            print("undefined")
        else:
            for digit, p in enumerate(post):
                print(f"d{digit} {_show(p, args.exact)}")
        return 0

    # curve: the limit predictor plus a fixed-mu predictor per --mu item
    items = ["4/5"] if args.mu is None else args.mu.split(",")
    regimes = [ONE] if args.one else [_mu_regime(item, args.exact) for item in items]
    if ONE in regimes:
        raise UsageError("the curve needs --limit or --mu, not --one")
    learning_curve(train, test, sizes=_int_list(args.sizes),
                   mus=tuple(r.mu for r in regimes),
                   include_limit=True, ks=_int_list(args.k),
                   threshold=args.threshold, test_size=args.test,
                   out_dir=out_dir)
    print(f"wrote {out_dir / 'learning_curve.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genlogic",
        description="probabilistic logical inference over worlds, data-driven "
                    "or from an explicit distribution")
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser("infer", help="print p(conclusion | premises)")
    infer.add_argument("query", help="'conclusion | premise; premise; ...'")
    infer.add_argument("--signature", help="signature declaration file")
    infer.add_argument("--data", help="dataset csv")
    infer.add_argument("--dist", help="distribution file")
    _add_regime_flags(infer)
    _add_numeric_flags(infer, exact_default=True)
    infer.set_defaults(func=cmd_infer)

    entail = sub.add_parser("entail", help="consequence checks and maximal subsets")
    entail.add_argument("query",
                        help="'conclusion | premises' (classical/possible/gc) "
                             "or 'premise; premise; ...' (mcs/mps)")
    entail.add_argument("--mode", required=True,
                        choices=("classical", "possible", "mcs", "mps", "gc"))
    entail.add_argument("--signature", help="signature declaration file")
    entail.add_argument("--data", help="dataset csv (gc)")
    entail.add_argument("--dist", help="distribution file (possible/mps/gc)")
    entail.add_argument("--theta", help="entailment threshold in (1/2, 1] (gc)")
    _add_regime_flags(entail)
    _add_numeric_flags(entail, exact_default=True)
    entail.set_defaults(func=cmd_entail)

    mnist = sub.add_parser("mnist", help="digit generation, prediction and curves")
    mnist.add_argument("task", choices=("generate", "predict", "curve"))
    mnist.add_argument("--mnist-dir", dest="mnist_dir",
                       help="directory with the four classic idx files "
                            "(default: $GENLOGIC_MNIST_DIR, then ./data/mnist, "
                            "then bundled synthetic digits)")
    mnist.add_argument("--train", type=int, help="use only the first N training images")
    mnist.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                       help="white threshold byte (default %(default)s)")
    mnist.add_argument("--out", default="out", help="output directory (default %(default)s)")
    mnist.add_argument("--index", type=int, default=0,
                       help="test image to predict (default %(default)s)")
    mnist.add_argument("--sizes", default="100,300,1000",
                       help="curve training sizes (default %(default)s)")
    mnist.add_argument("--test", type=int, default=1000,
                       help="curve test prefix size (default %(default)s)")
    mnist.add_argument("--k", default="1,3,5",
                       help="neighbour counts for the baseline (default %(default)s)")
    _add_regime_flags(mnist)
    _add_numeric_flags(mnist, exact_default=False)
    mnist.set_defaults(func=cmd_mnist)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
