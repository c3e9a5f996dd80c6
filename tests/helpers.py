"""Seeded random instances for the randomized property suites.

Everything takes an explicit random.Random so failures reproduce from the
reported seed alone. Sizes stay small (few atoms, few premises) so exact
brute-force references remain cheap.
"""

from fractions import Fraction
from random import Random

import numpy as np

from genlogic import (
    UNDEFINED,
    And,
    Atom,
    Dataset,
    Iff,
    Implies,
    ModelDistribution,
    Not,
    Or,
    Signature,
    enumerate_worlds,
    posterior_data,
)
from genlogic.mnist import (
    DEFAULT_THRESHOLD,
    N_DIGITS,
    image_bits,
    image_dataset,
    pixel_premises,
)

_SIGS = [Signature(propositions=tuple(f"a{i}" for i in range(n))) for n in (1, 2, 3, 4)]


def random_signature(rng: Random) -> Signature:
    return rng.choice(_SIGS)


def random_formula(rng: Random, sig: Signature, depth: int = 3):
    if depth == 0 or rng.random() < 0.35:
        return Atom(rng.choice(sig.propositions))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, sig, depth - 1))
    left = random_formula(rng, sig, depth - 1)
    right = random_formula(rng, sig, depth - 1)
    return (And, Or, Implies, Iff)[kind - 1](left, right)


def random_premises(rng: Random, sig: Signature, max_n: int = 5, min_n: int = 0):
    return tuple(
        random_formula(rng, sig, depth=2)
        for _ in range(rng.randint(min_n, max_n))
    )


def random_distinct_premises(rng: Random, sig: Signature, max_n: int = 5):
    seen = []
    for f in random_premises(rng, sig, max_n):
        if f not in seen:
            seen.append(f)
    return tuple(seen)


def random_distribution(rng: Random, sig: Signature,
                        all_positive: bool = False) -> ModelDistribution:
    worlds = enumerate_worlds(sig)
    low = 1 if all_positive else 0
    weights = [rng.randint(low, 6) for _ in worlds]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    return ModelDistribution(tuple(worlds), tuple(Fraction(w, total) for w in weights))


def random_dataset(rng: Random, sig: Signature) -> Dataset:
    worlds = enumerate_worlds(sig)
    entries = [(w, rng.randint(1, 4)) for w in worlds if rng.random() < 0.6]
    if not entries:
        entries = [(rng.choice(worlds), rng.randint(1, 4))]
    return Dataset.weighted(entries)


def random_mu(rng: Random) -> Fraction:
    den = rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def digit_posterior_spec(train, image, regime, threshold=DEFAULT_THRESHOLD):
    """predict_digit by the engine: one world per training image, the 784
    pixel literals of image as premises, posterior_data's weights summed per
    label in entry order."""
    (bits,) = image_bits(np.asarray(image)[None], threshold)
    weights = posterior_data(pixel_premises(bits), image_dataset(train, threshold), regime)
    if weights is UNDEFINED:
        return UNDEFINED
    totals = [type(weights[0])(0)] * N_DIGITS
    for label, wt in zip(train.labels.tolist(), weights):
        totals[label] += wt
    return tuple(totals)
