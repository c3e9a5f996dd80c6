"""Reference computations the benchmark checks the program against.

Nothing here calls genlogic. Formulas are the benchmark's own nested
tuples, evaluated on numpy bit columns; probabilities are exact sums of
integer masses grouped by premise score; digit scores come from Hamming
distances computed here and AUCs from the Mann-Whitney statistic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# A formula is ("atom", j), ("not", f) or (op, f, g) with op in _BINARY.
_BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def render(f, names) -> str:
    """Formula text in genlogic syntax; every binary connective is parenthesized."""
    kind = f[0]
    if kind == "atom":
        return names[f[1]]
    if kind == "not":
        return "~" + render(f[1], names)
    return f"({render(f[1], names)} {_BINARY[kind]} {render(f[2], names)})"


def holds(f, cols: np.ndarray) -> np.ndarray:
    """Truth of the formula on every row of a (rows, atoms) boolean array."""
    kind = f[0]
    if kind == "atom":
        return cols[:, f[1]]
    if kind == "not":
        return ~holds(f[1], cols)
    a, b = holds(f[1], cols), holds(f[2], cols)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "imp":
        return ~a | b
    if kind == "iff":
        return a == b
    raise ValueError(f"not a formula: {f!r}")


def scores(premises, cols: np.ndarray) -> np.ndarray:
    """Per row, how many premise occurrences hold (duplicates count twice)."""
    out = np.zeros(len(cols), dtype=np.int64)
    for p in premises:
        out += holds(p, cols)
    return out


def score_histogram(premises, conclusion, cols, mass) -> dict:
    """Integer mass by (premise score, conclusion holds) over rows of positive mass."""
    s = scores(premises, cols)
    c = holds(conclusion, cols)
    hist: dict[tuple[int, bool], int] = {}
    for key_s, key_c, m in zip(s.tolist(), c.tolist(), mass.tolist()):
        if m > 0:
            hist[key_s, key_c] = hist.get((key_s, key_c), 0) + m
    return hist


def conditional(hist: dict, n_premises: int, kind: str, mu=None):
    """p(conclusion | premises) from a score histogram, or None if undefined.

    kind is "one" (every premise holds), "limit" (the top score among rows
    of positive mass) or "fixed" (each premise occurrence, and the
    conclusion, contributes mu when it holds and 1 - mu when it does not).
    Integer masses and a Fraction mu give an exact Fraction; a float mu
    gives a float.
    """
    if not hist:
        return None
    if kind in ("one", "limit"):
        target = n_premises if kind == "one" else max(s for s, _ in hist)
        num = hist.get((target, True), 0)
        den = num + hist.get((target, False), 0)
        return Fraction(num, den) if den else None
    num = den = 0
    for (s, c), m in hist.items():
        w = m * mu ** s * (1 - mu) ** (n_premises - s)
        den += w
        num += w * (mu if c else 1 - mu)
    return num / den


def world_bits(cols: np.ndarray) -> list[int]:
    """Pack each row into an int with atom j at bit j (genlogic's World.bits)."""
    weights = [1 << j for j in range(cols.shape[1])]
    return [sum(w for w, b in zip(weights, row) if b) for row in cols.tolist()]


def maximal_subsets(formulas, cols: np.ndarray, live: np.ndarray):
    """Cardinality-maximal satisfiable subsets of distinct formulas.

    Satisfiability is judged over the rows where live is true. Returns the
    subsets as frozensets of formula positions and the row indices where
    the maximal count is reached, in row order.
    """
    sat = np.stack([holds(f, cols) for f in formulas], axis=1) & live[:, None]
    count = sat.sum(axis=1)
    count[~live] = -1
    rows = np.flatnonzero(count == count.max())
    subsets = {frozenset(np.flatnonzero(sat[r]).tolist()) for r in rows}
    return frozenset(subsets), rows.tolist()


def hamming(train: np.ndarray, test: np.ndarray) -> np.ndarray:
    """(n_test, n_train) disagreement counts between boolean rows."""
    a = np.packbits(np.asarray(test, dtype=bool), axis=1)
    b = np.packbits(np.asarray(train, dtype=bool), axis=1)
    out = np.empty((len(a), len(b)), dtype=np.int64)
    for i, row in enumerate(a):
        out[i] = np.bitwise_count(b ^ row).sum(axis=1)
    return out


def limit_scores(dist: np.ndarray, labels: np.ndarray, n_labels: int = 10) -> np.ndarray:
    """Label vote shares among the training rows at the minimum distance."""
    nearest = dist == dist.min(axis=1, keepdims=True)
    votes = np.stack([(nearest & (labels == d)).sum(axis=1) for d in range(n_labels)],
                     axis=1)
    return votes / nearest.sum(axis=1, keepdims=True)


def knn_scores(dist: np.ndarray, labels: np.ndarray, k: int,
               n_labels: int = 10) -> np.ndarray:
    """Label vote shares among the k nearest rows; ties go to the earlier row."""
    n = dist.shape[1]
    # Distinct keys: distance first, then row position.
    nearest = np.argsort(dist * n + np.arange(n), axis=1)[:, :k]
    out = np.zeros((len(dist), n_labels))
    for i, row in enumerate(labels[nearest]):
        for lab in row:
            out[i, lab] += 1
    return out / k


def fixed_scores(dist: np.ndarray, labels: np.ndarray, mu: float,
                 n_labels: int = 10) -> np.ndarray:
    """Per-label share of sum r**(d - d_min), r = (1 - mu) / mu."""
    r = (1 - mu) / mu
    w = r ** (dist - dist.min(axis=1, keepdims=True)).astype(np.float64)
    per_label = np.stack([(w * (labels == d)).sum(axis=1) for d in range(n_labels)],
                         axis=1)
    return per_label / w.sum(axis=1, keepdims=True)


def _split(scores, positive):
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    if not pos or not neg:
        raise ValueError("the AUC needs a positive and a negative example")
    return pos, neg


def mann_whitney_auc(scores, positive) -> Fraction:
    """P(score of a positive > score of a negative), ties counted half, exactly."""
    pos, neg = _split(scores, positive)
    twice_u = sum(2 * (a > b) + (a == b) for a in pos for b in neg)
    return Fraction(twice_u, 2 * len(pos) * len(neg))


def mann_whitney_auc_range(scores, positive, rel_tol: float) -> tuple[Fraction, Fraction]:
    """The AUCs possible when scores within rel_tol of each other may order either way.

    A positive-negative pair whose scores differ by more than rel_tol of the
    larger counts 1 or 0 as usual; a closer pair counts anywhere in [0, 1].
    """
    pos, neg = _split(scores, positive)
    lo = hi = 0
    for a in pos:
        for b in neg:
            if abs(a - b) <= rel_tol * max(abs(a), abs(b)):
                hi += 1
            elif a > b:
                lo += 1
                hi += 1
    n = len(pos) * len(neg)
    return Fraction(lo, n), Fraction(hi, n)
