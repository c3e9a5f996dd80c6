"""The three workloads: seeded inputs, set-up, one op, and the output checks.

Each workload has one kind of op, the same bundle of calls on fresh inputs
every time, and shares its loaded knowledge base or training set across
ops. Calls into the program go through module attributes
(``engine.cond_prob``, ``mnist.learning_curve``) so that the traced run can
wrap them where every caller looks them up.
"""

from __future__ import annotations

import csv
import gzip
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from genlogic import data, engine, mnist, parser, synthdata  # noqa: E402
from genlogic.signature import Signature  # noqa: E402
from genlogic.worlds import World  # noqa: E402

import reference as ref  # noqa: E402

# A float result may differ from the exact reference by summation order only.
FLOAT_REL_TOL = 1e-9
# Trapezoid sums of at most 101 steps against the exact Mann-Whitney rational.
AUC_TOL = 1e-12
# Fixed-mu digit scores are float sums taken in another order than the
# reference's, so two scores this close may tie in one and not in the other.
SCORE_REL_TOL = 1e-9

REGIMES = (
    ("one", engine.ONE),
    ("limit", engine.LIMIT_ONE),
    ("fixed_exact", engine.fixed(Fraction(4, 5))),
    ("fixed_float", engine.fixed(0.8)),
)


def regime_name(regime) -> str:
    if regime.kind != "fixed":
        return regime.kind
    return "fixed_exact" if isinstance(regime.mu, Fraction) else "fixed_float"


def same(value, expected, exact: bool) -> bool:
    """Program value against a reference value (None means undefined)."""
    if expected is None:
        return value is engine.UNDEFINED
    if value is engine.UNDEFINED:
        return False
    if exact:
        return value == expected
    return math.isclose(value, expected, rel_tol=FLOAT_REL_TOL)


def atom(j: int):
    return ("atom", int(j))


def neg(f):
    return f[1] if f[0] == "not" else ("not", f)


def literal(j: int, positive: bool):
    return atom(j) if positive else neg(atom(j))


def bool_columns(n_atoms: int) -> np.ndarray:
    """All worlds in enumeration order: row k has atom 0 as its top bit."""
    k = np.arange(1 << n_atoms)
    return ((k[:, None] >> (n_atoms - 1 - np.arange(n_atoms))) & 1).astype(bool)


class Query:
    """Explicit-distribution reasoning over 14 atoms (16,384 worlds)."""

    n_atoms = 14
    setup_reps = 5
    ops_per_s_cap = 3.0  # questions made per second of window; far above the rate here

    names = tuple(f"a{j}" for j in range(n_atoms))

    @classmethod
    def generate(cls, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 0])
        n = 1 << cls.n_atoms
        mass = rng.integers(1, 1001, size=n)
        mass[rng.choice(n, size=n // 7, replace=False)] = 0
        total = int(mass.sum())
        with open(work / "query.dist", "w", encoding="utf-8") as fh:
            for k, m in enumerate(mass.tolist()):
                weight = f"{m}/{total}" if m else "0"
                fh.write(f"{k:0{cls.n_atoms}b} {weight}\n")
        np.save(work / "query-mass.npy", mass)

    @classmethod
    def inputs(cls, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 1])
        out = []
        for _ in range(math.ceil(seconds * cls.ops_per_s_cap) + 2):
            # Fixed shapes over distinct atoms: scoring all worlds costs the same
            # for every question, so op costs differ only through the weights.
            a = rng.permutation(cls.n_atoms)[:9]
            lit = literal(a[0], rng.random() < 0.5)
            premises = [lit, lit, neg(lit), literal(a[1], rng.random() < 0.5),
                        ("or", atom(a[2]), neg(atom(a[3]))),
                        ("and", ("imp", atom(a[4]), atom(a[5])),
                         ("iff", atom(a[6]), atom(a[7])))]
            premises = [premises[i] for i in rng.permutation(len(premises))]
            conclusion = ("and", atom(a[1]), neg(atom(a[8])))
            text = (ref.render(conclusion, cls.names) + " | "
                    + "; ".join(ref.render(p, cls.names) for p in premises))
            out.append((text, conclusion, tuple(premises)))
        return out

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.sig = Signature(propositions=self.names)

    def setup(self):
        self.dist = data.read_distribution(self.work / "query.dist", self.sig)

    def prepare(self, question):
        return question

    def op(self, question):
        conclusion, premises = parser.parse_query(question[0], self.sig)
        query = engine.Query(conclusion, premises)
        out = {name: engine.cond_prob(query, self.dist, regime) for name, regime in REGIMES}
        post = engine.posterior_models(premises, self.dist, engine.LIMIT_ONE)
        # Keep the nonzero entries only, so memory held for the checks does not
        # grow with the number of ops.
        out["posterior"] = len(post), {i: v for i, v in enumerate(post) if v}
        out["mcs"] = engine.mcs(premises, self.dist.worlds)
        out["mps"] = engine.mps(premises, self.dist)
        return premises, out

    def check(self, questions, outputs) -> list[bool]:
        cols = bool_columns(self.n_atoms)
        bits = ref.world_bits(cols)
        mass = np.load(self.work / "query-mass.npy")
        everywhere = np.ones(len(cols), dtype=bool)
        return [self._check_one(q, out, cols, bits, mass, everywhere)
                for q, out in zip(questions, outputs)]

    def _check_one(self, question, result, cols, bits, mass, everywhere) -> bool:
        _, conclusion, premises = question
        parsed, out = result
        hist = ref.score_histogram(premises, conclusion, cols, mass)
        for name, regime in REGIMES:
            expected = ref.conditional(hist, len(premises), regime.kind, regime.mu)
            if not same(out[name], expected, exact=name != "fixed_float"):
                return False
        # posterior_models under the limit regime: mass share of the top-score worlds.
        s = ref.scores(premises, cols)
        top = (mass > 0) & (s == s[mass > 0].max())
        den = int(mass[top].sum())
        expected = {int(i): Fraction(int(mass[i]), den) for i in np.flatnonzero(top)}
        if out["posterior"] != (len(mass), expected):
            return False
        distinct = list(dict.fromkeys(premises))
        position = {f: distinct.index(p) for f, p in zip(parsed, premises)}
        for key, live in (("mcs", everywhere), ("mps", mass > 0)):
            subsets, rows = ref.maximal_subsets(distinct, cols, live)
            got = out[key]
            if {frozenset(position[f] for f in sub) for sub in got.subsets} != subsets:
                return False
            if [w.bits for w in got.union_models] != [bits[r] for r in rows]:
                return False
        return True


class Stream:
    """Streaming updates of eight running estimates over 24 atoms."""

    n_atoms = 24
    base_rows = 20000
    block = 100
    setup_reps = 3
    ops_per_s_cap = 100.0

    names = tuple(f"s{j}" for j in range(n_atoms))

    @classmethod
    def _rows(cls, seed: int, stream: int, n: int) -> np.ndarray:
        """Rows of a Markov chain over the atoms: each atom copies the one
        before it with probability 0.4, else draws its own bit."""
        p = np.random.default_rng([seed, 0]).uniform(0.15, 0.85, size=cls.n_atoms)
        rng = np.random.default_rng([seed, stream])
        rows = rng.random((n, cls.n_atoms)) < p
        copy = rng.random((n, cls.n_atoms)) < 0.4
        for j in range(1, cls.n_atoms):
            rows[:, j] = np.where(copy[:, j], rows[:, j - 1], rows[:, j])
        return rows

    @classmethod
    def generate(cls, seed: int, work: Path) -> None:
        rows = cls._rows(seed, 1, cls.base_rows)
        counts = np.random.default_rng([seed, 2]).integers(1, 5, size=cls.base_rows)
        with open(work / "stream.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cls.names + ("count",))
            writer.writerows(list(map(int, r)) + [int(c)] for r, c in zip(rows, counts))
        np.savez(work / "stream-base.npz", rows=rows, counts=counts)

    @classmethod
    def targets(cls, seed: int):
        """alpha and the premise set shared by the eight estimates."""
        a = np.random.default_rng([seed, 3]).permutation(cls.n_atoms)[:7]
        alpha = ("or", atom(a[0]), neg(atom(a[1])))
        premises = (atom(a[1]), neg(atom(a[2])), ("or", atom(a[3]), atom(a[4])),
                    ("imp", atom(a[5]), atom(a[6])))
        return alpha, premises

    @classmethod
    def inputs(cls, seed: int, seconds: float):
        n_blocks = math.ceil(seconds * cls.ops_per_s_cap) + 2
        rows = cls._rows(seed, 4, n_blocks * cls.block)
        packed = rows.astype(np.int64) << np.arange(cls.n_atoms)
        return packed.sum(axis=1).reshape(n_blocks, cls.block)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.sig = Signature(propositions=self.names)
        self.alpha, self.premises = self.targets(seed)

    def setup(self):
        self.data = data.read_dataset_csv(self.work / "stream.csv", self.sig)
        alpha = parser.parse_formula(ref.render(self.alpha, self.names), self.sig)
        premises = tuple(parser.parse_formula(ref.render(p, self.names), self.sig)
                         for p in self.premises)
        self.estimates = [engine.running_estimate(alpha, self.data, regime, given)
                          for _, regime in REGIMES for given in ((), premises)]

    def prepare(self, block):
        return [World(self.sig, int(b)) for b in block]

    def op(self, worlds):
        ests = self.estimates
        for w in worlds:
            for i, est in enumerate(ests):
                ests[i] = engine.update(est, w)
        return [est.value for est in ests]

    def check(self, blocks, outputs) -> list[bool]:
        """Each op's eight values against count-based references, cumulatively.

        The reference folds the base rows and then each streamed block into
        score histograms, one per estimate. The last op must also match
        cond_prob/prob recomputed on the extended dataset, for the exact
        regimes.
        """
        base = np.load(self.work / "stream-base.npz")
        targets = [(regime, given) for _, regime in REGIMES
                   for given in ((), self.premises)]
        hists = [ref.score_histogram(given, self.alpha, base["rows"], base["counts"])
                 for _, given in targets]
        ok = []
        for block, values in zip(blocks, outputs):
            rows = ((block[:, None] >> np.arange(self.n_atoms)) & 1).astype(bool)
            ones = np.ones(len(rows), dtype=np.int64)
            good = True
            for (regime, given), hist, value in zip(targets, hists, values):
                for key, m in ref.score_histogram(given, self.alpha, rows, ones).items():
                    hist[key] = hist.get(key, 0) + m
                expected = ref.conditional(hist, len(given), regime.kind, regime.mu)
                good &= same(value, expected, exact=regime_name(regime) != "fixed_float")
            ok.append(good)
        if ok:
            ok[-1] &= self._recompute_matches(blocks, outputs[-1])
        return ok

    def _recompute_matches(self, blocks, values) -> bool:
        streamed = tuple((w, 1) for block in blocks for w in self.prepare(block))
        extended = data.Dataset(self.data.entries + streamed)
        for est, value in zip(self.estimates, values):
            if regime_name(est.regime) == "fixed_float":
                continue
            if est.premises:
                full = engine.cond_prob(engine.Query(est.alpha, est.premises),
                                        extended, est.regime)
            else:
                full = engine.prob(est.alpha, extended, est.regime)
            if full != value:
                return False
        return True


def _read_idx_gz(path: Path) -> np.ndarray:
    """Payload of a gzipped idx file: (n, 784) for images, (n,) for labels."""
    raw = gzip.decompress(path.read_bytes())
    if int.from_bytes(raw[:4], "big") == 2051:
        return np.frombuffer(raw[16:], dtype=np.uint8).reshape(-1, 784)
    return np.frombuffer(raw[8:], dtype=np.uint8)


class Digits:
    """The digit learning curve on synthetic seven-segment digits."""

    sizes = (100, 300, 1000)
    mu = 0.8
    ks = (1, 3, 5)
    block = 100
    threshold = mnist.DEFAULT_THRESHOLD
    setup_reps = 5
    idx_names = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                 "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")

    @classmethod
    def generate(cls, seed: int, work: Path) -> None:
        idx = work / "idx"
        synthdata.ensure_synthetic_idx(idx, seed=2 * seed)
        for name in cls.idx_names:
            raw = idx / name
            with gzip.open(idx / (name + ".gz"), "wb", compresslevel=6) as fh:
                fh.write(raw.read_bytes())
            raw.unlink()

    @classmethod
    def inputs(cls, seed: int, seconds: float):
        # Fresh test blocks in file order; the test file holds 100 of them.
        return range(10000 // cls.block)

    def __init__(self, work: Path, seed: int):
        self.work = work

    def setup(self):
        self.train, self.test, _ = mnist.load_split(self.work / "idx")

    def prepare(self, i: int):
        sl = slice(i * self.block, (i + 1) * self.block)
        return mnist.ImageSet(self.test.images[sl], self.test.labels[sl])

    def op(self, block):
        return mnist.learning_curve(self.train, block, sizes=self.sizes, mus=(self.mu,),
                                    include_limit=True, ks=self.ks,
                                    threshold=self.threshold, test_size=len(block),
                                    out_dir=self.work / "curve")

    def check(self, blocks, outputs) -> list[bool]:
        idx = self.work / "idx"
        train = _read_idx_gz(idx / "train-images-idx3-ubyte.gz")[: self.sizes[-1]]
        train_labels = _read_idx_gz(idx / "train-labels-idx1-ubyte.gz")[: self.sizes[-1]]
        test = _read_idx_gz(idx / "t10k-images-idx3-ubyte.gz")
        test_labels = _read_idx_gz(idx / "t10k-labels-idx1-ubyte.gz")
        train_bits = train >= self.threshold
        ok = []
        for i, points in zip(blocks, outputs):
            sl = slice(i * self.block, (i + 1) * self.block)
            dist = ref.hamming(train_bits, test[sl] >= self.threshold)
            ok.append(self._check_block(points, dist, train_labels, test_labels[sl]))
        return ok

    def _check_block(self, points, dist, train_labels, labels) -> bool:
        got = {(p.method, p.param, p.train_size, p.digit): p.auc for p in points}
        n_cells = 0
        for size in self.sizes:
            d, lab = dist[:, :size], train_labels[:size]
            exact = [("gl-limit", "", ref.limit_scores(d, lab))]
            exact += [("knn", str(k), ref.knn_scores(d, lab, k)) for k in self.ks]
            fixed_scores = ref.fixed_scores(d, lab, self.mu)
            for digit in range(10):
                positive = labels == digit
                for method, param, scores in exact:
                    auc = got.get((method, param, size, digit))
                    expected = ref.mann_whitney_auc(scores[:, digit], positive)
                    if auc is None or abs(auc - float(expected)) > AUC_TOL:
                        return False
                auc = got.get(("gl-mu", str(self.mu), size, digit))
                lo, hi = ref.mann_whitney_auc_range(fixed_scores[:, digit], positive,
                                                    SCORE_REL_TOL)
                if auc is None or not float(lo) - AUC_TOL <= auc <= float(hi) + AUC_TOL:
                    return False
                n_cells += len(exact) + 1
        return n_cells == len(got)


WORKLOADS = {"query": Query, "stream": Stream, "digits": Digits}
