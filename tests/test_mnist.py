"""Digit experiment plumbing: idx files, encodings, and both inference routes."""

import gzip
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest

from genlogic import LIMIT_ONE, ONE, Atom, Query, UNDEFINED, cond_prob, fixed
from genlogic import mnist
from genlogic.mnist import (
    DEFAULT_THRESHOLD,
    ImageSet,
    binarize,
    digit_signature,
    generate_all,
    hamming_matrix,
    image_dataset,
    knn_scores,
    learning_curve,
    load_idx,
    load_image_set,
    load_split,
    locate_idx_files,
    pixel_premises,
    predict_digit,
    roc_curve,
    split_dataset,
    write_idx,
    write_pgm,
)
from genlogic.oracle import allnn_bruteforce
from genlogic.synthdata import make_image_set


@pytest.fixture(scope="module")
def small_sets():
    train = make_image_set(120, seed=7)
    test = make_image_set(40, seed=8)
    return train, test


# -- idx round trips -----------------------------------------------------------


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 784), dtype=np.uint8)
    labels = rng.integers(0, 10, size=5, dtype=np.uint8)
    write_idx(tmp_path / "imgs.idx", images)
    write_idx(tmp_path / "labs.idx", labels)
    assert np.array_equal(load_idx(tmp_path / "imgs.idx"), images)
    assert np.array_equal(load_idx(tmp_path / "labs.idx"), labels)


def test_idx_gzip_round_trip(tmp_path):
    labels = np.arange(10, dtype=np.uint8)
    write_idx(tmp_path / "labs.idx", labels)
    raw = (tmp_path / "labs.idx").read_bytes()
    gz = tmp_path / "labs.idx.gz"
    gz.write_bytes(gzip.compress(raw))
    assert np.array_equal(load_idx(gz), labels)


def test_idx_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x05abc")
    with pytest.raises(ValueError):
        load_idx(bad)
    bad.write_bytes(b"\xff\xff\xff\xff" + b"\x00" * 12)
    with pytest.raises(ValueError):
        load_idx(bad)


def test_load_image_set_validates_shapes(tmp_path):
    images = np.zeros((4, 784), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    write_idx(tmp_path / "i.idx", images)
    write_idx(tmp_path / "l.idx", labels)
    with pytest.raises(ValueError):
        load_image_set(tmp_path / "i.idx", tmp_path / "l.idx")


def test_load_split_errors_on_explicit_empty_dir(tmp_path):
    with pytest.raises(OSError):
        load_split(tmp_path / "nothing-here")


def test_locate_prefers_env_dir(tmp_path, monkeypatch, small_sets):
    train, test = small_sets
    root = tmp_path / "idxenv"
    root.mkdir()
    write_idx(root / "train-images-idx3-ubyte", train.images)
    write_idx(root / "train-labels-idx1-ubyte", train.labels)
    write_idx(root / "t10k-images-idx3-ubyte", test.images)
    write_idx(root / "t10k-labels-idx1-ubyte", test.labels)
    monkeypatch.setenv("GENLOGIC_MNIST_DIR", str(root))
    found = locate_idx_files()
    assert found["train_images"].parent == root


# -- binarization and the digit signature ---------------------------------------


def test_binarize_threshold_boundary():
    row = np.zeros((1, 784), dtype=np.uint8)
    row[0, :5] = (0, 29, 30, 31, 255)
    got = binarize(row, threshold=30)
    assert got.dtype == bool
    assert got[0, :5].tolist() == [False, False, True, True, True]
    assert not got[0, 5:].any()
    assert DEFAULT_THRESHOLD == 30


def test_digit_signature_layout():
    sig = digit_signature()
    assert len(sig.atoms) == 794
    assert sig.atoms[0] == "p0" and sig.atoms[783] == "p783"
    assert sig.atoms[784] == "d0" and sig.atoms[793] == "d9"
    assert digit_signature() is sig  # cached


def test_image_dataset_round_trip(small_sets):
    train, _ = small_sets
    data = image_dataset(train)
    pixels, labels, counts = split_dataset(data)
    assert pixels.shape == (len(data.entries), 784)
    assert counts.sum() == len(train)
    want = binarize(train.images, DEFAULT_THRESHOLD)
    # regroup per entry: every original row must appear with its label
    rebuilt = {}
    for row, lab, c in zip(pixels, labels, counts):
        rebuilt[row.tobytes() + bytes([lab])] = rebuilt.get(row.tobytes() + bytes([lab]), 0) + c
    for row, lab in zip(want.astype(bool), train.labels):
        key = row.tobytes() + bytes([int(lab)])
        rebuilt[key] -= 1
    assert all(v == 0 for v in rebuilt.values())


def test_image_set_validation():
    with pytest.raises(ValueError):
        ImageSet(np.zeros((3, 10), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        ImageSet(np.zeros((3, 784), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
    with pytest.raises(ValueError):
        ImageSet(np.zeros((3, 784), dtype=np.float32), np.zeros(3, dtype=np.uint8))


# -- generation: engine route equals the vectorized route ------------------------


def test_generate_digit_matches_engine(small_sets):
    # the vectorized class mean and the literal conditional query must agree
    # to the last bit: both are one float division of the same two integers
    train, _ = small_sets
    data = image_dataset(train)
    fast = generate_all(data)[3]
    d3 = Atom("d3")
    for j in (0, 200, 391, 783):
        slow = cond_prob(Query(Atom(f"p{j}"), (d3,)), data, LIMIT_ONE)
        assert float(slow) == fast[j]


def test_generate_all_shape_and_consistency(small_sets):
    train, _ = small_sets
    data = image_dataset(train)
    grid = generate_all(data)
    assert grid.shape == (10, 784)
    assert ((0.0 <= grid) & (grid <= 1.0)).all()


def test_generate_digit_is_class_mean(small_sets):
    train, _ = small_sets
    data = image_dataset(train)
    bits = binarize(train.images, DEFAULT_THRESHOLD)
    for d in range(10):
        mask = train.labels == d
        mean = bits[mask].mean(axis=0)
        assert np.array_equal(generate_all(data)[d], mean)


def test_write_pgm(tmp_path):
    probs = np.linspace(0, 1, 784)
    path = tmp_path / "digit.pgm"
    write_pgm(path, probs)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n28 28\n255\n")
    body = raw[len(b"P5\n28 28\n255\n"):]
    assert len(body) == 784
    assert body[0] == 0 and body[-1] == 255
    with pytest.raises(ValueError):
        write_pgm(path, np.full(784, 1.5))


# -- prediction: engine route equals the neighbour vote --------------------------


def test_predict_digit_matches_allnn(small_sets):
    train, test = small_sets
    data = image_dataset(train)
    train_bits = binarize(train.images, DEFAULT_THRESHOLD)
    test_bits = binarize(test.images, DEFAULT_THRESHOLD)
    dists = allnn_bruteforce(train_bits.tolist(), test_bits.tolist())

    packed = np.packbits(test_bits, axis=1, bitorder="little")
    for i in range(len(test)):
        pixel_bits = int.from_bytes(packed[i].tobytes(), "little")
        post = predict_digit(data, pixel_bits, LIMIT_ONE)
        row = dists[i]
        best = min(row)
        votes = [0] * 10
        for j, dist in enumerate(row):
            if dist == best:
                votes[int(train.labels[j])] += 1
        want = [Fraction(v, sum(votes)) for v in votes]
        assert list(post) == want


def test_predict_digit_strict_regime(small_sets):
    train, _ = small_sets
    data = image_dataset(train)
    # an exact training image must be its own certain prediction
    pixels, labels, _ = split_dataset(data)
    packed = np.packbits(pixels[0], bitorder="little")
    bits = int.from_bytes(packed.tobytes(), "little")
    post = predict_digit(data, bits, ONE)
    assert post is not UNDEFINED
    # all-black image almost surely absent from training data
    assert predict_digit(data, 0, ONE) is UNDEFINED
    assert predict_digit(data, 0, LIMIT_ONE) is not UNDEFINED


def test_predict_digit_fixed_regime_is_soft_vote(small_sets):
    train, _ = small_sets
    data = image_dataset(train)
    post = predict_digit(data, 0, fixed(0.8))
    assert post is not UNDEFINED
    assert sum(post) == pytest.approx(1.0)
    assert all(p > 0 for p in post)


# -- neighbour scores and ROC ----------------------------------------------------


def test_hamming_matrix_matches_bruteforce(small_sets):
    train, test = small_sets
    tb = binarize(train.images, DEFAULT_THRESHOLD)[:50]
    sb = binarize(test.images, DEFAULT_THRESHOLD)[:20]
    want = np.array(allnn_bruteforce(tb.tolist(), sb.tolist()))
    got = hamming_matrix(tb, sb)
    assert np.array_equal(got, want.T if got.shape != want.shape else want)


def test_knn_tie_break_prefers_earlier_rows():
    train = np.zeros((3, 784), dtype=bool)
    train[2] = True
    labels = np.array([4, 2, 2])
    test = np.zeros((1, 784), dtype=bool)
    # k=1: rows 0 and 1 tie at distance 0; stable sort keeps row 0
    got = knn_scores(train, labels, test, k=1)
    assert got[0, 4] == 1.0 and got[0, 2] == 0.0
    got3 = knn_scores(train, labels, test, k=3)
    assert got3[0, 2] == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        knn_scores(train, labels, test, k=0)
    with pytest.raises(ValueError):
        knn_scores(train, labels, test, k=4)


def _with_duplicates(images: ImageSet) -> ImageSet:
    """Images 0..59, then 0..29 again: prefixes past 60 hold exact copies."""
    idx = np.r_[np.arange(60), np.arange(30)]
    return ImageSet(images.images[idx], images.labels[idx])


def test_curve_scores_equal_spec_paths(small_sets):
    train, test = small_sets
    train = _with_duplicates(train)
    train_bits = binarize(train.images, DEFAULT_THRESHOLD)
    test_bits = binarize(test.images, DEFAULT_THRESHOLD)
    dist = hamming_matrix(train_bits, test_bits)
    brute = allnn_bruteforce(train_bits.tolist(), test_bits.tolist())
    packed = np.packbits(test_bits, axis=1, bitorder="little")
    images = [int.from_bytes(row.tobytes(), "little") for row in packed]
    for size in (45, 75, 90):
        data = image_dataset(train.take(size))
        d, onehot = dist[:, :size], np.eye(10)[train.labels[:size]]

        def spec(regime):
            return np.array([[float(p) for p in predict_digit(data, bits, regime)]
                             for bits in images])

        assert np.array_equal(mnist._limit_scores(d, onehot), spec(LIMIT_ONE))
        # Same float operations in the same order: equal, not merely close.
        assert np.array_equal(mnist._fixed_scores(0.8)(d, onehot), spec(fixed(0.8)))
        np.testing.assert_allclose(mnist._fixed_scores(Fraction(4, 5))(d, onehot),
                                   spec(fixed(Fraction(4, 5))), rtol=1e-12, atol=0)
        for k in (1, 2, 5):
            want = np.zeros((len(test), 10))
            for i, row in enumerate(brute):
                for j in sorted(range(size), key=lambda j: row[j])[:k]:  # stable
                    want[i, train.labels[j]] += 1
            assert np.array_equal(mnist._knn_votes(d, onehot, k), want / k)


def test_curve_blocks_over_test_rows(small_sets, monkeypatch):
    train, test = small_sets
    args = dict(sizes=(40, 120), mus=(0.8, Fraction(4, 5)), ks=(1, 3), test_size=40)
    train_bits = binarize(train.images, DEFAULT_THRESHOLD)
    test_bits = binarize(test.images, DEFAULT_THRESHOLD)
    whole = learning_curve(train, test, **args)
    knn_whole = knn_scores(train_bits, train.labels, test_bits, 3)

    calls = []
    hamming = mnist.hamming_matrix
    monkeypatch.setattr(mnist, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(mnist, "hamming_matrix",
                        lambda a, b: calls.append(len(b)) or hamming(a, b))
    assert learning_curve(train, test, **args) == whole
    assert np.array_equal(knn_scores(train_bits, train.labels, test_bits, 3), knn_whole)
    assert calls == [7, 7, 7, 7, 7, 5] * 2


def test_learning_curve_rejects_bad_k_and_mu(small_sets):
    train, test = small_sets
    for bad in (dict(ks=(0,)), dict(ks=(41,)), dict(mus=(1,)), dict(mus=(0,))):
        with pytest.raises(ValueError):
            learning_curve(train, test, sizes=(40,), test_size=10, **bad)


def _roc_sweep(scores, labels):
    """The threshold sweep written as a loop, one tie group at a time."""
    ranked = sorted(zip(scores, labels), key=lambda pair: -pair[0])
    pos = sum(labels)
    neg = len(labels) - pos
    points, auc, tp, fp = [(0.0, 0.0)], 0.0, 0, 0
    for _, group in groupby(ranked, key=lambda pair: pair[0]):
        for _, positive in group:
            tp, fp = tp + positive, fp + (not positive)
        (prev_fpr, prev_tpr), fpr, tpr = points[-1], fp / neg, tp / pos
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2
        points.append((fpr, tpr))
    return tuple(points), auc


def test_roc_equals_loop_sweep():
    rng = np.random.default_rng(5)
    for n in (2, 7, 50, 300):
        scores = rng.integers(0, 6, size=n) / 5  # heavy ties
        labels = rng.random(n) < 0.3
        labels[:2] = (True, False)
        curve = roc_curve(scores, labels)
        assert (curve.points, curve.auc) == _roc_sweep(scores.tolist(), labels.tolist())


def test_roc_golden():
    scores = [0.9, 0.8, 0.7, 0.6]
    labels = [True, False, True, False]
    curve = roc_curve(scores, labels)
    assert curve.auc == 0.75
    assert curve.points[0] == (0.0, 0.0) and curve.points[-1] == (1.0, 1.0)


def test_roc_ties_grouped():
    # all scores equal: the curve is the diagonal, area one half
    curve = roc_curve([0.5, 0.5, 0.5, 0.5], [True, False, True, False])
    assert curve.auc == 0.5
    assert len(curve.points) == 2


def test_roc_monotone_invariance():
    rng = np.random.default_rng(3)
    scores = rng.random(50)
    labels = rng.random(50) < 0.4
    a = roc_curve(scores, labels).auc
    b = roc_curve(np.tanh(5 * scores), labels).auc
    assert a == pytest.approx(b)


def test_roc_requires_both_classes():
    with pytest.raises(ValueError):
        roc_curve([0.1, 0.2], [True, True])


def test_perfect_and_inverted_auc():
    assert roc_curve([0.9, 0.8, 0.2, 0.1], [True, True, False, False]).auc == 1.0
    assert roc_curve([0.9, 0.8, 0.2, 0.1], [False, False, True, True]).auc == 0.0


# -- the learning curve ----------------------------------------------------------


def test_learning_curve_small(tmp_path, small_sets):
    train, test = small_sets
    points = learning_curve(
        train,
        test,
        sizes=(40, 80),
        mus=(0.8,),
        include_limit=True,
        ks=(1, 3),
        test_size=30,
        out_dir=tmp_path,
    )
    combos = {(p.method, p.param) for p in points}
    assert combos == {("gl-limit", ""), ("gl-mu", "0.8"), ("knn", "1"), ("knn", "3")}
    sizes = {p.train_size for p in points}
    assert sizes == {40, 80}
    per_combo = {}
    for p in points:
        per_combo.setdefault((p.method, p.param, p.train_size), []).append(p)
        assert 0.0 <= p.auc <= 1.0
    for combo, pts in per_combo.items():
        assert sorted(q.digit for q in pts) == list(range(10))
        macro = {q.macro_auc for q in pts}
        assert len(macro) == 1
        assert next(iter(macro)) == pytest.approx(
            sum(q.auc for q in pts) / 10
        )

    csv_path = tmp_path / "learning_curve.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "method,param,train_size,digit,auc,macro_auc"
    roc_files = list(tmp_path.glob("roc_*.csv"))
    assert roc_files


def test_learning_curve_rejects_oversized_train_request(small_sets):
    train, test = small_sets
    with pytest.raises(ValueError):
        learning_curve(train, test, sizes=(10_000,), test_size=10)
    with pytest.raises(ValueError):
        learning_curve(train, test, sizes=(), test_size=10)
