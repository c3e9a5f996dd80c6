"""End-to-end command-line checks, including the exit-code contract."""

from random import Random

import pytest

from genlogic import (
    Signature,
    classical_entails,
    enumerate_worlds,
    ground,
    mcs,
    mnist,
    parse_premises,
    parse_query,
    pretty,
    read_dataset_csv,
    read_distribution,
)
from genlogic.cli import main

from helpers import random_formula, random_premises


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Signature, dataset and distribution files shared by the cli tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "rain.sig").write_text("prop rain\nprop wet\n")
    (root / "rain.csv").write_text(
        "rain,wet,count\n0,0,4\n0,1,2\n1,0,1\n1,1,3\n"
    )
    (root / "fig.dist").write_text("00 2/5\n01 1/5\n10 1/10\n11 3/10\n")
    (root / "drizzle.dist").write_text("00 9/10\n01 1/10\n")
    (root / "blames.sig").write_text("pred blames/2\nconst a\nconst b\n")
    (root / "blames.csv").write_text(
        '"blames(a,a)","blames(a,b)","blames(b,a)","blames(b,b)",count\n'
        "1,0,0,1,2\n1,1,1,0,3\n0,1,0,1,4\n"
    )
    return root


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- infer ---------------------------------------------------------------------


def test_infer_golden_exact(desk, capsys):
    rc, out, _ = run(
        capsys, "infer", "rain | wet", "--signature", str(desk / "rain.sig"),
        "--data", str(desk / "rain.csv"), "--one",
    )
    assert rc == 0 and out == "3/5\n"


def test_infer_float_output(desk, capsys):
    rc, out, _ = run(
        capsys, "infer", "rain | wet", "--signature", str(desk / "rain.sig"),
        "--data", str(desk / "rain.csv"), "--one", "--float",
    )
    assert rc == 0 and out == "0.6\n"


def test_infer_mu_regime(desk, capsys):
    rc, out, _ = run(
        capsys, "infer", "rain", "--signature", str(desk / "rain.sig"),
        "--data", str(desk / "rain.csv"), "--mu", "4/5",
    )
    assert rc == 0 and out == "11/25\n"


def test_infer_mu_one_means_strict(desk, capsys):
    rc, out, _ = run(
        capsys, "infer", "rain | wet", "--signature", str(desk / "rain.sig"),
        "--data", str(desk / "rain.csv"), "--mu", "1",
    )
    assert rc == 0 and out == "3/5\n"


def test_infer_quantified_query(desk, capsys):
    rc, out, _ = run(
        capsys, "infer",
        "blames(a,b) & blames(b,a) | ~blames(a,a); ~blames(b,b)",
        "--signature", str(desk / "blames.sig"),
        "--data", str(desk / "blames.csv"), "--limit",
    )
    assert rc == 0 and out == "3/7\n"
    rc, out, _ = run(
        capsys, "infer",
        "forall x. blames(x,a) | exists x. blames(x,a)",
        "--signature", str(desk / "blames.sig"),
        "--data", str(desk / "blames.csv"), "--one",
    )
    assert rc == 0 and out == "3/5\n"


def test_infer_undefined_is_success(desk, capsys):
    rc, out, _ = run(
        capsys, "infer",
        "blames(a,b) & blames(b,a) | ~blames(a,a); ~blames(b,b)",
        "--signature", str(desk / "blames.sig"),
        "--data", str(desk / "blames.csv"), "--one",
    )
    assert rc == 0 and out == "undefined\n"


def test_infer_distribution_source(desk, capsys):
    rc, out, _ = run(
        capsys, "infer", "rain | rain; wet; ~wet",
        "--signature", str(desk / "rain.sig"),
        "--dist", str(desk / "fig.dist"), "--limit",
    )
    assert rc == 0 and out == "1\n"


def test_infer_float_rejects_a_weight_that_rounds_to_zero(desk, tmp_path, capsys):
    tiny = tmp_path / "tiny.dist"
    tiny.write_text("11 1e-400\n00 1\n")
    argv = ("infer", "rain | rain", "--signature", str(desk / "rain.sig"), "--dist", str(tiny))
    assert run(capsys, *argv) == (0, "1\n", "")
    rc, out, err = run(capsys, *argv, "--float")
    assert rc == 2 and out == "" and err == "error: weight 1e-400 rounds to 0.0 as a float\n"


@pytest.mark.parametrize("name", ["rain.sig", "rain.csv", "fig.dist"])
def test_readers_skip_a_utf8_byte_order_mark(desk, tmp_path, capsys, name):
    """Spreadsheet "CSV UTF-8" exports start with a BOM; it is not part of a name."""
    for plain in ("rain.sig", "rain.csv", "fig.dist"):
        (tmp_path / plain).write_bytes((desk / plain).read_bytes())
    (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (desk / name).read_bytes())
    sig = Signature.read(desk / "rain.sig")
    read = {"rain.sig": Signature.read, "rain.csv": lambda path: read_dataset_csv(path, sig),
            "fig.dist": lambda path: read_distribution(path, sig)}[name]
    assert read(tmp_path / name) == read(desk / name)
    for flag, source in (("--data", "rain.csv"), ("--dist", "fig.dist")):
        plain, bom = (run(capsys, "infer", "rain | wet", "--signature", str(root / "rain.sig"),
                          flag, str(root / source), "--one") for root in (desk, tmp_path))
        assert bom == plain and plain[0] == 0


def test_infer_default_regime_is_limit(desk, capsys):
    rc_default, out_default, _ = run(
        capsys, "infer", "rain | rain; wet; ~wet",
        "--signature", str(desk / "rain.sig"), "--dist", str(desk / "fig.dist"),
    )
    assert rc_default == 0 and out_default == "1\n"


def test_infer_deterministic_output(desk, capsys):
    argv = (
        "infer", "rain | wet", "--signature", str(desk / "rain.sig"),
        "--data", str(desk / "rain.csv"), "--mu", "7/9",
    )
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second and first[0] == 0


# -- entail --------------------------------------------------------------------


def test_entail_classical(desk, capsys):
    rc, out, _ = run(
        capsys, "entail", "wet | rain; rain -> wet", "--mode", "classical",
        "--signature", str(desk / "rain.sig"),
    )
    assert rc == 0 and out == "yes\n"
    rc, out, _ = run(
        capsys, "entail", "rain | wet", "--mode", "classical",
        "--signature", str(desk / "rain.sig"),
    )
    assert rc == 0 and out == "no\n"


def test_entail_possible(desk, capsys):
    rc, out, _ = run(
        capsys, "entail", "~wet | rain", "--mode", "possible",
        "--signature", str(desk / "rain.sig"),
        "--dist", str(desk / "drizzle.dist"),
    )
    assert rc == 0 and out == "yes\n"


def test_entail_mcs_lines(desk, capsys):
    rc, out, _ = run(
        capsys, "entail", "rain; wet; rain -> wet; ~wet", "--mode", "mcs",
        "--signature", str(desk / "rain.sig"),
    )
    assert rc == 0
    assert out == "{rain, wet, rain -> wet}\n"


def test_entail_mps_lines(desk, capsys):
    rc, out, _ = run(
        capsys, "entail", "rain; wet; rain -> wet; ~wet", "--mode", "mps",
        "--signature", str(desk / "rain.sig"),
        "--dist", str(desk / "drizzle.dist"),
    )
    assert rc == 0
    assert out == "{rain -> wet, ~wet}\n{wet, rain -> wet}\n"


@pytest.mark.parametrize("n", range(1, 7))
def test_entail_mcs_and_classical_answer_as_the_world_list_does(tmp_path, capsys, n):
    # the CLI reads every assignment as packed words; the library functions
    # take the enumerated Worlds. The formulas leave some atoms unmentioned.
    rng = Random(600 + n)
    sig_path = tmp_path / "wide.sig"
    sig_path.write_text("".join(f"prop a{i}\n" for i in range(n)))
    sig = Signature.read(sig_path)
    worlds = enumerate_worlds(sig)
    for _ in range(12):
        mentioned = Signature(propositions=tuple(rng.sample(sig.propositions, rng.randint(1, n))))
        text = "; ".join(pretty(f) for f in random_premises(rng, mentioned, min_n=1))
        premises = tuple(ground(f, sig) for f in parse_premises(text, sig))
        order = list(dict.fromkeys(premises))
        want = sorted("{" + ", ".join(pretty(f) for f in order if f in subset) + "}"
                      for subset in mcs(premises, worlds).subsets)
        rc, out, err = run(capsys, "entail", text, "--mode", "mcs", "--signature", str(sig_path))
        assert (rc, out, err) == (0, "".join(line + "\n" for line in want), "")
        query = f"{pretty(random_formula(rng, mentioned))} | {text}"
        alpha, parsed = parse_query(query, sig)
        entailed = classical_entails(tuple(ground(f, sig) for f in parsed), ground(alpha, sig),
                                     worlds)
        rc, out, err = run(capsys, "entail", query, "--mode", "classical",
                           "--signature", str(sig_path))
        assert (rc, out, err) == (0, "yes\n" if entailed else "no\n", "")


def test_entail_gc(desk, capsys):
    base = (
        "entail", "rain | wet", "--mode", "gc",
        "--signature", str(desk / "rain.sig"),
        "--data", str(desk / "rain.csv"), "--one",
    )
    rc, out, _ = run(capsys, *base, "--theta", "3/5")
    assert rc == 0 and out == "yes\n"
    rc, out, _ = run(capsys, *base, "--theta", "0.9")
    assert rc == 0 and out == "no\n"
    rc, out, _ = run(
        capsys, "entail", "wet | rain & ~rain", "--mode", "gc",
        "--signature", str(desk / "rain.sig"),
        "--data", str(desk / "rain.csv"), "--one", "--theta", "0.9",
    )
    assert rc == 0 and out == "undefined\n"


# -- usage errors exit 1 ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("infer",),
        ("infer", "rain | wet"),
        ("nonsense", "rain"),
        ("entail", "rain | wet", "--mode", "sideways"),
    ],
)
def test_cli_usage_errors_from_argparse(desk, capsys, argv):
    assert main(list(argv)) == 1
    capsys.readouterr()


def test_cli_usage_errors_from_validation(desk, capsys):
    sig = ("--signature", str(desk / "rain.sig"))
    data = ("--data", str(desk / "rain.csv"))
    cases = [
        ("infer", "rain | wet", *data),  # no signature
        ("infer", "rain | wet", *sig),  # no source
        ("infer", "rain | wet", *sig, *data, "--dist", str(desk / "fig.dist")),
        ("infer", "rain | wet", *sig, *data, "--mu", "zero"),
        ("infer", "rain | wet", *sig, *data, "--mu", "0"),
        ("infer", "rain | wet", *sig, *data, "--mu", "3/2"),
        # inside (0,1) exactly, but 1.0 and 0.0 as floats
        ("infer", "wet | rain", *sig, *data, "--mu", "0.99999999999999999", "--float"),
        ("infer", "wet | rain", *sig, *data, "--mu", "1e-400", "--float"),
        ("entail", "rain | wet", "--mode", "gc", *sig, *data),  # no theta
        ("entail", "rain | wet", "--mode", "gc", *sig, *data, "--theta", "1/2"),
        ("entail", "rain; wet", "--mode", "mps", *sig),  # no dist
        ("entail", "rain | wet", "--mode", "possible", *sig),  # no dist
    ]
    for argv in cases:
        assert main(list(argv)) == 1, argv
        capsys.readouterr()


_UNREAD = {"classical": ("--data", "--dist", "--theta", "--one", "--limit", "--mu",
                         "--exact", "--float"),
           "possible": ("--data", "--theta", "--one", "--limit", "--mu")}
_UNREAD["mcs"], _UNREAD["mps"] = _UNREAD["classical"], _UNREAD["possible"]


@pytest.mark.parametrize("mode, flag", [(m, f) for m, flags in _UNREAD.items() for f in flags])
def test_entail_refuses_flags_its_mode_does_not_read(desk, capsys, mode, flag):
    """classical and mcs read no source, threshold, regime or number flag;
    possible and mps read --dist only of the first six. Such a flag is
    refused, not silently ignored."""
    value = {"--data": str(desk / "rain.csv"), "--dist": str(desk / "fig.dist"),
             "--theta": "0.6", "--mu": "0.3"}
    query = "rain; ~rain" if mode in ("mcs", "mps") else "wet | rain"
    needed = ("--dist", value["--dist"]) if mode in ("possible", "mps") else ()
    given = (flag, value[flag]) if flag in value else (flag,)
    rc, out, err = run(capsys, "entail", query, "--mode", mode,
                       "--signature", str(desk / "rain.sig"), *needed, *given)
    assert (rc, out, err) == (1, "", f"error: --mode {mode} does not take {flag}\n")
    # the same call without the flag answers
    rc, out, err = run(capsys, "entail", query, "--mode", mode,
                       "--signature", str(desk / "rain.sig"), *needed)
    assert rc == 0 and out and err == ""


@pytest.mark.parametrize("mode", ["possible", "mps", "gc"])
def test_entail_modes_that_read_a_distribution_take_number_flags(desk, capsys, mode):
    # where the mode reads a --dist, --exact is its default and --float is taken
    query = "rain; ~rain" if mode == "mps" else "wet | rain"
    argv = ("entail", query, "--mode", mode, "--signature", str(desk / "rain.sig"),
            "--dist", str(desk / "fig.dist"), *(("--theta", "0.6") if mode == "gc" else ()))
    plain = run(capsys, *argv)
    assert plain[0] == 0 and plain[1]
    assert run(capsys, *argv, "--exact") == run(capsys, *argv, "--float") == plain


def test_entail_gc_is_exact_unless_float(desk, capsys):
    # p(rain | wet) is 3/5 exactly, and 0.3 / 0.5 in floats falls below 3/5
    argv = ("entail", "rain | wet", "--mode", "gc", "--theta", "3/5", "--one",
            "--signature", str(desk / "rain.sig"), "--dist", str(desk / "fig.dist"))
    assert [run(capsys, *argv, *flag) for flag in ((), ("--exact",), ("--float",))] == [
        (0, "yes\n", ""), (0, "yes\n", ""), (0, "no\n", "")]


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# -- data errors exit 2 ------------------------------------------------------------


def test_cli_data_errors(desk, tmp_path, capsys):
    sig = ("--signature", str(desk / "rain.sig"))
    missing = str(tmp_path / "nope.csv")
    assert main(["infer", "rain | wet", *sig, "--data", missing]) == 2
    capsys.readouterr()

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("rain,fog\n1,0\n")
    assert main(["infer", "rain | wet", *sig, "--data", str(bad_csv)]) == 2
    capsys.readouterr()

    bad_dist = tmp_path / "bad.dist"
    bad_dist.write_text("00 0.4\n11 0.7\n")
    assert main(["infer", "rain | wet", *sig, "--dist", str(bad_dist)]) == 2
    capsys.readouterr()

    assert main(["infer", "rain | wet", "--signature",
                 str(tmp_path / "ghost.sig"), "--data", str(desk / "rain.csv")]) == 2
    capsys.readouterr()


def test_cli_parse_error_is_data_error(desk, capsys):
    sig = ("--signature", str(desk / "rain.sig"))
    rc = main(["infer", "rain | fog", *sig, "--data", str(desk / "rain.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown identifier 'fog' (at position 7)\n"


@pytest.mark.parametrize("query", [
    " -> ".join(["rain"] * 1000), "~" * 3000 + "rain", "(" * 3000 + "rain" + ")" * 3000,
], ids=["arrows", "negations", "parentheses"])
def test_cli_deep_formula_is_data_error(desk, capsys, query):
    rc, out, err = run(
        capsys, "infer", query, "--signature", str(desk / "rain.sig"),
        "--data", str(desk / "rain.csv"),
    )
    assert (rc, out, err) == (2, "", "error: formula nested too deeply\n")


def test_cli_wide_quantifier_answers(tmp_path, capsys):
    """A quantifier over 600 constants grounds to a 600-deep conjunction;
    scoring it must not recurse past Python's limit."""
    names = [f"c{i}" for i in range(600)]
    sig = tmp_path / "wide.sig"
    sig.write_text("prop r\npred p/1\n" + "".join(f"const {c}\n" for c in names))
    atoms = ["r", *(f"p({c})" for c in names)]
    data = tmp_path / "wide.csv"
    data.write_text(",".join(atoms) + "\n" + ",".join(["1"] * len(atoms)) + "\n"
                    + ",".join(["0"] * len(atoms)) + "\n")
    rc, out, err = run(capsys, "infer", "r | forall x. p(x)", "--signature", str(sig),
                       "--data", str(data))
    assert (rc, out, err) == (0, "1\n", "")


def test_cli_distribution_past_the_enumeration_cap(tmp_path, capsys):
    """A --dist file stores only its listed worlds, so infer and entail
    possible|mps|gc answer on 40 atoms; mcs still enumerates and refuses."""
    sig = tmp_path / "wide.sig"
    sig.write_text("".join(f"prop a{j}\n" for j in range(40)))
    dist = tmp_path / "wide.dist"
    dist.write_text("11" + "0" * 38 + " 3/4\n" + "0" * 40 + " 1/4\n")
    files = ("--signature", str(sig), "--dist", str(dist))
    cases = [
        (("infer", "a1 | a0; ~a0"), "3/4\n"),
        (("infer", "a1 | a0; ~a0", "--float"), "0.75\n"),
        (("entail", "a1 | a0", "--mode", "possible"), "yes\n"),
        (("entail", "a0; ~a0; a1", "--mode", "mps"), "{a0, a1}\n"),
        (("entail", "a1 | a0; ~a0", "--mode", "gc", "--theta", "3/5"), "yes\n"),
    ]
    for argv, want in cases:
        assert run(capsys, *argv, *files) == (0, want, ""), argv
    rc, out, err = run(capsys, "entail", "a0; ~a0", "--mode", "mcs", "--signature", str(sig))
    assert (rc, out, err) == (2, "", "error: 40 atoms exceeds the enumeration cap of 20\n")


# -- mnist subcommands ---------------------------------------------------------------


def test_mnist_generate(mnist_dir, tmp_path, capsys):
    out = tmp_path / "gen"
    rc, stdout, _ = run(
        capsys, "mnist", "generate", "--mnist-dir", str(mnist_dir),
        "--train", "500", "--out", str(out),
    )
    assert rc == 0
    pgms = sorted(out.glob("digit-*.pgm"))
    assert len(pgms) == 10
    assert stdout.count("wrote") == 10
    for path in pgms:
        assert path.read_bytes().startswith(b"P5\n28 28\n255\n")


def test_mnist_generate_builds_no_dataset(mnist_dir, tmp_path, monkeypatch, capsys):
    # class images and predictions come straight from the binarized images,
    # not from worlds
    def refuse(*_):
        raise AssertionError("built a dataset")

    monkeypatch.setattr(mnist, "image_dataset", refuse)
    monkeypatch.setattr(mnist, "posterior_data", refuse)
    rc, stdout, _ = run(
        capsys, "mnist", "generate", "--mnist-dir", str(mnist_dir),
        "--train", "500", "--out", str(tmp_path),
    )
    assert rc == 0 and stdout.count("wrote") == 10
    assert len(list(tmp_path.glob("digit-*.pgm"))) == 10
    for flags in ((), ("--one",), ("--exact", "--mu", "4/5"), ("--mu", "0.8")):
        rc, stdout, _ = run(
            capsys, "mnist", "predict", "--mnist-dir", str(mnist_dir),
            "--train", "500", "--out", str(tmp_path), *flags,
        )
        assert rc == 0 and (stdout == "undefined\n" or len(stdout.splitlines()) == 10)


def test_mnist_predict(mnist_dir, tmp_path, capsys):
    rc, out, _ = run(
        capsys, "mnist", "predict", "--mnist-dir", str(mnist_dir),
        "--train", "300", "--index", "0", "--out", str(tmp_path),
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert [ln.split()[0] for ln in lines] == [f"d{i}" for i in range(10)]
    total = sum(float(ln.split()[1]) for ln in lines)
    assert total == pytest.approx(1.0)


def test_mnist_predict_absent_labels_print_float_zeros(mnist_dir, tmp_path, capsys):
    # the first five synthetic training images are labelled 0..4
    rc, out, _ = run(
        capsys, "mnist", "predict", "--mnist-dir", str(mnist_dir),
        "--train", "5", "--out", str(tmp_path),
    )
    lines = out.splitlines()
    assert rc == 0 and len(lines) == 10
    assert all("." in ln.split()[1] for ln in lines)
    assert lines[5:] == [f"d{d} 0.0" for d in range(5, 10)]


def test_mnist_predict_exact_strict(mnist_dir, tmp_path, capsys):
    rc, out, _ = run(
        capsys, "mnist", "predict", "--mnist-dir", str(mnist_dir),
        "--train", "300", "--index", "0", "--one", "--exact",
        "--out", str(tmp_path),
    )
    assert rc == 0
    assert out == "undefined\n" or out.startswith("d0 ")


def test_mnist_predict_bad_index(mnist_dir, tmp_path, capsys):
    rc, _, _ = run(
        capsys, "mnist", "predict", "--mnist-dir", str(mnist_dir),
        "--index", "-1", "--out", str(tmp_path),
    )
    assert rc == 1
    rc, _, err = run(
        capsys, "mnist", "predict", "--mnist-dir", str(mnist_dir),
        "--index", "100000", "--out", str(tmp_path),
    )
    assert rc == 1 and err.startswith("error: --index must lie in 0..")


def test_mnist_curve(mnist_dir, tmp_path, capsys):
    out = tmp_path / "curve"
    rc, stdout, _ = run(
        capsys, "mnist", "curve", "--mnist-dir", str(mnist_dir),
        "--sizes", "50,100", "--test", "40", "--k", "1",
        "--out", str(out),
    )
    assert rc == 0
    csv_path = out / "learning_curve.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "method,param,train_size,digit,auc,macro_auc"
    # 3 methods x 2 sizes x 10 digits
    assert len(lines) == 1 + 3 * 2 * 10


def test_mnist_curve_exact(mnist_dir, tmp_path, capsys):
    out = tmp_path / "curve"
    rc, _, _ = run(
        capsys, "mnist", "curve", "--mnist-dir", str(mnist_dir), "--exact",
        "--sizes", "10", "--test", "20", "--out", str(out),
    )
    assert rc == 0
    lines = (out / "learning_curve.csv").read_text().splitlines()
    mu_rows = [ln for ln in lines if ln.startswith("gl-mu,")]
    assert len(mu_rows) == 10
    assert all(ln.startswith("gl-mu,4/5,10,") for ln in mu_rows)
    assert sorted(p.name for p in out.glob("roc_gl-mu*")) == [
        f"roc_gl-mu4_5_{d}.csv" for d in range(10)]


def _curve_files(capsys, mnist_dir, out, *flags):
    """Run a small curve; its output files by name."""
    rc, stdout, _ = run(
        capsys, "mnist", "curve", "--mnist-dir", str(mnist_dir),
        "--sizes", "10", "--test", "20", *flags, "--out", str(out),
    )
    assert rc == 0 and stdout == f"wrote {out / 'learning_curve.csv'}\n"
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_mnist_curve_overwrites_files_in_place(mnist_dir, tmp_path, capsys):
    longer = _curve_files(capsys, mnist_dir, tmp_path / "reused", "--sizes", "10,20",
                          "--test", "60")
    shorter = _curve_files(capsys, mnist_dir, tmp_path / "reused")
    fresh = _curve_files(capsys, mnist_dir, tmp_path / "fresh")
    assert shorter == fresh
    # files rewritten shorter were cut to their new length
    shrunk = {name for name in fresh if len(longer[name]) > len(fresh[name])}
    assert "learning_curve.csv" in shrunk and len(shrunk) > len(fresh) // 2


def test_mnist_curve_names_the_digits_a_short_test_prefix_misses(mnist_dir, tmp_path,
                                                                  capsys):
    # The synthetic test labels run 0, 1, 2, ...: five images miss 5..9.
    rc, out, err = run(
        capsys, "mnist", "curve", "--mnist-dir", str(mnist_dir),
        "--sizes", "10", "--test", "5", "--out", str(tmp_path),
    )
    assert (rc, out) == (2, "")
    assert err == ("error: no digit 5, 6, 7, 8, 9 among the first 5 test images; "
                   "each digit's ROC needs both classes\n")


@pytest.mark.parametrize("flags, mus", [
    (("--exact", "--mu", "3/10,4/5"), ("3/10", "4/5")),
    (("--float", "--mu", "0.3,0.8"), ("0.3", "0.8")),
], ids=["exact", "float"])
def test_mnist_curve_mu_list(mnist_dir, tmp_path, capsys, flags, mus):
    files = _curve_files(capsys, mnist_dir, tmp_path, *flags)
    rows = files["learning_curve.csv"].decode().splitlines()
    assert [ln.split(",")[1] for ln in rows if ln.startswith("gl-mu,")] == [
        mu for mu in mus for _ in range(10)]
    assert sorted(n for n in files if n.startswith("roc_gl-mu")) == sorted(
        f"roc_gl-mu{mu.replace('/', '_')}_{d}.csv" for mu in mus for d in range(10))


@pytest.mark.parametrize("repeated, once", [
    (("--k", "1,1"), ("--k", "1")),
    (("--exact", "--mu", "0.8,4/5"), ("--exact", "--mu", "4/5")),
], ids=["k", "mu"])
def test_mnist_curve_repeated_values_count_once(mnist_dir, tmp_path, capsys,
                                                repeated, once):
    assert (_curve_files(capsys, mnist_dir, tmp_path / "a", *repeated)
            == _curve_files(capsys, mnist_dir, tmp_path / "b", *once))


@pytest.mark.parametrize("text", ["0", "1", "3/2", "-0.5", "nan", "x", "1/0", "0.8,",
                                  "0.99999999999999999", "1e-400"])
def test_mnist_curve_bad_mu_exits_1(mnist_dir, tmp_path, capsys, text):
    rc, _, err = run(
        capsys, "mnist", "curve", "--mnist-dir", str(mnist_dir),
        "--mu", text, "--out", str(tmp_path),
    )
    assert rc == 1 and "--mu" in err


def test_mu_list_only_on_curve(desk, mnist_dir, tmp_path, capsys):
    rc, _, err = run(
        capsys, "infer", "rain", "--signature", str(desk / "rain.sig"),
        "--data", str(desk / "rain.csv"), "--mu", "0.8,0.9",
    )
    assert rc == 1 and err == "error: --mu expects a number, got '0.8,0.9'\n"
    rc, _, err = run(
        capsys, "mnist", "predict", "--mnist-dir", str(mnist_dir),
        "--train", "300", "--mu", "0.8,0.9", "--out", str(tmp_path),
    )
    assert rc == 1 and err == "error: --mu expects a number, got '0.8,0.9'\n"


def test_mnist_curve_rejects_strict_regime(mnist_dir, tmp_path, capsys):
    rc, _, err = run(
        capsys, "mnist", "curve", "--mnist-dir", str(mnist_dir),
        "--one", "--out", str(tmp_path),
    )
    assert rc == 1 and err == "error: the curve needs --limit or --mu, not --one\n"


def test_mnist_missing_dir_is_data_error(tmp_path, capsys):
    rc, _, _ = run(
        capsys, "mnist", "generate", "--mnist-dir", str(tmp_path / "void"),
        "--out", str(tmp_path / "out"),
    )
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("curve", "--mu", "x"), ("curve", "--sizes", "ten"), ("curve", "--k", "x"),
    ("predict", "--mu", "3/2"), ("predict", "--train", "0"), ("generate", "--train", "-5"),
    ("curve", "--test", "0"), ("predict", "--index", "-1"), ("generate", "--threshold", "0"),
    ("predict", "--threshold", "256"), ("curve", "--threshold", "300"),
    ("curve", "--mu", "0.5,1"), ("curve", "--sizes", "0"), ("curve", "--k", "0"),
    ("curve", "--sizes", "5", "--k", "6"),
], ids=["curve-mu", "curve-sizes", "curve-k", "predict-mu", "predict-train",
        "generate-train", "curve-test", "predict-index", "generate-threshold",
        "predict-threshold", "curve-threshold", "curve-mu-one", "curve-sizes-zero",
        "curve-k-zero", "curve-k-past-sizes"])
def test_mnist_bad_flag_fails_before_loading(tmp_path, monkeypatch, capsys, argv):
    # with no idx files in reach, a load would write synthetic digits under ./data
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GENLOGIC_MNIST_DIR", raising=False)
    rc, _, err = run(capsys, "mnist", *argv)
    assert rc == 1
    assert "note:" not in err
    assert not (tmp_path / "data").exists()
    if argv[1] in ("--train", "--test"):
        assert err == f"error: {argv[1]} must be a positive integer\n"
    if argv[1] == "--threshold":
        assert err == "error: --threshold must lie in 1..255\n"
    if argv[1] == "--index":
        assert err == "error: --index must be a non-negative integer\n"
    expected = {
        ("--mu", "0.5,1"): "error: --mu values for the curve must lie in (0,1)\n",
        ("--sizes", "0"): "error: --sizes must be positive integers\n",
        ("--k", "0"): "error: every --k must lie in 1..100\n",
        ("--sizes", "5"): "error: every --k must lie in 1..5\n",
    }.get(argv[1:3])
    if expected is not None:
        assert err == expected


def test_mnist_bad_sizes_flag(mnist_dir, tmp_path, capsys):
    rc, _, _ = run(
        capsys, "mnist", "curve", "--mnist-dir", str(mnist_dir),
        "--sizes", "ten,20", "--out", str(tmp_path),
    )
    assert rc == 1
