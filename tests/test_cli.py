"""End-to-end command-line checks, including the exit-code contract."""

import pytest

from genlogic.cli import main


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
        ("entail", "rain | wet", "--mode", "gc", *sig, *data),  # no theta
        ("entail", "rain | wet", "--mode", "gc", *sig, *data, "--theta", "1/2"),
        ("entail", "rain; wet", "--mode", "mps", *sig),  # no dist
        ("entail", "rain | wet", "--mode", "possible", *sig),  # no dist
    ]
    for argv in cases:
        assert main(list(argv)) == 1, argv
        capsys.readouterr()


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
    capsys.readouterr()


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


@pytest.mark.parametrize("text", ["0", "1", "3/2", "-0.5", "nan", "x", "1/0", "0.8,"])
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
    rc, _, _ = run(
        capsys, "mnist", "curve", "--mnist-dir", str(mnist_dir),
        "--one", "--out", str(tmp_path),
    )
    assert rc == 1


def test_mnist_missing_dir_is_data_error(tmp_path, capsys):
    rc, _, _ = run(
        capsys, "mnist", "generate", "--mnist-dir", str(tmp_path / "void"),
        "--out", str(tmp_path / "out"),
    )
    assert rc == 2


def test_mnist_bad_sizes_flag(mnist_dir, tmp_path, capsys):
    rc, _, _ = run(
        capsys, "mnist", "curve", "--mnist-dir", str(mnist_dir),
        "--sizes", "ten,20", "--out", str(tmp_path),
    )
    assert rc == 1
