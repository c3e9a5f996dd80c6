"""The experiment script's command line."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_mnist_experiments.py"


@pytest.fixture(scope="module")
def experiments():
    spec = importlib.util.spec_from_file_location("run_mnist_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fraction_mus_run_exactly(experiments, tmp_path, monkeypatch, capsys):
    # No idx files under the working directory: the synthetic digits are used.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GENLOGIC_MNIST_DIR", raising=False)
    rc = experiments.main(["--sizes", "10", "--test", "20", "--generate-size", "50",
                           "--mus", "4/5"])
    assert rc == 0
    lines = (tmp_path / "out" / "learning_curve.csv").read_text().splitlines()
    mu_rows = [ln for ln in lines if ln.startswith("gl-mu,")]
    assert len(mu_rows) == 10
    assert all(ln.startswith("gl-mu,4/5,10,") for ln in mu_rows)


def test_mus_parse_floats_and_fractions(experiments):
    from fractions import Fraction

    assert experiments.comma_mus("0.8,4/5") == (0.8, Fraction(4, 5))
    assert isinstance(experiments.comma_mus("0.8")[0], float)


@pytest.mark.parametrize("text", ["0", "1", "3/2", "-0.5", "nan", "x", "1/0", "0.8,"])
def test_bad_mus_exit_2(experiments, text, capsys):
    with pytest.raises(SystemExit) as exc:
        experiments.main(["--mus", text])
    assert exc.value.code == 2
    assert "--mus" in capsys.readouterr().err
