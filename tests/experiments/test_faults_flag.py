"""A refused ``--faults`` spec is a usage error, not a traceback."""

import pytest

from repro.experiments.cli import Driver


def _never(scale, faults):
    raise AssertionError("a refused fault spec reached the run")


@pytest.mark.parametrize(
    "spec, key",
    [
        ("drop=nan", "drop"),
        ("drop=1.5", "drop"),
        ("dup=-0.1", "dup"),
        ("seed=x", "seed"),
        ("bogus=1", "bogus"),
    ],
)
def test_a_refused_fault_spec_exits_2_naming_its_key(spec, key, capsys):
    with pytest.raises(SystemExit) as exc:
        Driver("faults flag", _never).main(["--scale", "smoke", "--faults", spec])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "argument --faults:" in errors[0] and key in errors[0]
