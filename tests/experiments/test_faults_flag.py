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


@pytest.mark.parametrize(
    "spec, kind, node",
    [
        ("pause=7:0:1", "pause", 7),
        ("slow=4:0:1:2", "slowdown", 4),
        ("crash=4:0.5:1", "crash", 4),
    ],
)
def test_a_node_fault_on_a_missing_node_exits_2_before_any_run(spec, kind, node, capsys):
    # the default driver's machines have nodes 0..3
    with pytest.raises(SystemExit) as exc:
        Driver("faults flag", _never).main(["--scale", "smoke", "--faults", spec])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "argument --faults:" in errors[0]
    assert f"{kind} names node {node}" in errors[0]


def test_a_node_fault_on_the_last_node_reaches_the_run():
    seen = []
    driver = Driver("faults flag", lambda scale, faults: seen.append(faults), format=repr)
    assert driver.main(["--scale", "smoke", "--faults", "pause=3:0:1"]) == 0
    assert [f.node for f in seen[0].node_faults] == [3]
