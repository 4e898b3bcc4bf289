"""compare.py verdicts on hand-built result documents."""

import json

import compare
from metrics import END_TO_END

BOUND = next(m.bound for m in END_TO_END if m.name == "wall_s")


def doc(wall, events=100, share=0.3, failed=0, seed=7):
    samples = list(wall)
    summary = {
        "value": sorted(samples)[len(samples) // 2],
        "min": min(samples), "max": max(samples), "n": len(samples), "samples": samples,
    }
    return {
        "seed": seed,
        "host": {"git_head": "abc", "nproc": 2, "cpu_model": "x", "noisy_host": False},
        "workloads": {
            "w": {
                "attempted": 10,
                "failed": failed,
                "end_to_end": {"wall_s": summary},
                "per_layer": {"sim.events": events, "host.sim.share": share,
                              "par.floor_broadcasts": events},
            }
        },
    }


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02]


def words(a, b):
    lines, any_worse = compare.compare([a], [b])
    return lines[0].split()[-1], lines, any_worse


def test_same_better_worse():
    assert words(doc(STEADY), doc([x * (1 + BOUND / 2) for x in STEADY]))[0] == "same"
    assert words(doc(STEADY), doc([x * (1 - 1.5 * BOUND) for x in STEADY]))[0] == "better"
    word, _, any_worse = words(doc(STEADY), doc([x * (1 + 1.5 * BOUND) for x in STEADY]))
    assert word == "worse" and any_worse


def test_wide_spread_is_unresolved_unless_the_sides_do_not_overlap():
    noisy = [1.0, 1.6, 0.6, 1.1, 1.4]  # interquartile range wider than the bound
    assert words(doc(noisy), doc([x * (1 + 1.5 * BOUND) for x in noisy]))[0] == "unresolved"
    word, _, any_worse = words(doc(noisy), doc([x * 3 for x in noisy]))
    assert word == "worse" and any_worse
    assert words(doc(noisy), doc([x / 3 for x in noisy]))[0] == "better"


def test_counts_and_shares_are_listed():
    _, lines, any_worse = words(doc(STEADY), doc(STEADY, events=101, share=0.35))
    text = "\n".join(lines)
    assert "w sim.events DIFFERS A=100 B=101" in text
    assert "w host.sim.share MOVED" in text
    assert "par.floor_broadcasts" not in text  # timing-dependent, not exact
    assert not any_worse
    # counts legitimately differ between seeds
    _, lines, _ = words(doc(STEADY), doc(STEADY, events=101, seed=8))
    assert "DIFFERS" not in "\n".join(lines)


def test_more_failures_is_worse_and_main_exits_nonzero(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc(STEADY)))
    b.write_text(json.dumps(doc(STEADY, failed=1)))
    assert compare.main([str(a), str(b)]) == 1
    assert "w failed A=0 B=1 count worse" in capsys.readouterr().out
    assert compare.main([str(a), str(a)]) == 0


def test_a_side_may_be_a_directory_of_runs(tmp_path):
    """Sets of runs: the value is the median run, the spread is over runs."""
    side_a, side_b = tmp_path / "a", tmp_path / "b"
    side_a.mkdir()
    side_b.mkdir()
    for i, scale in enumerate((1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97)):
        (side_a / f"{i}.json").write_text(json.dumps(doc([x * scale for x in STEADY])))
        # one of B's eight runs hit a busy host; the median run did not
        slow = 1.6 if i == 0 else 1.0
        (side_b / f"{i}.json").write_text(json.dumps(doc([x * scale * slow for x in STEADY])))
    lines, any_worse = compare.compare(compare.load_side(side_a), compare.load_side(side_b))
    assert lines[0].endswith("same") and not any_worse
