"""Per-rule positive/negative coverage for the RPR0xx lint.

Each rule gets at least one snippet it must flag and one adjacent,
legitimate spelling it must NOT flag — over-reach is as much a bug as
under-reach for a CI gate.
"""

import os

import pytest

from repro.analysis.lint import (
    DEFAULT_EXCLUDES,
    Finding,
    format_findings,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import ALL_RULES

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def codes(source: str) -> set[str]:
    return {f.code for f in lint_source(source)}


# ---------------------------------------------------------------------------
# RPR001 — unseeded randomness
# ---------------------------------------------------------------------------
class TestUnseededRandomness:
    @pytest.mark.parametrize(
        "src",
        [
            "import random\nx = random.random()\n",
            "import random as rnd\nx = rnd.randint(0, 5)\n",
            "from random import shuffle\nshuffle(items)\n",
            "import numpy as np\nx = np.random.rand(3)\n",
            "import numpy as np\nnp.random.seed(42)\n",
            "from numpy import random as npr\nx = npr.normal()\n",
        ],
    )
    def test_flags_global_rng(self, src):
        assert "RPR001" in codes(src)

    @pytest.mark.parametrize(
        "src",
        [
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            "import numpy as np\nss = np.random.SeedSequence(entropy=3)\n",
            "import numpy as np\ng = np.random.Generator(np.random.PCG64(1))\n",
            "import random\nr = random.Random(123)\n",
            # an unrelated module attribute that merely ends in .random
            "x = obj.random.whatever()\n",
        ],
    )
    def test_allows_seeded_constructors(self, src):
        assert "RPR001" not in codes(src)


# ---------------------------------------------------------------------------
# RPR002 — wall-clock reads
# ---------------------------------------------------------------------------
class TestWallClock:
    @pytest.mark.parametrize(
        "src",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.perf_counter()\n",
            "import time as t\nx = t.monotonic()\n",
            "from time import time\nx = time()\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "from datetime import datetime\nnow = datetime.utcnow()\n",
        ],
    )
    def test_flags_wall_clock(self, src):
        assert "RPR002" in codes(src)

    @pytest.mark.parametrize(
        "src",
        [
            "now = kernel.now\n",
            "import time\ntime.sleep  # referencing, not a banned call\n",
            "import time\ntime.strftime('%Y')\n",
            "from datetime import timedelta\nd = timedelta(seconds=1)\n",
        ],
    )
    def test_allows_simulated_clock(self, src):
        assert "RPR002" not in codes(src)


# ---------------------------------------------------------------------------
# RPR003 — iteration-order hazards
# ---------------------------------------------------------------------------
class TestIterationOrder:
    @pytest.mark.parametrize(
        "src",
        [
            "for x in {1, 2, 3}:\n    pass\n",
            "for x in set(names):\n    pass\n",
            "for x in frozenset(names):\n    pass\n",
            "ys = [f(x) for x in set(names)]\n",
            "ys = {f(x) for x in {a, b}}\n",
        ],
    )
    def test_flags_set_iteration(self, src):
        assert "RPR003" in codes(src)

    @pytest.mark.parametrize(
        "src",
        [
            "for x in sorted(set(names)):\n    pass\n",
            "for x in sorted({1, 2}):\n    pass\n",
            "for k in mapping:\n    pass\n",  # dict order is insertion order
            "for k, v in mapping.items():\n    pass\n",
            "ok = x in set(names)\n",  # membership test, not iteration
        ],
    )
    def test_allows_sorted_and_dicts(self, src):
        assert "RPR003" not in codes(src)


# ---------------------------------------------------------------------------
# Mutation-matrix rows (docs/static-analysis.md): a one-line defect in the
# real source that tier-1, repro.check and the trace cross-check all miss.
# Each rule is kept for its row; the mutation is applied in memory.
# ---------------------------------------------------------------------------
REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def mutated(path: str, *edits: tuple[str, str]) -> str:
    """``path``'s source with each ``(old, new)`` edit applied exactly once."""
    with open(os.path.join(REPO, path), encoding="utf-8") as fh:
        source = fh.read()
    for old, new in edits:
        assert source.count(old) == 1, (path, old)
        source = source.replace(old, new)
    return source


MATRIX_ROWS = [
    pytest.param(
        "RPR001", "src/repro/ga/island.py",
        [("import numpy as np\n", "import random\n\nimport numpy as np\n"),
         ("dnode.global_read(locn, g, age_ctl.age)",
          "dnode.global_read(locn, g, age_ctl.age + random.randint(0, 1))")],
        id="R29-dynamic-age-bound-jittered-by-the-global-rng",
    ),
    pytest.param(
        "RPR002", "src/repro/ga/island.py",
        [("import numpy as np\n", "import time\n\nimport numpy as np\n"),
         ("recorder.report(deme, g, best, mean, task.vm.kernel.now)\n        return",
          "recorder.report(deme, g, best, mean, time.perf_counter())\n        return")],
        id="R05-time-to-target-on-the-host-clock",
    ),
    pytest.param(
        "RPR003", "src/repro/experiments/scale_study.py",
        [("for (topo, fabric, age) in sorted(groups):",
          "for (topo, fabric, age) in set(groups):")],
        id="R07-scale-summary-in-hash-order",
    ),
]


@pytest.mark.parametrize("code, path, edits", MATRIX_ROWS)
def test_matrix_row_is_caught_by_its_rule_alone(code, path, edits):
    assert lint_source(mutated(path), path) == []
    assert {f.code for f in lint_source(mutated(path, *edits), path)} == {code}


# ---------------------------------------------------------------------------
# Engine behaviour
# ---------------------------------------------------------------------------
class TestEngine:
    def test_every_rule_fires_on_bad_fixture(self):
        findings, errors = lint_paths([os.path.join(FIXTURES, "bad_example.py")])
        assert not errors
        fired = {f.code for f in findings}
        assert fired == {r.code for r in ALL_RULES}

    def test_clean_fixture_is_clean(self):
        findings, errors = lint_paths([os.path.join(FIXTURES, "clean_example.py")])
        assert not errors
        assert findings == []

    def test_fixture_dir_excluded_from_directory_walk(self):
        tests_root = os.path.dirname(os.path.dirname(__file__))
        walked = list(iter_python_files([tests_root]))
        assert not any(os.sep + "fixtures" + os.sep in p for p in walked)
        # ...but explicit files bypass the exclude list
        explicit = os.path.join(FIXTURES, "bad_example.py")
        assert list(iter_python_files([explicit])) == [explicit]

    def test_select_restricts_rules(self):
        src = "import time\nimport random\nrandom.random()\ntime.time()\n"
        only_clock = lint_source(src, select=["RPR002"])
        assert {f.code for f in only_clock} == {"RPR002"}

    def test_repo_src_is_lint_clean(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        findings, errors = lint_paths([os.path.join(repo_root, "src")])
        assert not errors
        assert findings == [], format_findings(findings)

    def test_findings_have_location_and_fixit(self):
        findings = lint_source("import time\nt = time.time()\n", path="mod.py")
        assert len(findings) == 1
        f = findings[0]
        assert isinstance(f, Finding)
        assert (f.path, f.line) == ("mod.py", 2)
        assert f.fixit
        assert "mod.py:2:" in f.format()
        assert f.to_dict()["code"] == "RPR002"

    def test_json_output_shape(self):
        import json

        findings = lint_source("import time\ntime.time()\n", path="m.py")
        doc = json.loads(format_findings(findings, as_json=True))
        assert doc["count"] == 1
        assert doc["findings"][0]["code"] == "RPR002"

    def test_default_excludes_is_shared_constant(self):
        assert os.path.join("tests", "analysis", "fixtures") in DEFAULT_EXCLUDES

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings, errors = lint_paths([str(bad)])
        assert findings == []
        assert len(errors) == 1 and "broken.py" in errors[0]


class TestAllowPragma:
    """`# repro-lint: allow[RPRxxx]` suppresses exactly the named rule."""

    def test_pragma_suppresses_named_rule_on_its_line(self):
        src = "import time\nt = time.time()  # repro-lint: allow[RPR002]\n"
        assert lint_source(src) == []

    def test_pragma_does_not_suppress_other_rules(self):
        src = "import time\nt = time.time()  # repro-lint: allow[RPR001]\n"
        assert [f.code for f in lint_source(src)] == ["RPR002"]

    def test_pragma_only_covers_its_own_line(self):
        src = (
            "import time\n"
            "a = time.time()  # repro-lint: allow[RPR002]\n"
            "b = time.time()\n"
        )
        hits = lint_source(src)
        assert [f.line for f in hits] == [3]

    def test_pragma_accepts_a_code_list(self):
        src = "import time\nt = time.time()  # repro-lint: allow[RPR001, RPR002]\n"
        assert lint_source(src) == []


class TestLateImportAliases:
    """Imports placed after a use site must still feed alias resolution.

    A module-level ``import random as r`` below a function that calls
    ``r.random()`` is legal at runtime (the body executes after the
    import), so a single in-order traversal that only learns aliases as
    it passes them silently misses the finding.  ``Rule.check`` runs an
    import pre-pass over the whole tree first.
    """

    @pytest.mark.parametrize(
        ("src", "code"),
        [
            ("def f():\n    return r.random()\nimport random as r\n", "RPR001"),
            (
                "def f():\n    return now()\nfrom time import time as now\n",
                "RPR002",
            ),
            (
                "def f():\n    return npr.normal()\n"
                "from numpy import random as npr\n",
                "RPR001",
            ),
            (
                "def f():\n    return tm.perf_counter()\nimport time as tm\n",
                "RPR002",
            ),
        ],
    )
    def test_flags_use_above_late_import(self, src, code):
        assert code in codes(src)

    def test_late_seeded_constructor_still_allowed(self):
        src = "def f():\n    return np.random.default_rng(1)\nimport numpy as np\n"
        assert codes(src) == set()

    def test_unimported_name_still_clean(self):
        # no import anywhere: `r` is just a local object, not the RNG
        assert codes("def f(r):\n    return r.random()\n") == set()
