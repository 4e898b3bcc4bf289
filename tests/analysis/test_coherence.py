"""The static coherence analyzer: AST pass, classifier, cross-check.

Covers the pipeline layer by layer on synthetic modules (scan →
classify → cross-validate → driver) and then pins the repo-wide
invariant the CI gate relies on: every DSM location in ``src/repro``
classifies under a declared contract, with zero findings.
"""

import json
import os

import pytest

from repro.analysis.coherence import (
    COHERENCE_SCHEMA,
    DynamicEvidence,
    classify_scan,
    cross_validate,
    evidence_from_trace,
    run_coherence,
    scan_source,
)
from repro.analysis.coherence.astpass import ScanResult, scan_paths
from repro.util.envelope import envelope_digest

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SRC = os.path.join(REPO_ROOT, "src", "repro")


def scan_of(source: str) -> ScanResult:
    mod = scan_source(source, path="synthetic.py")
    return ScanResult(modules=[mod])


def classify(source: str):
    return classify_scan(scan_of(source))


# ---------------------------------------------------------------------------
# AST pass: site discovery and resolution
# ---------------------------------------------------------------------------
class TestAstPass:
    def test_fstring_pattern_and_const_age(self):
        src = (
            "def proc(node, task, dsm):\n"
            "    dnode = dsm.node(0)\n"
            "    for p in range(4):\n"
            "        locn = f'm.{p}'\n"
            "        v = dnode.global_read(locn, 3, 0)\n"
            "        dnode.write(f'm.{p}', v, 3, 8)\n"
        )
        sites = scan_of(src).sites
        kinds = {(s.kind, s.pattern) for s in sites}
        assert ("global_read", "m.*") in kinds
        assert ("write", "m.*") in kinds
        read = next(s for s in sites if s.kind == "global_read")
        assert read.age is not None
        assert (read.age.kind, read.age.value) == ("const", 0)

    def test_age_from_config_dataclass_default(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Cfg:\n"
            "    age: int = 7\n"
            "    def __post_init__(self):\n"
            "        if self.age < 0:\n"
            "            raise ValueError('age')\n"
            "def run(cfg: Cfg, dnode):\n"
            "    return dnode.global_read('x', 1, cfg.age)\n"
        )
        (read,) = [s for s in scan_of(src).sites if s.kind == "global_read"]
        assert read.age.kind == "symbolic"
        assert read.age.value == 7

    def test_unresolvable_age_is_unknown(self):
        src = "def run(dnode, b):\n    return dnode.global_read('x', 1, b())\n"
        (read,) = [s for s in scan_of(src).sites if s.kind == "global_read"]
        assert read.age.kind == "unknown"

    def test_barrier_in_scope_flag(self):
        src = (
            "def proc(node, task, dsm):\n"
            "    dnode = dsm.node(0)\n"
            "    task.barrier('g')\n"
            "    return dnode.global_read('x', 1, 0)\n"
        )
        (read,) = [s for s in scan_of(src).sites if s.kind == "global_read"]
        assert read.barrier_in_scope

    def test_register_and_contract_discovery(self):
        src = (
            "from repro.core import dsm_contract\n"
            "dsm_contract('m.*', writers=1, age=5, tolerance='phase_concurrent',\n"
            "             reason='test')\n"
            "from repro.core.dsm import SharedLocationSpec\n"
            "def build(dsm):\n"
            "    for d in range(2):\n"
            "        dsm.register(SharedLocationSpec(f'm.{d}', 0))\n"
        )
        scan = scan_of(src)
        assert [s.pattern for s in scan.sites if s.kind == "register"] == ["m.*"]
        (c,) = scan.contracts
        assert (c.pattern, c.writers, c.age, c.tolerance) == (
            "m.*", 1, 5, "phase_concurrent",
        )

    def test_write_requires_known_node_receiver(self):
        # file handles also have .write; only DSM node vars count
        src = (
            "def save(path, dsm):\n"
            "    dnode = dsm.node(0)\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write('hello')\n"
            "    dnode.write('x', 1, 0, 8)\n"
        )
        writes = [s for s in scan_of(src).sites if s.kind == "write"]
        assert [s.pattern for s in writes] == ["x"]

    def test_scan_paths_reports_syntax_errors(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        scan = scan_paths([str(bad)])
        assert scan.modules == []
        assert len(scan.errors) == 1 and "broken.py" in scan.errors[0]


# ---------------------------------------------------------------------------
# Classifier: tolerance lattice and contract checks
# ---------------------------------------------------------------------------
class TestClassify:
    def test_phase_concurrent_needs_barrier(self):
        with_barrier = (
            "def proc(node, task, dsm):\n"
            "    dnode = dsm.node(0)\n"
            "    dnode.write('x', 1, 0, 8)\n"
            "    task.barrier('g')\n"
            "    return dnode.global_read('x', 1, 0)\n"
        )
        without = with_barrier.replace("    task.barrier('g')\n", "")
        (v,), _ = classify(with_barrier)
        assert (v.inferred_class, v.verdict) == ("phase_concurrent", "strict")
        (v,), _ = classify(without)
        assert v.inferred_class == "single_writer"

    def test_stale_reads_with_clean_reducer_are_commutative(self):
        src = (
            "def proc(node, task, dsm):\n"
            "    dnode = dsm.node(0)\n"
            "    dnode.write('x', 1, 0, 8)\n"
            "    return dnode.read_local('x')\n"
        )
        (v,), findings = classify(src)
        assert (v.inferred_class, v.verdict) == ("commutative", "tolerated")
        # no contract declared -> RPR101
        assert [f.code for f in findings] == ["RPR101"]

    def test_rpr102_age_exceeds_contract(self):
        src = (
            "from repro.core import dsm_contract\n"
            "dsm_contract('x', age=5, tolerance='phase_concurrent')\n"
            "def proc(node, task, dsm):\n"
            "    dnode = dsm.node(0)\n"
            "    dnode.write('x', 1, 0, 8)\n"
            "    task.barrier('g')\n"
            "    return dnode.global_read('x', 1, 9)\n"
        )
        _, findings = classify(src)
        assert "RPR102" in {f.code for f in findings}

    def test_rpr103_read_local_under_bounded_contract(self):
        src = (
            "from repro.core import dsm_contract\n"
            "dsm_contract('x', age=5, tolerance='commutative')\n"
            "def proc(node, task, dsm):\n"
            "    dnode = dsm.node(0)\n"
            "    dnode.write('x', 1, 0, 8)\n"
            "    return dnode.read_local('x')\n"
        )
        _, findings = classify(src)
        assert "RPR103" in {f.code for f in findings}

    def test_rpr104_inferred_weaker_than_declared(self):
        src = (
            "from repro.core import dsm_contract\n"
            "dsm_contract('x', age=None, tolerance='read_only')\n"
            "def proc(node, task, dsm):\n"
            "    dnode = dsm.node(0)\n"
            "    dnode.write('x', 1, 0, 8)\n"
            "    return dnode.read_local('x')\n"
        )
        _, findings = classify(src)
        assert "RPR104" in {f.code for f in findings}

    def test_unresolved_pattern_is_per_site_rpr101(self):
        src = (
            "def proc(node, task, dsm, name):\n"
            "    dnode = dsm.node(0)\n"
            "    return dnode.global_read(name, 1, 0)\n"
        )
        verdicts, findings = classify(src)
        assert verdicts == []
        assert [f.code for f in findings] == ["RPR101"]
        assert findings[0].pattern == "<unresolved>"


# ---------------------------------------------------------------------------
# Mutation-matrix rows (docs/static-analysis.md): a one-line edit of the
# real source that tier-1 and repro.check miss, applied in memory.  Each
# rule is kept for the row only it catches.
# ---------------------------------------------------------------------------
GA = os.path.join(SRC, "ga", "island.py")
BAYES = os.path.join(SRC, "bayes", "parallel.py")


def mutated_codes(path: str, old: str, new: str) -> set[str]:
    """Finding codes of ``path`` alone, before and after one edit."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    assert source.count(old) == 1, old
    before = classify_scan(ScanResult(modules=[scan_source(source, path)]))[1]
    assert before == []
    after = scan_source(source.replace(old, new), path)
    return {f.code for f in classify_scan(ScanResult(modules=[after]))[1]}


@pytest.mark.parametrize(
    "code, path, old, new",
    [
        pytest.param("RPR101", GA, '"migrants.*",\n    writers', '"migrant.*",\n    writers',
                     id="R15-contract-pattern-typo"),
        pytest.param("RPR102", BAYES, '"iface.*",\n    writers=1,\n    age=None,',
                     '"iface.*",\n    writers=1,\n    age=8,',
                     id="R19-contract-age-below-the-default-bound"),
        pytest.param("RPR103", GA, '"migrants.*",\n    writers=1,\n    age=None,',
                     '"migrants.*",\n    writers=1,\n    age=10,',
                     id="R22-finite-age-over-read_local"),
        pytest.param("RPR104", BAYES, 'age=0,\n    tolerance="phase_concurrent"',
                     'age=0,\n    tolerance="single_writer"',
                     id="R25-class-stronger-than-the-barrier-phases"),
    ],
)
def test_matrix_row_is_caught_by_its_rule_alone(code, path, old, new):
    assert mutated_codes(path, old, new) == {code}


def test_matrix_row_r27_misreported_staleness_is_caught_by_the_cross_check(tmp_path):
    """R27: ``gr.unblock`` records one more than the returned staleness.
    Every read still honours its bound, so no digest or test moves; only
    the cross-check, reading the trace the reports are built from, sees
    strict ``ifr.*`` reads come back stale."""
    from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
    from repro.cluster.machine import MachineConfig
    from repro.core.coherence import CoherenceMode
    from repro.experiments.table2 import build_network, pick_query

    net = build_network("Hailfinder")
    holder: dict = {}
    run_parallel_logic_sampling(
        ParallelLsConfig(
            net=net, query=pick_query(net), n_procs=2, mode=CoherenceMode.SYNCHRONOUS,
            max_iterations=50, machine=MachineConfig(n_nodes=2, trace=True),
        ),
        instrument=lambda dsm: holder.setdefault("dsm", dsm),
    )
    trace = tmp_path / "t.jsonl"
    holder["dsm"].vm.kernel.obs.write_jsonl(str(trace))
    assert run_coherence([SRC], traces=[str(trace)]).findings == []
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    for r in records:
        if r["kind"] == "gr.unblock":
            r["staleness"] += 1
    trace.write_text("".join(json.dumps(r) + "\n" for r in records))
    findings = run_coherence([SRC], traces=[str(trace)]).findings
    assert findings and {f.code for f in findings} == {"RPR105"}


# ---------------------------------------------------------------------------
# Cross-validation against dynamic evidence
# ---------------------------------------------------------------------------
class TestCrossval:
    @staticmethod
    def _static_tolerated():
        src = (
            "from repro.core import dsm_contract\n"
            "dsm_contract('m.*', age=5, tolerance='phase_concurrent')\n"
            "def proc(node, task, dsm):\n"
            "    dnode = dsm.node(0)\n"
            "    dnode.write('m.0', 1, 0, 8)\n"
            "    return dnode.global_read('m.0', 1, 3)\n"
        )
        verdicts, _ = classify(src)
        return verdicts

    def test_dynamic_unbounded_contradicts_static_tolerated(self):
        verdicts = self._static_tolerated()
        assert verdicts[0].verdict == "tolerated"
        ev = {"m.0": DynamicEvidence(locn="m.0", unbounded=3, reads=3)}
        findings = cross_validate(verdicts, ev)
        assert [f.code for f in findings] == ["RPR105"]
        assert "observed 'unbounded'" in findings[0].message

    def test_consistent_evidence_is_clean(self):
        verdicts = self._static_tolerated()
        ev = {
            "m.0": DynamicEvidence(
                locn="m.0", tolerated=5, reads=5, max_staleness=3
            )
        }
        assert cross_validate(verdicts, ev) == []

    def test_strict_observation_of_tolerated_location_is_clean(self):
        # the converse direction: conservative static verdicts survive
        verdicts = self._static_tolerated()
        ev = {"m.0": DynamicEvidence(locn="m.0", synchronized=5, reads=5)}
        assert cross_validate(verdicts, ev) == []

    def test_staleness_beyond_contract_age_fires(self):
        verdicts = self._static_tolerated()
        ev = {
            "m.0": DynamicEvidence(
                locn="m.0", tolerated=2, reads=2, max_staleness=9
            )
        }
        findings = cross_validate(verdicts, ev)
        assert [f.code for f in findings] == ["RPR105"]
        assert "exceeds the contract's declared age 5" in findings[0].message

    def test_dynamic_only_location_is_a_coverage_hole(self):
        findings = cross_validate(
            [], {"ghost": DynamicEvidence(locn="ghost", reads=4)}
        )
        assert [f.code for f in findings] == ["RPR105"]
        assert "never discovered statically" in findings[0].message

    def test_evidence_from_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        lines = [
            {"t": 0.1, "kind": "gr.hit", "node": 0, "locn": "m.0",
             "curr_iter": 3, "age": 5, "staleness": 0},
            {"t": 0.2, "kind": "gr.hit", "node": 0, "locn": "m.0",
             "curr_iter": 4, "age": 5, "staleness": 2},
            {"t": 0.3, "kind": "gr.unblock", "node": 1, "locn": "m.0",
             "curr_iter": 5, "age": 5, "staleness": 7, "waited": 0.01},
            {"t": 0.4, "kind": "dsm.write", "node": 1, "locn": "m.0", "iter": 5},
            {"kind": "trace.meta", "events": 4, "events_dropped": 0},
        ]
        trace.write_text("".join(json.dumps(x) + "\n" for x in lines))
        ev = evidence_from_trace(str(trace))
        m = ev["m.0"]
        assert (m.reads, m.synchronized, m.tolerated, m.unbounded) == (3, 1, 1, 1)
        assert m.max_staleness == 7
        assert m.exposure == "unbounded"

    def test_malformed_trace_raises(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": 1}\nnot json\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            evidence_from_trace(str(bad))

    def test_gr_event_missing_its_fields_raises(self, tmp_path):
        # the trace schema, not a silent default, decides what a gr.hit is
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"t": 0.1, "kind": "gr.hit", "node": 0, "locn": "m.0"}\n'
            '{"kind": "trace.meta", "events": 1, "events_dropped": 0}\n'
        )
        with pytest.raises(ValueError, match="gr.hit missing field 'staleness'"):
            evidence_from_trace(str(bad))

    def test_gzip_stream_capture_equals_plain_capture(self, tmp_path):
        """A gzip capture (file or a directory holding it) yields the same
        evidence as the plain-JSONL capture of the same run."""
        from repro.experiments.scale_study import run_traced_stream, scenario
        from repro.ga.island import run_island_ga

        gz = tmp_path / "gz" / "s.jsonl.gz"
        gz.parent.mkdir()
        run_traced_stream(16, str(gz))
        holder: dict = {}
        cfg = scenario(16, "ring", "hierarchical", age=5, n_generations=10,
                       trace=True)
        run_island_ga(cfg, instrument=lambda dsm: holder.setdefault("dsm", dsm))
        plain = tmp_path / "s.jsonl"
        holder["dsm"].vm.kernel.obs.write_jsonl(str(plain))

        def shape(traces):
            rep = run_coherence([SRC], traces=traces)
            assert rep.errors == [] and rep.findings == []
            return {
                locn: {k: v for k, v in ev.to_dict().items() if k != "sources"}
                for locn, ev in rep.evidence.items()
            }

        expected = shape([str(plain)])
        assert len(expected) == 16
        assert shape([str(gz)]) == expected
        assert shape([str(gz.parent)]) == expected

    def test_rotated_gzip_parts_count_once(self, tmp_path, monkeypatch):
        """A directory of rotated parts is one trace, read from its base."""
        import repro.experiments.scale_study as scale_study
        import repro.obs.bus as bus
        from repro.experiments.scale_study import run_traced_stream

        monkeypatch.setattr(bus, "ROTATE_BYTES", 1024)
        monkeypatch.setattr(scale_study, "STREAM_FLUSH_EVERY", 64)
        base = tmp_path / "s.jsonl.gz"
        record = run_traced_stream(128, str(base))
        assert record["parts"] > 1
        rep = run_coherence([SRC], traces=[str(tmp_path)])
        assert rep.errors == [] and rep.findings == []
        assert rep.evidence == run_coherence([SRC], traces=[str(base)]).evidence


# ---------------------------------------------------------------------------
# Driver: baseline workflow, envelope, exit codes
# ---------------------------------------------------------------------------
class TestDriver:
    SRC_WITH_FINDING = (
        "def proc(node, task, dsm):\n"
        "    dnode = dsm.node(0)\n"
        "    dnode.write('x', 1, 0, 8)\n"
        "    return dnode.read_local('x')\n"
    )

    def test_contract_with_reason_is_the_exception(self, tmp_path):
        # there is no suppression file: a reviewed exception is a
        # contract next to the code, and the analyzer still checks it
        mod = tmp_path / "w.py"
        mod.write_text(self.SRC_WITH_FINDING)
        assert run_coherence([str(mod)]).exit_code == 1
        mod.write_text(
            "from repro.core import dsm_contract\n"
            "dsm_contract('x', age=None, tolerance='commutative',\n"
            "             reason='reviewed: stale x is harmless')\n"
            + self.SRC_WITH_FINDING
        )
        rep = run_coherence([str(mod)])
        assert rep.exit_code == 0
        (v,) = rep.verdicts
        assert v.contract is not None
        assert v.contract.reason == "reviewed: stale x is harmless"

    @pytest.mark.parametrize(
        "terms, message",
        [
            ("tolerance='bogus'", "tolerance must be one of 'read_only', "),
            ("age=-3", "age must be an int >= 0 or None, got -3"),
            ("writers=0", "writers must be an int >= 1, got 0"),
            ("writers='one'", "writers must be an int >= 1, got 'one'"),
            ("tolerence='commutative'", "unexpected keyword argument"),
            ("age=AGE", "AGE is not a literal"),
        ],
        ids=["unknown-tolerance", "negative-age", "no-writers",
             "non-int-writers", "misspelt-term", "non-literal-age"],
    )
    def test_invalid_contract_is_an_analyzer_error(self, tmp_path, terms, message):
        mod = tmp_path / "w.py"
        mod.write_text(
            "from repro.core import dsm_contract\n"
            f"dsm_contract('x', {terms})\n" + self.SRC_WITH_FINDING
        )
        rep = run_coherence([str(mod)])
        assert rep.exit_code == 2
        (err,) = rep.errors
        assert err.startswith(f"{mod}:2: invalid dsm_contract")
        assert message in err

    def test_conflicting_declarations_are_an_analyzer_error(self, tmp_path):
        # modules need not import each other to disagree: the analyzer
        # sees every declaration in the scanned tree
        (tmp_path / "a.py").write_text(
            "from repro.core import dsm_contract\n"
            "dsm_contract('x', age=None, tolerance='commutative')\n"
            + self.SRC_WITH_FINDING
        )
        (tmp_path / "b.py").write_text(
            "from repro.core import dsm_contract\n\n"
            "dsm_contract('x', age=0, tolerance='commutative')\n"
        )
        rep = run_coherence([str(tmp_path)])
        assert rep.exit_code == 2
        (err,) = rep.errors
        assert err.startswith(f"{tmp_path / 'b.py'}:3: dsm_contract for 'x' conflicts")
        assert f"{tmp_path / 'a.py'}:2" in err

    def test_identical_redeclaration_is_not_a_conflict(self, tmp_path):
        decl = (
            "from repro.core import dsm_contract\n"
            "dsm_contract('x', age=None, tolerance='commutative')\n"
        )
        (tmp_path / "a.py").write_text(decl + self.SRC_WITH_FINDING)
        (tmp_path / "b.py").write_text(decl)
        assert run_coherence([str(tmp_path)]).exit_code == 0

    def test_envelope_shape_and_digest(self, tmp_path):
        mod = tmp_path / "w.py"
        mod.write_text(self.SRC_WITH_FINDING)
        env = run_coherence([str(mod)]).to_envelope()
        assert env["schema"] == COHERENCE_SCHEMA
        assert env["summary"]["locations"] == 1
        assert env["summary"]["by_code"] == {"RPR101": 1}
        assert env["digest"] == envelope_digest(env)


# ---------------------------------------------------------------------------
# Repo-wide invariants (what the CI gate runs)
# ---------------------------------------------------------------------------
class TestRepoInvariant:
    def test_every_dsm_location_classifies_clean(self):
        rep = run_coherence([SRC])
        assert rep.errors == []
        assert rep.findings == []
        patterns = {v.pattern for v in rep.verdicts}
        # the two workloads' shared state must all be discovered
        assert {"migrants.*", "iface.*", "ifr.*.*"} <= patterns
        # and every location carries a declared contract that says why
        # its races are acceptable
        assert all(v.contract is not None and v.contract.reason
                   for v in rep.verdicts)

    def test_committed_baseline_is_valid_and_not_stale(self):
        # the committed exceptions are the tree's dsm_contract
        # declarations: each must validate, and each must still govern
        # at least one discovered location
        scan = scan_paths([SRC])
        assert scan.errors == []
        declared = {(c.path, c.line) for c in scan.contracts}
        assert declared
        rep = run_coherence([SRC])
        assert rep.exit_code == 0
        governing = {(v.contract.path, v.contract.line) for v in rep.verdicts}
        assert declared == governing


class TestTracedRunIntegration:
    """The full static↔dynamic loop on traced runs of every application
    mode: each location family the analyzer knows is observed, and no
    observation is worse than its static verdict."""

    def test_cross_check_passes_on_traced_run(self, tmp_path):
        from repro.bayes.parallel import (
            ParallelLsConfig,
            run_parallel_logic_sampling,
        )
        from repro.cluster.machine import MachineConfig
        from repro.core.coherence import CoherenceMode
        from repro.experiments.table2 import build_network, pick_query
        from repro.ga.functions import get_function
        from repro.ga.island import IslandGaConfig, run_island_ga

        def traced(run, cfg, name):
            holder: dict = {}
            run(cfg, instrument=lambda dsm: holder.setdefault("dsm", dsm))
            holder["dsm"].vm.kernel.obs.write_jsonl(str(tmp_path / name))

        for mode in CoherenceMode:
            traced(run_island_ga, IslandGaConfig(
                fn=get_function(1), n_demes=3, mode=mode, n_generations=10,
                age=5 if mode is CoherenceMode.NON_STRICT else 0,
                machine=MachineConfig(n_nodes=3, trace=True),
            ), f"ga-{mode.value}.jsonl")
        net = build_network("Hailfinder")
        for mode in (CoherenceMode.SYNCHRONOUS, CoherenceMode.NON_STRICT):
            traced(run_parallel_logic_sampling, ParallelLsConfig(
                net=net, query=pick_query(net), n_procs=2, mode=mode, age=5,
                max_iterations=200, machine=MachineConfig(n_nodes=2, trace=True),
            ), f"bayes-{mode.value}.jsonl")

        rep = run_coherence([SRC], traces=[str(tmp_path)])
        assert rep.errors == []
        assert rep.findings == []
        families = {locn.split(".", 1)[0] for locn in rep.evidence}
        assert families == {"migrants", "iface", "ifr"}
        for locn, ev in rep.evidence.items():
            assert ev.unbounded == 0, (locn, ev)
