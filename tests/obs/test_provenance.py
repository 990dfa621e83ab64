"""Tests for the search provenance journal (``repro.obs.provenance``)."""

import json
import os

import pytest

import repro
from repro.core import DPOS, OSDPOS, FastTConfig, SearchOptions
from repro.costmodel import (
    OracleCommunicationModel,
    OracleComputationModel,
)
from repro.graph import Graph
from repro.hardware import PerfModel
from repro.obs import NULL_OBS, Observability
from repro.obs.provenance import (
    PROVENANCE_SCHEMA_VERSION,
    ProvenanceError,
    ProvenanceJournal,
    ProvenanceSchemaError,
)
from repro.obs.__main__ import main as obs_cli

from tests.util import build_mlp


def heavy_matmul_graph(m=2048, k=2048, n=2048):
    """One dominant matmul — the known-correct split candidate."""
    g = Graph("heavy")
    a = g.create_op("Placeholder", "a", attrs={"shape": (m, k)}).outputs[0]
    b = g.create_op("Variable", "b", attrs={"shape": (k, n)}).outputs[0]
    mm = g.create_op("MatMul", "mm", [a, b]).outputs[0]
    g.create_op("Relu", "relu", [mm])
    return g


def mlp_graph():
    g = Graph("mlp")
    build_mlp(g, "", 32)
    return g


def _search(topo, graph, obs, **kwargs):
    perf = PerfModel(topo)
    comp = OracleComputationModel(perf)
    comm = OracleCommunicationModel(perf)
    options = SearchOptions(max_candidate_ops=None, **kwargs)
    return OSDPOS(
        DPOS(topo, comp, comm, obs=obs), options=options, obs=obs
    ).run(graph)


@pytest.fixture
def journaled(topo4):
    """Provenance-enabled OS-DPOS run on the known-correct split graph."""
    obs = Observability(provenance=True)
    result = _search(topo4, heavy_matmul_graph(), obs)
    return obs.provenance.journal, result


class TestJournalRecording:
    def test_search_recorded(self, journaled):
        journal, result = journaled
        assert len(journal.searches) == 1
        search = journal.searches[0]
        assert search.mode == "incremental"
        assert search.graph == "heavy"
        assert search.initial_finish is not None
        assert search.final_finish == pytest.approx(result.finish_time)

    def test_decision_for_every_deployed_op(self, journaled):
        journal, result = journaled
        search = journal.searches[0]
        assert set(search.decisions) == set(result.strategy.placement)
        for name, decision in search.decisions.items():
            assert decision.device == result.strategy.placement[name]

    def test_verdict_counters_match_result(self, journaled):
        journal, result = journaled
        search = journal.searches[0]
        candidates = [c for r in search.rounds for c in r.candidates]
        evaluated = [c for c in candidates if c.verdict in ("accepted", "rejected")]
        rejected_rounds = [r for r in search.rounds if r.verdict == "rejected"]
        assert len(evaluated) == result.candidates_evaluated
        assert len(rejected_rounds) == result.splits_rejected
        assert len(search.committed_splits) == len(result.split_list)

    def test_rejected_rounds_record_best_makespan(self, topo2):
        # The MLP's candidates are evaluated but never beat the incumbent
        # on two devices with oracle costs of this scale.
        obs = Observability(provenance=True)
        result = _search(topo2, mlp_graph(), obs)
        search = obs.provenance.journal.searches[0]
        for rnd in search.rounds:
            assert rnd.verdict in (
                "committed", "rejected", "no-candidates", "examined"
            )
            if rnd.verdict == "rejected":
                assert rnd.incumbent is not None
        assert result.strategy.validate_against(result.graph) is None


class TestExplain:
    def test_split_parent_chain(self, journaled):
        journal, result = journaled
        exp = journal.explain("mm", placement=result.strategy.placement)
        # The parent op was consumed by its committed split.
        assert exp.decision is None
        assert exp.sub_ops
        assert exp.rounds and exp.rounds[-1].verdict == "committed"
        assert "committed" in exp.render()

    def test_sub_op_reconstructs_device_and_alternatives(self, journaled):
        journal, result = journaled
        exp = journal.explain("mm/part0", placement=result.strategy.placement)
        assert exp.parent == "mm"
        assert exp.decision is not None
        assert exp.decision.device == result.strategy.placement["mm/part0"]
        assert exp.decision.alternatives
        chosen = exp.decision.chosen_alternative
        assert chosen is not None and chosen.device == exp.decision.device
        assert chosen.score is not None
        assert exp.matches_strategy
        # The ancestor's committed round is part of the verdict chain.
        assert any(r.op_name == "mm" for r in exp.rounds)

    def test_every_op_explainable(self, journaled):
        journal, result = journaled
        for name, device in result.strategy.placement.items():
            exp = journal.explain(name, placement=result.strategy.placement)
            assert exp.decision is not None
            assert exp.decision.device == device
            assert exp.decision.reason in (
                "colocated", "critical-path", "min-eft", "memory-overflow"
            )
            assert exp.decision.alternatives
            assert exp.render()

    def test_unknown_op_raises(self, journaled):
        journal, _ = journaled
        with pytest.raises(ProvenanceError):
            journal.explain("no-such-op")

    def test_unmatched_placement_falls_back_and_is_flagged(self, journaled):
        """A deployed strategy no search produced (e.g. a profiled
        data-parallel alternative won the measurement): explain still
        finds the decision-bearing search but flags the mismatch."""
        journal, result = journaled
        devices = sorted(set(result.strategy.placement.values()))
        rotated = {d: devices[(i + 1) % len(devices)]
                   for i, d in enumerate(devices)}
        foreign = {op: rotated[d]
                   for op, d in result.strategy.placement.items()}
        exp = journal.explain("mm/part0", placement=foreign)
        assert not exp.matches_strategy
        assert exp.decision is not None and exp.decision.alternatives
        assert "not the one finally deployed" in exp.render()
        # The consumed parent still resolves to its committed round.
        parent = journal.explain("mm", placement=foreign)
        assert not parent.matches_strategy
        assert parent.sub_ops

    def test_cite_mentions_device_and_reason(self, journaled):
        journal, result = journaled
        line = journal.cite("mm/part0")
        assert line is not None
        assert result.strategy.placement["mm/part0"] in line
        assert journal.cite("no-such-op") is None


class TestZeroCostDefault:
    def test_strategies_identical_with_and_without_provenance(self, topo4):
        plain = _search(topo4, heavy_matmul_graph(), None)
        recorded = _search(
            topo4, heavy_matmul_graph(), Observability(provenance=True)
        )
        assert plain.strategy.placement == recorded.strategy.placement
        assert plain.strategy.order == recorded.strategy.order
        assert [
            (d.op_name, d.dim, d.num_splits) for d in plain.split_list
        ] == [
            (d.op_name, d.dim, d.num_splits) for d in recorded.split_list
        ]
        assert plain.finish_time == pytest.approx(recorded.finish_time)

    def test_unobserved_search_returns_the_journaled_rounds(self, topo4):
        plain = _search(topo4, heavy_matmul_graph(), None)
        obs = Observability(provenance=True)
        _search(topo4, heavy_matmul_graph(), obs)
        search = obs.provenance.journal.searches[0]
        assert [r.to_json() for r in plain.rounds] == [
            r.to_json() for r in search.rounds
        ]
        assert plain.candidate_ops == search.candidate_ops
        assert plain.initial_finish == search.initial_finish
        assert plain.mode == search.mode == "incremental"
        assert plain.candidates_evaluated == sum(
            c.verdict != "infeasible" for r in plain.rounds for c in r.candidates
        )

    def test_null_provenance_records_nothing(self, topo4):
        obs = Observability()  # enabled, but provenance off (the default)
        _search(topo4, heavy_matmul_graph(), obs)
        assert not obs.provenance.enabled
        assert obs.provenance.journal is None
        assert NULL_OBS.provenance.enabled is False

    def test_dpos_decisions_only_when_recording(self, topo4):
        perf = PerfModel(topo4)
        comp = OracleComputationModel(perf)
        comm = OracleCommunicationModel(perf)
        g = heavy_matmul_graph()
        plain = DPOS(topo4, comp, comm).run(g.copy())
        assert not plain.decisions
        obs = Observability(provenance=True)
        recorded = DPOS(topo4, comp, comm, obs=obs).run(g.copy())
        assert recorded.decisions
        assert set(recorded.decisions) == set(recorded.placement)
        assert plain.placement == recorded.placement


class TestPersistence:
    def test_round_trip(self, journaled, tmp_path):
        journal, result = journaled
        path = str(tmp_path / "run.provenance.json")
        journal.save(path)
        loaded = ProvenanceJournal.load(path)
        assert len(loaded.searches) == len(journal.searches)
        exp = loaded.explain("mm/part0", placement=result.strategy.placement)
        assert exp.decision.device == result.strategy.placement["mm/part0"]
        assert exp.to_json() == journal.explain(
            "mm/part0", placement=result.strategy.placement
        ).to_json()

    def test_schema_version_enforced(self, tmp_path):
        path = tmp_path / "bad.provenance.json"
        path.write_text(json.dumps({"schema": PROVENANCE_SCHEMA_VERSION + 1}))
        with pytest.raises(ProvenanceSchemaError):
            ProvenanceJournal.load(str(path))
        path.write_text(json.dumps({"searches": []}))
        with pytest.raises(ProvenanceSchemaError):
            ProvenanceJournal.load(str(path))

    def test_truncated_journal_is_a_schema_error_naming_the_path(
        self, tmp_path
    ):
        path = tmp_path / "cut.provenance.json"
        path.write_text('{"schema": 1, "searches": [')
        with pytest.raises(ProvenanceSchemaError, match="invalid JSON") as info:
            ProvenanceJournal.load(str(path))
        assert str(info.value).startswith(str(path))

    def test_export_provenance_seam(self, topo4, tmp_path):
        obs = Observability(provenance=True)
        _search(topo4, heavy_matmul_graph(), obs)
        path = obs.export_provenance(str(tmp_path / "t.provenance.json"))
        assert path is not None and os.path.exists(path)
        # Disabled hooks export nothing.
        assert Observability().export_provenance(
            str(tmp_path / "none.provenance.json")
        ) is None


#: A schema-1 journal as written while OS-DPOS still had a lower-bound
#: filter: one candidate carries the ``pruned`` verdict with its
#: ``lower_bound``/``threshold``, fields the current writer no longer has.
OLD_PRUNED_JOURNAL = {
    "schema": 1,
    "searches": [{
        "search_id": 0,
        "graph": "heavy",
        "mode": "naive",
        "candidate_ops": ["mm"],
        "initial_finish": 0.004,
        "final_finish": 0.002,
        "rounds": [{
            "op_name": "mm",
            "verdict": "committed",
            "incumbent": 0.004,
            "best_makespan": 0.002,
            "accepted": ["row", 2],
            "sub_ops": ["mm/part0", "mm/part1"],
            "candidates": [
                {"dim": "row", "num_splits": 2, "verdict": "accepted",
                 "makespan": 0.002, "lower_bound": None, "threshold": None},
                {"dim": "row", "num_splits": 4, "verdict": "pruned",
                 "makespan": None, "lower_bound": 0.003,
                 "threshold": 0.002},
                {"dim": "column", "num_splits": 8, "verdict": "infeasible",
                 "makespan": None, "lower_bound": None, "threshold": None},
            ],
        }],
        "decisions": {
            f"mm/part{i}": {
                "op_name": f"mm/part{i}", "device": f"gpu:{i}",
                "reason": "min-eft", "start": 0.0, "finish": 0.002,
                "rank": 0.002, "on_critical_path": i == 0,
                "alternatives": [{
                    "device": f"gpu:{i}", "score": 0.002, "start": 0.0,
                    "feasible": True, "chosen": True, "note": "",
                }],
            }
            for i in range(2)
        },
        "super_ops": {},
    }],
}


class TestOldJournals:
    def test_pruned_verdict_loads_and_renders(self):
        journal = ProvenanceJournal.from_json(OLD_PRUNED_JOURNAL)
        candidates = journal.searches[0].rounds[0].candidates
        assert [c.verdict for c in candidates] == [
            "accepted", "pruned", "infeasible"
        ]
        assert candidates[1].describe() == "dim=row x4: pruned"
        rendered = journal.explain("mm/part1").render()
        assert "dim=row x4: pruned" in rendered
        assert "gpu:1" in rendered

    def test_cli_checks_and_queries_old_journal(self, tmp_path, capsys):
        path = tmp_path / "old.provenance.json"
        path.write_text(json.dumps(OLD_PRUNED_JOURNAL))
        assert obs_cli(["validate", str(tmp_path)]) == 0
        assert "1 valid, 0 invalid" in capsys.readouterr().out
        assert obs_cli(["explain", str(tmp_path), "--op", "mm/part0"]) == 0
        assert "pruned" in capsys.readouterr().out


class TestOptimizeIntegration:
    @pytest.fixture(scope="class")
    def optimized(self):
        config = FastTConfig(
            profiling_steps=1,
            max_rounds=2,
            min_rounds=1,
            measure_steps=1,
            search=SearchOptions(max_candidate_ops=3),
        )
        from repro.cluster import single_server

        return repro.optimize(
            "lenet",
            single_server(2),
            config=config,
            obs=Observability(provenance=True),
        )

    def test_every_op_reconstructs_decision(self, optimized):
        result = optimized
        for op in result.graph.ops:
            exp = result.explain_placement(op.name)
            assert exp.decision is not None
            assert exp.decision.device == result.strategy.placement[op.name]
            assert any(
                a.chosen and a.score is not None
                for a in exp.decision.alternatives
            )
        for decision in result.strategy.split_list:
            exp = result.explain_placement(decision.op_name)
            verdicts = {r.verdict for r in exp.rounds}
            assert "committed" in verdicts

    def test_summary_mentions_search_verdicts(self, optimized):
        summary = optimized.summary()
        assert "rejected by simulation" in summary

    def test_explain_placement_requires_provenance(self):
        from repro.cluster import single_server

        config = FastTConfig(
            profiling_steps=1, max_rounds=1, min_rounds=1, measure_steps=1,
            search=SearchOptions(max_candidate_ops=0),
        )
        result = repro.optimize("lenet", single_server(2), config=config)
        with pytest.raises(ProvenanceError):
            result.explain_placement("anything")


class TestCli:
    """``python -m repro.obs explain`` / ``validate`` / ``show`` on journals."""

    @pytest.fixture
    def journal_dir(self, journaled, tmp_path):
        journal, result = journaled
        journal.save(str(tmp_path / "heavy.provenance.json"))
        return str(tmp_path), result

    def test_check_ok(self, journal_dir, capsys):
        directory, _ = journal_dir
        assert obs_cli(["validate", directory]) == 0
        assert "1 valid" in capsys.readouterr().out

    def test_check_flags_invalid(self, journal_dir, tmp_path, capsys):
        directory, _ = journal_dir
        (tmp_path / "bad.provenance.json").write_text("{}")
        assert obs_cli(["validate", directory]) == 2
        assert "INVALID" in capsys.readouterr().out

    def test_list_and_op_query(self, journal_dir, capsys):
        directory, result = journal_dir
        assert obs_cli(["explain", directory]) == 0
        listed = capsys.readouterr().out.split()
        assert "mm/part0" in listed
        assert obs_cli(["explain", directory, "--op", "mm/part0"]) == 0
        out = capsys.readouterr().out
        assert result.strategy.placement["mm/part0"] in out

    def test_unknown_op_exits_nonzero(self, journal_dir, capsys):
        directory, _ = journal_dir
        assert obs_cli(["explain", directory, "--op", "no-such-op"]) == 2
        assert "not found in any journal" in capsys.readouterr().err

    def test_no_journals_exits_nonzero(self, tmp_path):
        assert obs_cli(["explain", str(tmp_path)]) == 2

    def test_summary_and_json(self, journal_dir, capsys):
        directory, _ = journal_dir
        assert obs_cli(["show", directory]) == 0
        assert "search(es)" in capsys.readouterr().out
        assert obs_cli(["explain", directory, "--op", "mm", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["op_name"] == "mm"


class TestDiffCitations:
    def test_divergent_placements_cite_journals(self, topo2, topo4):
        from repro.obs.analyze import cite_divergences, diff_strategies

        obs_a = Observability(provenance=True)
        obs_b = Observability(provenance=True)
        result_a = _search(topo2, heavy_matmul_graph(), obs_a)
        result_b = _search(topo4, heavy_matmul_graph(), obs_b)
        diff = diff_strategies(result_a.strategy, result_b.strategy)
        cite_divergences(
            diff, obs_a.provenance.journal, obs_b.provenance.journal
        )
        assert diff.citations
        for lines in diff.citations.values():
            assert all(line.startswith(("A:", "B:")) for line in lines)
        assert any(name in diff.citations for name in diff.to_json()["citations"])
