"""End-to-end observability: one service job traced down to the circuit.

The ISSUE acceptance case: submit one job to a ``MatcherService`` with
``trace_circuit`` observability and follow its span ancestry from
``service.job`` through execution, worker, chip, and array down to
switch-level ``circuit.settle`` spans -- then round-trip the whole trace
through export/save/load/replay and the CLI.
"""

from __future__ import annotations

import json

import pytest

from repro import Alphabet, Observability, match_oracle, parse_pattern
from repro.chip.chip import ChipSpec
from repro.obs.__main__ import main as obs_main
from repro.obs.replay import render_report, trace_report
from repro.obs.trace import Tracer
from repro.service import MatcherService, uniform_pool

AB = Alphabet("ABCD")


@pytest.fixture(scope="module")
def traced_run():
    obs = Observability(trace_circuit=True, circuit_char_limit=16)
    pool = uniform_pool(1, ChipSpec(4, 2), AB)
    svc = MatcherService(pool, obs=obs)
    svc.submit("AXC", "ABCAACACCAB", tenant="e2e")
    results = svc.drain()
    return obs, svc, results


class TestSpanChain:
    def test_results_still_oracle(self, traced_run):
        _, _, results = traced_run
        assert results[0].results == match_oracle(
            parse_pattern("AXC", AB), list("ABCAACACCAB")
        )

    def test_job_span_closed_with_outcome(self, traced_run):
        obs, _, results = traced_run
        jobs = obs.tracer.find("service.job")
        assert len(jobs) == 1
        job = jobs[0]
        assert not job.open
        assert job.t1 == results[0].finished_beat
        assert job.attrs["tenant"] == "e2e"
        assert job.attrs["mode"] == "direct"
        assert job.attrs["via_fallback"] is False

    def test_ancestry_reaches_from_settle_to_job(self, traced_run):
        obs, _, _ = traced_run
        settles = obs.tracer.find("circuit.settle")
        assert settles, "trace_circuit must record settle spans"
        names = [s.name for s in obs.tracer.ancestry(settles[0])]
        # Innermost parent first: the gate-level run, the worker match,
        # the shard execution, then the job itself.
        assert names == [
            "gate.match", "worker.match", "service.execution", "service.job"
        ]

    def test_array_level_spans_nest_under_worker(self, traced_run):
        obs, _, _ = traced_run
        runs = obs.tracer.find("array.run")
        assert runs
        names = [s.name for s in obs.tracer.ancestry(runs[0])]
        assert names[:2] == ["chip.report", "worker.match"]
        assert names[-1] == "service.job"

    def test_cross_level_agreement_attrs(self, traced_run):
        obs, _, _ = traced_run
        wm = obs.tracer.find("worker.match")[0]
        assert wm.attrs["array_agrees"] is True
        assert wm.attrs["circuit_agrees"] is True
        assert wm.attrs["engine"] == "fastpath"

    def test_metrics_published_at_every_level(self, traced_run):
        obs, svc, _ = traced_run
        r = obs.registry
        assert r.value("service.jobs.completed") == 1
        assert r.value("worker.matches", worker="chip-0") == 1
        # Array beats from the deep re-drive, labelled by chip name.
        assert r.value("array.beats", array=svc.pool.workers[0].backend.spec.name) > 0
        # Settle calls from the gate-level re-drive, labelled by the
        # compiled chip's name (match kernel, 3 columns for AXC, 2 bits).
        assert r.value("circuit.settle.calls", circuit="match_3x2") > 0


class TestExportReplay:
    def test_save_load_report(self, traced_run, tmp_path):
        obs, _, results = traced_run
        path = tmp_path / "trace.json"
        obs.save(str(path))
        data = Observability.load(str(path))
        report = trace_report(data)
        assert report["jobs"]["count"] == 1
        assert report["jobs"]["latency_max_beats"] == pytest.approx(
            results[0].latency_beats
        )
        workers = report["workers"]
        assert "chip-0" in workers
        assert workers["chip-0"]["executions"] == 1
        # Depth section sees the re-driven array and circuit work.
        assert report["depth"]["array_beats"] > 0
        assert report["depth"]["settle_calls"] > 0
        # Rendered report is printable text.
        out = render_report(report)
        assert "jobs" in out and "chip-0" in out

    def test_tracer_round_trip_preserves_ancestry(self, traced_run):
        obs, _, _ = traced_run
        back = Tracer.from_dict(json.loads(json.dumps(obs.tracer.to_dict())))
        settle = back.find("circuit.settle")[0]
        assert [s.name for s in back.ancestry(settle)][-1] == "service.job"


class TestCLI:
    def test_replay_command(self, traced_run, tmp_path, capsys):
        obs, _, _ = traced_run
        trace = tmp_path / "trace.json"
        out_json = tmp_path / "report.json"
        obs.save(str(trace))
        rc = obs_main(["replay", str(trace), "--json", str(out_json)])
        assert rc == 0
        assert "jobs" in capsys.readouterr().out
        report = json.loads(out_json.read_text())
        assert report["jobs"]["count"] == 1

    def test_demo_command(self, tmp_path, capsys):
        trace = tmp_path / "demo.json"
        rc = obs_main(
            ["demo", "--workers", "2", "--jobs", "3", "--repeat", "1",
             "--trace", str(trace)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        data = json.loads(trace.read_text())
        assert data["format"] == 1
        assert any(s["name"] == "service.job" for s in data["spans"])
