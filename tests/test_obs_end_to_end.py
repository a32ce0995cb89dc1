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
from repro.service import (
    FaultInjector,
    MatcherService,
    PoolWorker,
    SchedulerConfig,
    uniform_pool,
)

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
        # Innermost parent first: the gate-level run, the device call,
        # the shard execution, then the job itself.
        assert names == [
            "gate.match", "worker.kernel", "service.execution", "service.job"
        ]

    def test_array_level_spans_nest_under_worker(self, traced_run):
        obs, _, _ = traced_run
        runs = obs.tracer.find("array.run")
        assert runs
        names = [s.name for s in obs.tracer.ancestry(runs[0])]
        assert names[:2] == ["chip.report", "worker.kernel"]
        assert names[-1] == "service.job"

    def test_cross_level_agreement_attrs(self, traced_run):
        obs, _, _ = traced_run
        wm = obs.tracer.find("worker.kernel")[0]
        assert wm.attrs["array_agrees"] is True
        assert wm.attrs["circuit_agrees"] is True

    def test_metrics_published_at_every_level(self, traced_run):
        obs, svc, _ = traced_run
        r = obs.registry
        assert r.value("service.jobs.completed") == 1
        assert r.value(
            "worker.executions", worker="chip-0", workload="match"
        ) == 1
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


class TestReplayCountsEveryExecution:
    def test_replay_equals_telemetry_per_worker(
        self, tmp_path, monkeypatch, capsys
    ):
        """Every device call counts in the replay, whatever the unit: a
        wide text's shards on both chips, a batch plan, a count job and
        a match job.  Per worker, the replayed executions equal the
        telemetry's and the replayed samples equal what the device was
        fed."""
        fed = {}
        real = PoolWorker.run_kernel_batch

        def spy(self, spec, taps, streams, **kw):
            fed[self.name] = fed.get(self.name, 0) + sum(map(len, streams))
            return real(self, spec, taps, streams, **kw)

        monkeypatch.setattr(PoolWorker, "run_kernel_batch", spy)
        obs = Observability()
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB), obs=obs)
        svc.submit("AXC", "ABCD" * 200)
        svc.drain()
        svc.submit_many("AXC", ["ABCA", "AACC", "CABC"])
        svc.submit("AX", "ABCAB", workload="count")
        svc.submit("AXC", "ABCAACACCAB")
        modes = [r.mode for r in svc.drain()]
        assert modes == ["text-sharded"] + ["batched"] * 3 + ["direct"] * 2
        trace, out = tmp_path / "trace.json", tmp_path / "report.json"
        obs.save(str(trace))
        assert obs_main(["replay", str(trace), "--json", str(out)]) == 0
        capsys.readouterr()
        workers = json.loads(out.read_text())["workers"]
        assert {w: r["executions"] for w, r in workers.items()} == {
            w: s.executions for w, s in svc.telemetry.workers.items()
        }
        assert {w: r["samples"] for w, r in workers.items()} == fed
        assert sum(fed.values()) > 800  # the shards' halo is fed twice

    def test_a_death_is_not_an_execution(self, tmp_path, capsys):
        """A unit whose chip dies makes no device call: neither the
        telemetry nor the replay counts it as an execution.  Seed 22
        kills the batch plan's first launch on a 2-chip farm (the
        conformance suite's ``batch-retried`` case)."""
        obs = Observability()
        svc = MatcherService(
            uniform_pool(2, ChipSpec(8, 2), AB), obs=obs,
            config=SchedulerConfig(max_batch_jobs=2),
            faults=FaultInjector(seed=22, p_death=0.3),
        )
        a, b, c = "ABCAACAC", "CACCABAB", "BBCAACCA"
        svc.submit_many("AXC", [a, b, a, "", c])
        svc.drain()
        assert svc.telemetry.deaths == 1
        trace, out = tmp_path / "trace.json", tmp_path / "report.json"
        obs.save(str(trace))
        assert obs_main(["replay", str(trace), "--json", str(out)]) == 0
        capsys.readouterr()
        workers = json.loads(out.read_text())["workers"]
        telemetry = {w: s.executions for w, s in svc.telemetry.workers.items()}
        assert {w: r["executions"] for w, r in workers.items()} == telemetry
        assert sum(telemetry.values()) == 2  # the solo job + the retry


class TestPerWorkerArrayLabels:
    def test_each_worker_publishes_its_own_array_series(self):
        """Pool chips are named after their workers, so deep re-drives on
        two workers land in two ``array.*`` series, not one shared one."""
        obs = Observability(deep=True)
        svc = MatcherService(uniform_pool(2, ChipSpec(8, 2), AB), obs=obs)
        for text in ("ABCAACACCAB", "ACCABCA", "AACCB"):
            svc.submit("AXC", text)
        served = {w for r in svc.drain() for w in r.workers}
        assert served == {"chip-0", "chip-1"}
        beats = obs.registry.snapshot()["array.beats"]
        assert sorted(m["labels"]["array"] for m in beats) == [
            "chip-0", "chip-1"
        ]
        assert all(m["value"] > 0 for m in beats)
