"""Warm worker pool: reuse, crash respawn, backpressure, drain, and
the scheduler lifecycle regression tests (shutdown reporting, dedup
priority bump, monotonic durations, bounded retention)."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

import repro.service.scheduler as scheduler_module
from repro.networks import benchmark_verilog
from repro.service import (
    ArtifactStore,
    DesignService,
    JobScheduler,
    QueueFullError,
)


#: Runs for tens of seconds (exact P&R proves small floor plans
#: impossible): a job the test kills, cancels or leaves running, or an
#: occupier that keeps the worker busy until the test cancels it.
_LONG = "newtag"


def _wait_running(scheduler, job, timeout=60.0):
    """Block until the job is RUNNING on a known worker pid."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.status == "running" and job.worker_pid:
            return
        if job.finished:
            raise AssertionError(
                f"job finished early: {job.status} {job.error}"
            )
        time.sleep(0.01)
    raise AssertionError(f"job never started running ({job.status})")


def _post_job(url, specification, name, timeout=60):
    request = urllib.request.Request(
        f"{url}/v1/jobs",
        data=json.dumps(
            {"specification": specification, "name": name}
        ).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read()), dict(
            response.headers
        )


# --- warm pool ---------------------------------------------------------


def test_pool_reuses_worker_across_jobs(tmp_path):
    with JobScheduler(ArtifactStore(tmp_path), workers=1) as scheduler:
        verilog = benchmark_verilog("xor2")
        jobs = [
            scheduler.submit(verilog, name=f"reuse-{index}")
            for index in range(3)
        ]
        for job in jobs:
            assert job.wait(120) and job.status == "done", job.error
        pids = {job.worker_pid for job in jobs}
        assert len(pids) == 1 and None not in pids
        assert scheduler.stats()["workers_alive"] == 1
        assert (
            scheduler.telemetry.counters["service.workers_spawned"] == 1
        )


def test_worker_crash_fails_job_and_respawns(tmp_path):
    with JobScheduler(ArtifactStore(tmp_path), workers=1) as scheduler:
        victim = scheduler.submit(benchmark_verilog(_LONG), name="victim")
        _wait_running(scheduler, victim)
        crashed_pid = victim.worker_pid
        os.kill(crashed_pid, signal.SIGKILL)
        assert victim.wait(120)
        assert victim.status == "failed"
        assert victim.error["kind"] == "crash"
        assert "exit code" in victim.error["message"]
        assert (
            scheduler.telemetry.counters["service.workers_crashed"] == 1
        )

        survivor = scheduler.submit(
            benchmark_verilog("xor2"), name="survivor"
        )
        assert survivor.wait(120) and survivor.status == "done", (
            survivor.error
        )
        assert survivor.worker_pid != crashed_pid


def test_span_capture_survives_worker_respawn(tmp_path):
    # A worker killed mid-job ships no span for the victim, but the
    # respawned replacement's capture pipe must be fully wired: the
    # next job gets a merged span tree, stamped with its trace id.
    trace_id = "f" * 32
    with JobScheduler(ArtifactStore(tmp_path), workers=1) as scheduler:
        victim = scheduler.submit(benchmark_verilog(_LONG), name="victim")
        _wait_running(scheduler, victim)
        # Queue the next job *before* the kill, so the crash happens
        # with work pending and the pool respawns immediately.
        survivor = scheduler.submit(
            benchmark_verilog("xor2"), name="survivor", trace_id=trace_id
        )
        os.kill(victim.worker_pid, signal.SIGKILL)
        assert victim.wait(120) and victim.status == "failed"
        assert scheduler.job_trace(victim.id) is None

        assert survivor.wait(120) and survivor.status == "done", (
            survivor.error
        )
        assert scheduler.stats()["workers_respawned"] == 1
        span = scheduler.job_trace(survivor.id)
        assert span is not None
        assert span.attributes["trace_id"] == trace_id
        assert span.attributes["job"] == survivor.id
        assert span.find("design_flow") is not None
        # The victim still has no trace, and unknown ids return None.
        assert scheduler.job_trace(victim.id) is None
        assert scheduler.job_trace("j-never-existed") is None


def test_lazy_spawn_skips_workers_on_cache_hits(tmp_path):
    store = ArtifactStore(tmp_path)
    verilog = benchmark_verilog("xor2")
    with JobScheduler(store, workers=1) as scheduler:
        primer = scheduler.submit(verilog, name="xor2")
        assert primer.wait(120) and primer.status == "done"
    with JobScheduler(store, workers=2) as scheduler:
        hit = scheduler.submit(verilog, name="xor2")
        assert hit.status == "done" and hit.cache_hit
        assert scheduler.stats()["workers_alive"] == 0


# --- backpressure ------------------------------------------------------


def test_queue_full_rejects_with_retry_after(tmp_path):
    with JobScheduler(
        ArtifactStore(tmp_path), workers=1, max_queued=1
    ) as scheduler:
        occupier = scheduler.submit(benchmark_verilog(_LONG), name="busy")
        _wait_running(scheduler, occupier)
        queued = scheduler.submit(benchmark_verilog("xor2"), name="q")
        with pytest.raises(QueueFullError) as excinfo:
            scheduler.submit(benchmark_verilog("xnor2"), name="reject")
        assert excinfo.value.retry_after_seconds >= 1
        # Deduplicated and cached submissions bypass admission control:
        # they cost no queue slot.
        attached = scheduler.submit(benchmark_verilog("xor2"), name="q")
        assert attached is queued
        stats = scheduler.stats()
        assert stats["jobs_rejected"] == 1
        assert scheduler.cancel(occupier.id)
        assert queued.wait(120) and queued.status == "done", queued.error


# --- graceful drain ----------------------------------------------------


def test_drain_completes_admitted_jobs(tmp_path):
    scheduler = JobScheduler(ArtifactStore(tmp_path), workers=1)
    verilog = benchmark_verilog("xor2")
    jobs = [
        scheduler.submit(verilog, name=f"drain-{index}")
        for index in range(3)
    ]
    scheduler.close(drain=True, drain_timeout=120.0)
    for job in jobs:
        assert job.status == "done", (job.status, job.error)
    with pytest.raises(RuntimeError):
        scheduler.submit(verilog, name="late")


def test_drain_deadline_cancels_stragglers(tmp_path):
    scheduler = JobScheduler(ArtifactStore(tmp_path), workers=1)
    job = scheduler.submit(benchmark_verilog(_LONG), name="straggler")
    _wait_running(scheduler, job)
    start = time.monotonic()
    scheduler.close(drain=True, drain_timeout=0.2)
    assert time.monotonic() - start < 30.0
    assert job.status == "cancelled", (job.status, job.error)
    assert job.error is None


# --- regression: shutdown reports CANCELLED, not crash -----------------


def test_close_reports_running_jobs_cancelled_not_crashed(tmp_path):
    scheduler = JobScheduler(ArtifactStore(tmp_path), workers=1)
    job = scheduler.submit(benchmark_verilog(_LONG), name="shutdown")
    _wait_running(scheduler, job)
    scheduler.close(cancel_running=True)
    assert job.status == "cancelled", (job.status, job.error)
    assert job.error is None


# --- regression: dedup bumps priority ----------------------------------


def test_dedup_raises_priority_of_queued_job(tmp_path):
    with JobScheduler(ArtifactStore(tmp_path), workers=1) as scheduler:
        occupier = scheduler.submit(benchmark_verilog(_LONG), name="busy")
        _wait_running(scheduler, occupier)
        low = scheduler.submit(
            benchmark_verilog("xor2"), name="low", priority=0
        )
        mid = scheduler.submit(
            benchmark_verilog("xnor2"), name="mid", priority=5
        )
        bumped = scheduler.submit(
            benchmark_verilog("xor2"), name="low", priority=10
        )
        assert bumped is low
        assert low.priority == 10
        assert low.attached == 1
        assert scheduler.cancel(occupier.id)
        assert occupier.wait(60) and occupier.status == "cancelled"
        for job in (low, mid):
            assert job.wait(180) and job.status == "done", job.error
        # The bumped job overtakes the earlier-submitted mid-priority
        # one -- before the fix it kept priority 0 and ran last.
        assert low.started_at <= mid.started_at


# --- regression: durations survive wall-clock steps --------------------


def test_durations_stay_non_negative_when_wall_clock_steps(
    tmp_path, monkeypatch
):
    ticks = iter(range(10**9, 0, -3600))  # wall clock stepping backwards

    monkeypatch.setattr(
        scheduler_module, "_wall_time", lambda: float(next(ticks))
    )
    with JobScheduler(ArtifactStore(tmp_path), workers=1) as scheduler:
        job = scheduler.submit(benchmark_verilog("xor2"), name="ntp")
        assert job.wait(120) and job.status == "done", job.error
        # Wall-clock timestamps reflect the (stepping) wall clock ...
        assert job.finished_at < job.started_at
        # ... but the measured duration comes from the monotonic clock.
        assert job.duration_seconds is not None
        assert job.duration_seconds >= 0.0
        histogram = scheduler.telemetry.histograms["service.job_seconds"]
        assert histogram.min >= 0.0


# --- regression: bounded retention -------------------------------------


def test_retention_evicts_oldest_terminal_jobs(tmp_path):
    store = ArtifactStore(tmp_path)
    verilog = benchmark_verilog("xor2")
    with JobScheduler(store, workers=1) as scheduler:
        primer = scheduler.submit(verilog, name="xor2")
        assert primer.wait(120) and primer.status == "done"
    with JobScheduler(store, workers=1, retain_jobs=3) as scheduler:
        jobs = [scheduler.submit(verilog, name="xor2") for _ in range(8)]
        assert all(job.cache_hit for job in jobs)
        stats = scheduler.stats()
        assert stats["jobs_total"] == 3
        assert stats["jobs_evicted"] == 5
        evicted, retained = jobs[0], jobs[-1]
        assert scheduler.job(evicted.id) is None
        assert scheduler.evicted(evicted.id)
        assert scheduler.job(retained.id) is retained
        assert not scheduler.evicted("j-never-existed")


# --- HTTP surface ------------------------------------------------------


def test_http_full_queue_answers_429_with_retry_after(tmp_path):
    with DesignService(
        store=tmp_path, port=0, workers=1, max_queued=1
    ) as service:
        service.start()
        status, doc, _ = _post_job(service.url, _LONG, "busy")
        assert status == 202
        occupier = service.scheduler.job(doc["job"]["id"])
        _wait_running(service.scheduler, occupier)
        status, _, _ = _post_job(service.url, "xor2", "queued")
        assert status == 202
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_job(service.url, "xnor2", "rejected")
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        assert "queue is full" in json.loads(excinfo.value.read())["error"]


def test_http_evicted_job_gets_distinct_404(tmp_path):
    with DesignService(
        store=tmp_path, port=0, workers=1, retain_jobs=1
    ) as service:
        service.start()
        status, doc, _ = _post_job(service.url, "xor2", "xor2")
        assert status == 202
        first = doc["job"]["id"]
        job = service.scheduler.job(first)
        assert job.wait(120) and job.status == "done", job.error
        status, doc, _ = _post_job(service.url, "xor2", "xor2")
        assert doc["job"]["cache_hit"]

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{service.url}/v1/jobs/{first}", timeout=30
            )
        assert excinfo.value.code == 404
        assert "evicted" in json.loads(excinfo.value.read())["error"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{service.url}/v1/jobs/j-never-existed", timeout=30
            )
        assert excinfo.value.code == 404
        assert "evicted" not in json.loads(excinfo.value.read())["error"]


# --- CLI: SIGTERM drains -----------------------------------------------


def test_serve_sigterm_drains_and_exits_zero(tmp_path):
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--store",
            str(tmp_path),
            "--workers",
            "1",
            "--drain-seconds",
            "10",
        ],
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stderr.readline()
        assert "repro design service" in banner, banner
        process.send_signal(signal.SIGTERM)
        stderr = process.stderr.read()
        returncode = process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert returncode == 0, stderr
    assert "draining" in stderr and "drained" in stderr, stderr
