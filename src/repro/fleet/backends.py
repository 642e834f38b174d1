"""Worker backends: how fleet workers actually get started.

Both backends drive the same entry point (``python -m
repro.fleet.worker``) and the same claim protocol; they differ only in
where the processes live:

* :class:`LocalBackend` — subprocess workers on this machine, pulling
  directly from the shared manifest queue.  While workers run, the
  backend periodically releases claims older than the retry timeout so
  a live worker can pick up a dead sibling's point without waiting for
  the round to end.
* :class:`SshBackend` — the coordinator claims batches *on behalf of*
  each remote worker slot (through the same atomic-rename protocol, so
  local and remote fleets can even share a manifest), ships each batch
  as a shard file via ``rsync``, runs the worker in shard mode over
  ``ssh``, and rsyncs the remote point store back.  Points that did not
  land stay claimed and are released by the coordinator's straggler
  pass, then re-dispatched to healthy hosts on the next round.

Every subprocess is launched with ``REPRO_BENCH_WORKERS=1``: the fleet
owns the fan-out, nested process pools are never allowed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import repro

from ..sim.sweep import ResultsStore
from .manifest import Manifest, WorkItem
from .spec import FleetHost, FleetSpec

#: ``run_command`` signature: a started, completed process.
CommandRunner = Callable[..., "subprocess.CompletedProcess[str]"]


@dataclass
class RoundOutcome:
    """What one dispatch round did."""

    workers: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  #: workers that died
    redispatched: int = 0  #: claims released to live workers mid-round


class WorkerBackend(Protocol):
    """One round of worker dispatch over the shared manifest."""

    name: str

    def run_round(self, manifest: Manifest, store: ResultsStore,
                  progress: Callable[[str], None]) -> RoundOutcome:
        """Start this round's workers, block until they exit."""
        ...  # pragma: no cover - protocol


def worker_env() -> dict[str, str]:
    """Environment for a worker subprocess: importable ``repro``, no
    nested pools."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    env["REPRO_BENCH_WORKERS"] = "1"
    return env


def point_landed(store: ResultsStore, config_hash: str) -> bool:
    """Did a finished point with this hash land in the store?"""
    try:
        data = json.loads((store.points_dir / f"{config_hash}.json").read_text())
    except (OSError, ValueError):
        return False
    return isinstance(data, dict) and data.get("config_hash") == config_hash


class LocalBackend:
    """Subprocess workers pulling from the shared queue."""

    name = "local"

    def __init__(self, spec: FleetSpec, *, poll_s: float = 0.2) -> None:
        self.spec = spec
        self.poll_s = poll_s

    def run_round(self, manifest: Manifest, store: ResultsStore,
                  progress: Callable[[str], None]) -> RoundOutcome:
        outcome = RoundOutcome()
        env = worker_env()
        procs: dict[str, subprocess.Popen] = {}
        for index, host in enumerate(self.spec.hosts):
            for worker_id in host.worker_ids(index):
                procs[worker_id] = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.fleet.worker",
                        "--fleet", str(manifest.root),
                        "--results", str(store.root),
                        "--worker-id", worker_id,
                    ],
                    env=env,
                )
                outcome.workers.append(worker_id)
        progress(f"[fleet] local round: {len(procs)} workers on {manifest.root}")
        try:
            while any(proc.poll() is None for proc in procs.values()):
                time.sleep(self.poll_s)
                # Mid-round straggler release: a claim past the retry
                # timeout whose point never landed goes back to the
                # queue for the surviving workers.
                released, _ = manifest.release_stale(
                    older_than_s=self.spec.retry_timeout_s,
                    landed=lambda h: point_landed(store, h),
                    max_attempts=self.spec.max_attempts,
                )
                outcome.redispatched += len(released)
        finally:
            for worker_id, proc in procs.items():
                if proc.poll() is None:  # pragma: no cover - interrupt path
                    proc.terminate()
                if proc.wait() != 0:
                    outcome.failures.append(worker_id)
                    progress(f"[fleet] worker {worker_id} exited {proc.returncode}")
        return outcome


def _default_runner(command: list[str], **kwargs) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(command, capture_output=True, text=True, **kwargs)


#: rsync's exit status when source files vanished during the transfer.
#: Points are renamed into place atomically and never removed, so only
#: files that are not points can vanish; which points landed is checked
#: afterwards with :func:`point_landed`.
RSYNC_VANISHED = 24


class SshBackend:
    """Shard dispatch over ``ssh``/``rsync``.

    ``run_command`` is injectable for tests (and for exotic transports:
    anything that executes an argv and reports an exit code works).
    """

    name = "ssh"

    def __init__(self, spec: FleetSpec, *, run_command: CommandRunner | None = None) -> None:
        self.spec = spec
        self.run_command = run_command or _default_runner

    # -- command construction (unit-testable without a network) --------
    def push_shard_command(self, host: FleetHost, shard: Path, shard_name: str) -> list[str]:
        return [
            self.spec.rsync_command, "-az", str(shard),
            f"{host.host}:{host.remote_path}/{shard_name}",
        ]

    def worker_command(self, host: FleetHost, shard_name: str, worker_id: str) -> list[str]:
        remote = (
            f"cd {host.remote_path} && "
            f"PYTHONPATH=src REPRO_BENCH_WORKERS=1 "
            f"{host.python} -m repro.fleet.worker "
            f"--shard {shard_name} --results results --worker-id {worker_id}"
        )
        return [self.spec.ssh_command, host.host, remote]

    def pull_results_command(self, host: FleetHost, store: ResultsStore) -> list[str]:
        # Worker slots on one host share its point store: a sibling's
        # in-flight ``*.tmp`` file must not be copied (it is renamed
        # away mid-transfer and is never a complete point).
        return [
            self.spec.rsync_command, "-az", "--exclude=*.tmp",
            f"{host.host}:{host.remote_path}/results/points/",
            f"{store.points_dir}{os.sep}",
        ]

    # -- dispatch -------------------------------------------------------
    def _claim_assignments(self, manifest: Manifest) -> dict[str, tuple[FleetHost, list[WorkItem]]]:
        """Claim pending points round-robin across every worker slot."""
        slots: list[tuple[str, FleetHost]] = []
        for index, host in enumerate(self.spec.hosts):
            for worker_id in host.worker_ids(index):
                slots.append((worker_id, host))
        assignments: dict[str, tuple[FleetHost, list[WorkItem]]] = {
            worker_id: (host, []) for worker_id, host in slots
        }
        drained = False
        while not drained:
            drained = True
            for worker_id, host in slots:
                item = manifest.claim(worker_id)
                if item is not None:
                    assignments[worker_id][1].append(item)
                    drained = False
        return assignments

    def _run_shard(
        self,
        manifest: Manifest,
        store: ResultsStore,
        host: FleetHost,
        worker_id: str,
        items: list[WorkItem],
        progress: Callable[[str], None],
        failures: list[str],
    ) -> None:
        shard_name = f"fleet-shard-{worker_id}.json"
        shards_dir = manifest.root / "shards"
        shards_dir.mkdir(parents=True, exist_ok=True)
        shard = shards_dir / shard_name
        shard.write_text(json.dumps([item.to_dict() for item in items], sort_keys=True))
        pull = self.pull_results_command(host, store)
        for command in (
            self.push_shard_command(host, shard, shard_name),
            self.worker_command(host, shard_name, worker_id),
            pull,
        ):
            proc = self.run_command(command)
            if command is pull and proc.returncode == RSYNC_VANISHED:
                continue
            if proc.returncode != 0:
                failures.append(worker_id)
                progress(
                    f"[fleet] {worker_id}: `{' '.join(command)}` exited "
                    f"{proc.returncode}: {(proc.stderr or '').strip()[:200]}"
                )
                return  # leave the claims; the straggler pass releases them
        for item in items:
            if point_landed(store, item.config_hash):
                manifest.complete(item, worker_id)

    def run_round(self, manifest: Manifest, store: ResultsStore,
                  progress: Callable[[str], None]) -> RoundOutcome:
        outcome = RoundOutcome()
        assignments = self._claim_assignments(manifest)
        threads = []
        for worker_id, (host, items) in assignments.items():
            if not items:
                continue
            outcome.workers.append(worker_id)
            thread = threading.Thread(
                target=self._run_shard,
                args=(manifest, store, host, worker_id, items, progress,
                      outcome.failures),
                name=f"fleet-{worker_id}",
            )
            thread.start()
            threads.append(thread)
        progress(
            f"[fleet] ssh round: {len(threads)} shards over "
            f"{len(self.spec.hosts)} hosts"
        )
        for thread in threads:
            thread.join()
        return outcome


def make_backend(spec: FleetSpec, *, run_command: CommandRunner | None = None) -> WorkerBackend:
    """The backend named by the spec."""
    if spec.backend == "local":
        return LocalBackend(spec)
    return SshBackend(spec, run_command=run_command)
