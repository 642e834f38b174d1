"""Worker backends: env discipline, ssh command construction, and the
ssh dispatch protocol driven through an injected (network-free) runner."""

from __future__ import annotations

import json
import subprocess
import threading
from fnmatch import fnmatch
from pathlib import Path

from repro.fleet.backends import SshBackend, point_landed, worker_env
from repro.fleet.manifest import Manifest, WorkItem
from repro.fleet.spec import FleetHost, FleetSpec
from repro.fleet.worker import run_item
from repro.sim.sweep import ResultsStore

from tests.fleet.helpers import tiny_items


class TestWorkerEnv:
    def test_no_nested_pools(self):
        """Every fleet worker runs with an explicit workers=1: the fleet
        owns the fan-out (the oversubscription fix)."""
        assert worker_env()["REPRO_BENCH_WORKERS"] == "1"

    def test_repro_is_importable(self):
        env = worker_env()
        assert any(Path(p, "repro").is_dir() for p in env["PYTHONPATH"].split(":"))


class TestPointLanded:
    def test_missing_torn_and_mismatched(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.points_dir.mkdir(parents=True)
        assert not point_landed(store, "abc")
        (store.points_dir / "abc.json").write_text('{"config_hash": "ab')
        assert not point_landed(store, "abc")
        (store.points_dir / "abc.json").write_text(json.dumps({"config_hash": "xyz"}))
        assert not point_landed(store, "abc")
        (store.points_dir / "abc.json").write_text(json.dumps({"config_hash": "abc"}))
        assert point_landed(store, "abc")


def ssh_spec(remote_path: Path, workers: int = 2) -> FleetSpec:
    return FleetSpec(
        backend="ssh",
        hosts=(FleetHost(host="node1", workers=workers, remote_path=str(remote_path)),),
        retry_timeout_s=0.0,
        max_attempts=3,
    )


class TestSshCommands:
    def test_command_construction(self, tmp_path):
        spec = ssh_spec(Path("~/repro"))
        backend = SshBackend(spec)
        host = spec.hosts[0]
        store = ResultsStore(tmp_path / "results")
        push = backend.push_shard_command(host, tmp_path / "s.json", "s.json")
        assert push[0] == "rsync" and push[-1] == "node1:~/repro/s.json"
        worker = backend.worker_command(host, "s.json", "node1-0-0")
        assert worker[:2] == ["ssh", "node1"]
        assert "REPRO_BENCH_WORKERS=1" in worker[2]
        assert "--shard s.json" in worker[2]
        pull = backend.pull_results_command(host, store)
        assert pull[1] == "-az" and "--exclude=*.tmp" in pull
        assert pull[-2].startswith("node1:")


class FakeSshRunner:
    """Executes the ssh backend's command plan locally: ``rsync`` copies
    become file copies, the remote worker invocation runs the shard
    in-process against the 'remote' checkout directory.

    Like rsync, a pull honours ``--exclude=PATTERN``, writes each file
    to a temporary name and renames it into place (so a concurrent
    reader never sees a torn file), and exits 24 when a source file
    vanishes mid-transfer."""

    def __init__(self, remote_path: Path, *, fail_worker_rounds: int = 0) -> None:
        self.remote_path = remote_path
        self.fail_worker_rounds = fail_worker_rounds
        self.commands: list[list[str]] = []

    def __call__(self, command: list[str], **kwargs) -> subprocess.CompletedProcess:
        self.commands.append(command)
        ok = subprocess.CompletedProcess(command, 0, stdout="", stderr="")
        if command[0] == "rsync":
            source, dest = command[-2], command[-1]
            excludes = [arg.partition("=")[2] for arg in command if arg.startswith("--exclude=")]
            if dest.startswith("node1:"):  # push: shard file to the host
                target = Path(dest.partition(":")[2])
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(Path(source).read_bytes())
            else:  # pull: remote points back into the local store
                remote_points = Path(source.partition(":")[2])
                local_points = Path(dest)
                local_points.mkdir(parents=True, exist_ok=True)
                vanished = False
                if remote_points.is_dir():
                    for path in remote_points.iterdir():
                        if any(fnmatch(path.name, pattern) for pattern in excludes):
                            continue
                        try:
                            data = path.read_bytes()
                        except FileNotFoundError:
                            vanished = True
                            continue
                        staging = local_points / f".{path.name}.{threading.get_ident()}"
                        staging.write_bytes(data)
                        staging.replace(local_points / path.name)
                if vanished:
                    return subprocess.CompletedProcess(command, 24, stdout="", stderr="vanished")
            return ok
        # The ssh worker invocation: run the shard against remote_path.
        if self.fail_worker_rounds > 0:
            self.fail_worker_rounds -= 1
            return subprocess.CompletedProcess(command, 137, stdout="", stderr="killed")
        remote = command[2]
        shard_name = remote.split("--shard ")[1].split(" ")[0]
        shard = self.remote_path / shard_name
        store = ResultsStore(self.remote_path / "results")
        for raw in json.loads(shard.read_text()):
            run_item(WorkItem.from_dict(raw), store)
        return ok


class TestSshDispatch:
    def test_round_trip_lands_and_completes_everything(self, tmp_path):
        items = tiny_items(3)
        manifest = Manifest.create(tmp_path / "fleet", items)
        store = ResultsStore(tmp_path / "results")
        store.points_dir.mkdir(parents=True)
        remote = tmp_path / "remote"
        spec = ssh_spec(remote, workers=2)
        backend = SshBackend(spec, run_command=FakeSshRunner(remote))
        outcome = backend.run_round(manifest, store, lambda line: None)
        assert outcome.failures == []
        assert manifest.pending() == []
        assert sorted(manifest.completions()) == sorted(i.config_hash for i in items)
        for item in items:
            assert point_landed(store, item.config_hash)

    def test_dead_worker_leaves_claims_for_the_straggler_pass(self, tmp_path):
        """A host that dies mid-round keeps its claims; the coordinator's
        release pass re-queues them and a later round finishes the work."""
        items = tiny_items(2)
        manifest = Manifest.create(tmp_path / "fleet", items)
        store = ResultsStore(tmp_path / "results")
        store.points_dir.mkdir(parents=True)
        remote = tmp_path / "remote"
        spec = ssh_spec(remote, workers=1)
        runner = FakeSshRunner(remote, fail_worker_rounds=1)
        backend = SshBackend(spec, run_command=runner)

        outcome = backend.run_round(manifest, store, lambda line: None)
        assert outcome.failures == ["node1-0-0"]
        assert manifest.completions() == {}
        assert len(manifest.claims()) == 2  # left for the straggler pass

        released, exhausted = manifest.release_stale(
            older_than_s=0.0,
            landed=lambda h: point_landed(store, h),
            max_attempts=3,
        )
        assert sorted(released) == sorted(i.config_hash for i in items)
        assert exhausted == []

        outcome = backend.run_round(manifest, store, lambda line: None)
        assert outcome.failures == []
        assert sorted(manifest.completions()) == sorted(i.config_hash for i in items)
        for item in items:
            assert point_landed(store, item.config_hash)
