"""The run's verdict when commands fail, on a tiny 3-day workload."""

import pytest

import run
from chpdispatch import cli


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    tiny = run.Workload("summer", 3, 100, 20, 0)
    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny)
    run.METER.start()
    yield run.Bench("tiny", 1, False)
    run.METER.stop()


def failing(command, monkeypatch):
    main = cli.main

    def fake(argv):
        return 1 if argv[0] == command else main(argv)

    monkeypatch.setattr(cli, "main", fake)


def test_clean_run_is_checked(bench):
    metrics = bench.run(0.0)
    assert bench.failures == [] and bench.errors == []
    assert metrics["hypervolume"] > 0.0


@pytest.mark.parametrize("command", ["train", "tvsa"])
def test_failed_command_leaves_nothing_checked(bench, monkeypatch, command):
    failing(command, monkeypatch)
    bench.run(0.0)
    assert bench.failures and all(r == 0 for r, _ in bench.failures)
    assert any("no output was checked" in e for e in bench.errors)
