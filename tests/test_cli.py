"""CLI smoke tests (tiny scales so they stay fast)."""

import os

import pytest

from repro.cli import _parser, _runner, main
from repro.harness.config import ExperimentConfig
from repro.partition.registry import all_partitioners

TINY = ["--scale", "0.03", "--cycles", "10"]

#: Titles each artifact subcommand must print (ablations prints A1-A5).
ARTIFACT_TITLES = {
    "table2": ["Table 2:"],
    "fig4": ["Figure 4:"],
    "fig6": ["Figure 6:"],
    "ablations": ["A1:", "A2:", "A3:", "A4:", "A5:"],
}

#: (flag, argument or None for a switch, config field, parsed value,
#:  environment variable, its value, parsed value)
FLAGS = [
    ("--scale", "0.5", "scale", 0.5, "REPRO_SCALE", "0.25", 0.25),
    ("--cycles", "30", "num_cycles", 30, "REPRO_CYCLES", "120", 120),
    ("--backend", "process", "backend", "process",
     "REPRO_BACKEND", "process", "process"),
    ("--transport", "shm", "transport", "shm",
     "REPRO_TW_TRANSPORT", "shm", "shm"),
    ("--trace", "cli.jsonl", "trace_path", "cli.jsonl",
     "REPRO_TRACE", "env.jsonl", "env.jsonl"),
    ("--live-status", "cli.status", "status_path", "cli.status",
     "REPRO_STATUS", "env.status", "env.status"),
    ("--checkpoint-interval", "75", "checkpoint_interval", 75,
     "REPRO_TW_CKPT", "60", 60),
    ("--max-restarts", "1", "max_restarts", 1, "REPRO_TW_RESTARTS", "2", 2),
    ("--migration-threshold", "3.0", "migration_threshold", 3.0,
     "REPRO_TW_MIGRATE", "2.0", 2.0),
    ("--migration-fraction", "0.2", "migration_fraction", 0.2,
     "REPRO_TW_MIGRATE_FRACTION", "0.1", 0.1),
    ("--metrics", None, "metrics_enabled", True, "REPRO_METRICS", "1", True),
]


def _config(argv):
    return _runner(_parser().parse_args(argv)).config


@pytest.mark.parametrize(
    "flag,value,field,parsed,env_name,env_value,env_parsed", FLAGS,
    ids=[case[0] for case in FLAGS],
)
def test_flag_sets_its_field_and_absent_flag_keeps_env(
    monkeypatch, flag, value, field, parsed, env_name, env_value, env_parsed
):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    # --max-restarts (and REPRO_TW_RESTARTS) only validate with a
    # checkpoint interval; every case runs with one in the environment.
    monkeypatch.setenv("REPRO_TW_CKPT", "50")
    argv = ["table1", flag] + ([] if value is None else [value])
    config = _config(argv)
    assert getattr(config, field) == parsed
    # The flag sets its field and nothing else.
    assert config == ExperimentConfig.from_env(**{field: parsed})
    monkeypatch.setenv(env_name, env_value)
    assert getattr(_config(["table1"]), field) == env_parsed


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1", *TINY]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "s15850" in out

    def test_run_reports_speedup(self, capsys):
        assert main([
            "run", *TINY, "--circuit", "s9234",
            "--algorithm", "Multilevel", "--nodes", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup over sequential" in out
        assert "Multilevel x4" in out

    def test_partition_lists_all_algorithms(self, capsys):
        assert main(["partition", *TINY, "--circuit", "s5378", "--k", "4"]) == 0
        out = capsys.readouterr().out
        for name in ("Random", "Multilevel", "ConePartition"):
            assert name in out

    def test_partition_all_lists_every_partitioner(self, capsys):
        assert main(["partition", "--circuit", "s27", "--k", "2", "--all"]) == 0
        out = capsys.readouterr().out
        for name in all_partitioners():
            assert f"{name} " in out

    def test_fig5(self, capsys):
        assert main(["fig5", *TINY]) == 0
        assert "Figure 5" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(ARTIFACT_TITLES))
    def test_artifact_commands(self, capsys, command):
        assert main([command, *TINY]) == 0
        out = capsys.readouterr().out
        for title in ARTIFACT_TITLES[command]:
            assert title in out

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_rejects_unknown_circuit(self):
        with pytest.raises(SystemExit):
            main(["run", "--circuit", "s404"])
