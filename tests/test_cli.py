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
#:  None or the environment variable that supplies the field's default
#:  as (name, value, parsed value))
FLAGS = [
    ("--scale", "0.5", "scale", 0.5, ("REPRO_SCALE", "0.25", 0.25)),
    ("--cycles", "30", "num_cycles", 30, ("REPRO_CYCLES", "120", 120)),
    ("--backend", "process", "backend", "process", None),
    ("--transport", "shm", "transport", "shm",
     ("REPRO_TW_TRANSPORT", "shm", "shm")),
    ("--trace", "cli.jsonl", "trace_path", "cli.jsonl", None),
    ("--live-status", "cli.status", "status_path", "cli.status", None),
    ("--checkpoint-interval", "75", "checkpoint_interval", 75, None),
    ("--max-restarts", "1", "max_restarts", 1, None),
    ("--migration-threshold", "3.0", "migration_threshold", 3.0, None),
    ("--migration-fraction", "0.2", "migration_fraction", 0.2, None),
    ("--metrics", None, "metrics_enabled", True, None),
]

#: Flags that validate only beside another: flag -> (argv, fields).
NEEDS = {
    "--max-restarts": (
        ["--checkpoint-interval", "50"], {"checkpoint_interval": 50},
    ),
}


def _config(argv):
    return _runner(_parser().parse_args(argv)).config


@pytest.mark.parametrize(
    "flag,value,field,parsed,env", FLAGS, ids=[case[0] for case in FLAGS],
)
def test_flag_sets_its_field_and_absent_flag_keeps_env(
    monkeypatch, flag, value, field, parsed, env
):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    needed_argv, needed_fields = NEEDS.get(flag, ([], {}))
    argv = ["table1", *needed_argv, flag] + ([] if value is None else [value])
    config = _config(argv)
    assert getattr(config, field) == parsed
    # The flag sets its field and nothing else.
    assert config == ExperimentConfig.from_env(
        **needed_fields, **{field: parsed}
    )
    if env is None:
        # An absent flag leaves the field at its default.
        default = getattr(ExperimentConfig(), field)
        assert getattr(_config(["table1"]), field) == default
    else:
        env_name, env_value, env_parsed = env
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
