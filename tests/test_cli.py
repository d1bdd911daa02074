"""Exercises each subcommand through cli.main with captured output."""

import errno
import hashlib
import json
import os
from dataclasses import replace

import pytest

from taskmotion.cli import main
from taskmotion.dsl import parse, serialize
from taskmotion.scenarios import gen_hanoi


def test_run_hanoi_solo_exits_zero(capsys):
    code = main(["run", "hanoi", "--omnipotent"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status:   goal_achieved" in out
    assert "moves:    7" in out
    assert "Right attempts" in out
    assert "Motion Planner (base)" in out


def test_run_scenario_flag_form(capsys):
    code = main(["run", "--scenario", "hanoi", "--disks", "3",
                 "--omnipotent", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "moves:    7" in out


def test_scenario_flag_and_positional_conflict(capsys):
    code = main(["run", "habitat", "--scenario", "hanoi"])
    err = capsys.readouterr().err
    assert code == 1
    assert "both" in err


def test_missing_scenario_is_usage_error(capsys):
    code = main(["run", "--seed", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert "no scenario" in err


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.jsonl"
    code = main(["run", "hanoi", "--omnipotent",
                 "--out", str(metrics_path), "--trace", str(trace_path)])
    assert code == 0
    events = [json.loads(line)
              for line in trace_path.read_text().splitlines()]
    assert events[0]["event"] == "expand"
    assert events[-1]["event"] == "result"
    metrics = json.loads(metrics_path.read_text())
    assert metrics["table"]["rows"][0]["d"] == 7


def test_run_dot_exports_one_file_per_graph(tmp_path, capsys):
    code = main(["run", "--scenario", "habitat", "--seed", "7",
                 "--dot", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    depth = int(next(line for line in out.splitlines()
                     if line.startswith("depth:")).split()[-1])
    files = sorted(tmp_path.glob("graph_*.dot"))
    assert len(files) == depth
    for path in files:
        assert path.read_text().startswith("digraph")


def test_run_dot_replaces_the_graph_files_of_an_earlier_run(tmp_path, capsys):
    assert main(["run", "habitat", "--dot", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("graph_*.dot"))) == 28
    (tmp_path / "graph_notes.dot").write_text("kept")
    assert main(["run", "hanoi", "--omnipotent", "--dot", str(tmp_path)]) == 0
    assert "wrote 7 graph files" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [f"graph_{i:03d}.dot" for i in range(1, 8)] + ["graph_notes.dot"])


# command: (number of DOT files, sha256 over each file's name, a newline
# and its text, by file name).
PINNED_DOT = {
    "dot habitat": (3, "d5837a41123bfa75466c6f941f8e62bdca5bc5daa80101fd4eda6aad975805eb"),
    "dot hanoi --disks 4": (
        1, "2fe87601cf92f591d426077ba80b3e9b9a2aaefc1b261f89eec8f1b302b61743"),
    "run habitat": (28, "0b71b2dbf5825e321382c86cb98ca0b45206854985ceb950dda8485b8d7632d0"),
    "run hanoi --disks 3": (
        9, "8a9438683af673095b252fb70abee53c0e03b1b1216f6f3c9c83d472dbb8484e"),
}


@pytest.mark.parametrize("command", PINNED_DOT)
def test_dot_files_match_the_pinned_digests(command, tmp_path, capsys):
    main([*command.split(), "--dot", str(tmp_path)])
    digest = hashlib.sha256()
    files = sorted(tmp_path.glob("*.dot"))
    for path in files:
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert (len(files), digest.hexdigest()) == PINNED_DOT[command]


def test_run_depth_capped_exits_two(capsys):
    code = main(["run", "hanoi", "--omnipotent", "--depth-cap", "2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "depth_limit" in out


def test_run_prints_the_rule_that_ended_it_under_its_status(capsys):
    """An unsolved run prints the `detail` of its metrics; a solved one
    has none to print."""
    code = main(["run", "hanoi", "--depth-cap", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    status = lines.index("status:   depth_limit")
    assert lines[status + 1] == "detail:   depth cap: network depth 2 is at its cap 2"
    assert main(["run", "hanoi", "--omnipotent"]) == 0
    assert "detail:" not in capsys.readouterr().out


def test_run_with_an_agent_outside_the_grid_exits_two(tmp_path, capsys):
    scenario = gen_hanoi(3, omnipotent=True)
    arm = scenario.agents["arm_solo"]
    scenario.agents["arm_solo"] = replace(arm, anchor=(arm.anchor[0], scenario.bounds[3] + 0.1))
    path = tmp_path / "outside.scn"
    path.write_text(serialize(scenario))
    code = main(["run", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "status:   unsolvable" in out


@pytest.mark.parametrize("flag, value", [("--depth-cap", "0"), ("--retries", "-1")])
def test_run_rejects_an_out_of_range_budget(flag, value, capsys):
    code = main(["run", "hanoi", "--omnipotent", flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert f"argument {flag}: must be at least" in err


def test_validate_habitat(capsys):
    code = main(["validate", "habitat"])
    out = capsys.readouterr().out
    assert code == 0
    assert "habitat: ok" in out
    assert "26 actions" in out


def test_gen_output_parses_back(tmp_path, capsys):
    path = tmp_path / "hanoi4.scn"
    code = main(["gen", "hanoi", "--disks", "4", "--out", str(path)])
    assert code == 0
    assert parse(path.read_text()) == gen_hanoi(4)


def test_gen_rejects_bad_disk_count(capsys):
    code = main(["gen", "hanoi", "--disks", "12"])
    err = capsys.readouterr().err
    assert code == 1
    assert "disk count" in err


def test_parse_error_is_single_located_diagnostic(tmp_path, capsys):
    bad = tmp_path / "broken.scn"
    bad.write_text("scenario broken\nbounds -1 -1 1 oops\n")
    code = main(["run", str(bad)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith(f"{bad}:2:")


def test_validate_bad_file_positional(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario x\nnonsense line here\n")
    code = main(["validate", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"{bad}:2:")


def test_unknown_subcommand_exits_one(capsys):
    code = main(["frobnicate"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_reports_cleanly(capsys):
    code = main(["run", "/no/such/file.scn"])
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command, target, failing, code", [
    ("run hanoi --omnipotent --dot", "a_file", "a_file", errno.EEXIST),
    ("dot habitat --dot", "a_file", "a_file", errno.EEXIST),
    ("dot habitat --dot", "a_dir", "a_dir/main.dot", errno.EISDIR),
    ("gen hanoi --out", "a_dir", "a_dir", errno.EISDIR),
    ("run hanoi --omnipotent --out", "a_dir", "a_dir", errno.EISDIR),
    ("run hanoi --omnipotent --trace", "no_dir/trace.jsonl", "no_dir/trace.jsonl",
     errno.ENOENT),
])
def test_an_output_that_cannot_be_written_is_one_error_line(command, target, failing, code,
                                                            tmp_path, capsys):
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_dir" / "main.dot").mkdir(parents=True)
    assert main([*command.split(), str(tmp_path / target)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {tmp_path / failing}: {os.strerror(code)}\n"


def test_dot_renders_main_graph(capsys):
    code = main(["dot", "hanoi", "--disks", "3", "--omnipotent"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out


def test_dot_directory_writes_stage_graphs(tmp_path, capsys):
    code = main(["dot", "habitat", "--dot", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "main.dot").read_text().startswith("digraph")
    stage_files = [p for p in tmp_path.glob("*.dot") if p.name != "main.dot"]
    assert stage_files
    for path in stage_files:
        assert path.read_text().startswith("digraph")
