import csv
import io
import json

import pytest

from rwre import (
    DirectedGraph,
    PreconditionError,
    WeightAssignment,
    build_torus,
    LatticeSpec,
    read_environment,
    write_graph,
)
from rwre.cli import RECORD_COLUMNS, RECORD_EXPERIMENTS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("sample-env", "annealed-prob", "cycle-check", "reverse-check",
                 "cylinder-delta", "cylinder-exit", "transience", "trap-check",
                 "velocity", "ruin", "grid"):
        assert name in out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["trap-check", "--alpha", "0.1,0.1", "--bogus"])
    assert exc.value.code == 2


def test_balanced_drift_rejected(capsys):
    code, out, err = run_cli(capsys, "cylinder-exit", "--alpha", "1,1,1,1",
                             "--replicas", "100")
    assert code == 2
    assert "alpha_1 > beta_1" in err


_D1_TORUS = "a d=1 cylinder has no transverse torus; N must be 1, got 3"
_DRIFT = "requires alpha_1 > beta_1 (got alpha_1=1.0, beta_1=2.0)"


@pytest.mark.parametrize("argv, message", [
    *[([command, "--alpha", "2,1", "--replicas", "0"], "at least one replica required")
      for command in RECORD_EXPERIMENTS],
    (["grid", "cylinder-exit", "--alpha", "2,1", "--replicas", "0"],
     "at least one replica required"),
    (["cylinder-delta", "--alpha", "2,1", "--N", "3", "--L", "2"], _D1_TORUS),
    (["cylinder-exit", "--alpha", "2,1", "--N", "3", "--L", "2"], _D1_TORUS),
    (["cylinder-delta", "--alpha", "1,2"], _DRIFT),
    (["cylinder-exit", "--alpha", "1,2"], _DRIFT),
    (["transience", "--alpha", "1,2"], _DRIFT),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_precondition_exits_two_with_one_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_malformed_alpha_rejected(capsys):
    code, out, err = run_cli(capsys, "trap-check", "--alpha", "2,x")
    assert code == 2 and "error:" in err
    code, out, err = run_cli(capsys, "trap-check", "--alpha", "2,1,1")
    assert code == 2
    code, out, err = run_cli(capsys, "trap-check", "--alpha", "2,-1")
    assert code == 2


@pytest.mark.parametrize("weights", [
    (float("nan"), 1.0, 1.0, 1.0),
    (2.0, float("inf")),
    (2.0, 1.0, -float("inf"), 1.0),
    (2.0, 0.0),
    (2.0, 1.0, 1.0),
])
def test_non_positive_non_finite_or_odd_weights_rejected(capsys, weights):
    with pytest.raises(PreconditionError):
        LatticeSpec(weights)
    code, out, err = run_cli(capsys, "trap-check", "--alpha", ",".join(map(repr, weights)))
    assert code == 2 and out == "" and "error:" in err


def test_dimension_check(capsys):
    code, out, err = run_cli(capsys, "trap-check", "--alpha", "0.1,0.1", "--d", "2")
    assert code == 2 and "axes" in err


def test_trap_check_payload(capsys):
    code, out, err = run_cli(capsys, "trap-check", "--alpha",
                             "0.1,0.1,0.1,0.1", "--axis", "1")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["holds", "slack"]
    assert payload["holds"] is True
    assert payload["slack"] == pytest.approx(0.4, abs=1e-12)


def test_annealed_prob_exact_only(capsys):
    code, out, err = run_cli(capsys, "annealed-prob", "--alpha", "2,1",
                             "--torus", "3", "--path", "0,1,0,1")
    assert code == 0
    rec = json.loads(out)
    assert rec["exact"] == pytest.approx(1 / 6, rel=1e-13)
    assert rec["estimate"] is None and rec["se"] is None and rec["z"] is None


def test_annealed_prob_with_monte_carlo(capsys):
    code, out, err = run_cli(capsys, "annealed-prob", "--alpha", "2,1",
                             "--torus", "3", "--path", "0,1,0,1",
                             "--replicas", "4000", "--seed", "5")
    rec = json.loads(out)
    assert rec["se"] > 0
    assert abs(rec["z"]) < 5
    assert abs(rec["estimate"] - rec["exact"]) <= 5 * rec["se"]


def test_annealed_prob_step_literal(capsys):
    code, out, err = run_cli(capsys, "annealed-prob", "--alpha", "2,1",
                             "--torus", "3", "--path", "+1,-1,+1",
                             "--origin", "0")
    rec = json.loads(out)
    assert rec["exact"] == pytest.approx(1 / 6, rel=1e-13)


def test_cycle_check_payload(capsys):
    code, out, err = run_cli(capsys, "cycle-check", "--alpha", "2,1",
                             "--torus", "3", "--path", "0,1,0")
    assert code == 0
    rec = json.loads(out)
    assert rec["forward"] == pytest.approx(2 / 9, rel=1e-13)
    assert rec["backward"] == pytest.approx(2 / 9, rel=1e-13)
    assert rec["ok"] is True


def test_reverse_check_text_report(capsys):
    code, out, err = run_cli(capsys, "reverse-check", "--alpha", "2,1",
                             "--torus", "3", "--k", "2",
                             "--replicas", "500", "--seed", "11")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2 + 4 + 1
    assert all(line.startswith("path ") for line in lines[:-1])
    assert "policy" in lines[-1]


def test_reverse_check_json_report(capsys):
    code, out, err = run_cli(capsys, "reverse-check", "--alpha", "2,1",
                             "--torus", "3", "--k", "2", "--replicas", "500",
                             "--seed", "11", "--format", "json")
    rec = json.loads(out)
    assert len(rec["paths"]) == 6
    assert rec["policy_ok"] in (True, False)
    assert rec["allowed_outliers"] == 1


def test_reverse_check_passes_at_large_weights(capsys):
    # weights 1e9 need the exact formula at full relative accuracy: a
    # log-Gamma difference there is off by ~1e-5 and fails the policy
    code, out, err = run_cli(capsys, "reverse-check", "--alpha", "1e9,1e9",
                             "--torus", "4", "--k", "3", "--replicas", "1000",
                             "--seed", "12345")
    assert code == 0
    assert out.strip().split("\n")[-1].endswith("policy pass")


def test_reverse_check_passes_in_the_trap_regime(capsys):
    # the reversal identity holds at every positive weight; at these the
    # stationary masses reach 1e-152
    for weight in ("0.1", "0.03", "0.01"):
        code, out, err = run_cli(capsys, "reverse-check", "--alpha", ",".join([weight] * 4),
                                 "--torus", "3,3", "--k", "2", "--replicas", "16384",
                                 "--seed", "11")
        assert code == 0, err
        assert out.strip().split("\n")[-1].endswith("policy pass"), weight


def test_reverse_check_nan_rows_exit_two(capsys):
    # at weight 0.003 some sampled rows are NaN (every Gamma draw underflowed)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        code, out, err = run_cli(capsys, "reverse-check", "--alpha", "0.003,0.003,0.003,0.003",
                                 "--torus", "3,3", "--k", "2", "--replicas", "2000",
                                 "--seed", "13")
    assert code == 2
    assert err.startswith("error: stationary solve") and "NaN row" in err
    assert out == ""


def test_annealed_prob_nan_estimate_exits_two(capsys):
    # a NaN Monte Carlo estimate must not be written as a record (its z would
    # read 0.0, and bare NaN is not JSON)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        code, out, err = run_cli(capsys, "annealed-prob", "--alpha", "0.003,0.003",
                                 "--torus", "50", "--path", "0,1,2,3,4,5,6,7,8,9,10",
                                 "--replicas", "20000", "--seed", "3")
    assert code == 2
    assert err.startswith("error: Monte Carlo estimate is NaN")
    assert "departed vertices [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]" in err
    assert out == ""


def test_sample_env_nan_rows_exit_two(capsys):
    # at weight 0.003 every Gamma draw of a row can underflow to 0, and the
    # row normalises to NaN (0/0, which numpy warns about)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        code, out, err = run_cli(capsys, "sample-env", "--alpha", "0.003,0.003",
                                 "--torus", "50", "--seed", "1")
    assert code == 2
    assert "rows do not sum to 1 at vertices [49]" in err
    assert "nan" not in out


def test_cylinder_delta_json_record(capsys):
    code, out, err = run_cli(capsys, "cylinder-delta", "--alpha", "2,1,1,1",
                             "--N", "2", "--L", "2", "--replicas", "500",
                             "--steps", "5000", "--seed", "7")
    assert code == 0
    rec = json.loads(out)
    assert list(rec.keys()) == RECORD_COLUMNS
    assert rec["experiment"] == "cylinder-delta"
    assert rec["seed"] == 7
    assert rec["wall_time_s"] is None
    assert abs(rec["estimate"] - 0.5) <= 5 * rec["se"]


def test_timing_flag_populates_wall_time(capsys):
    code, out, err = run_cli(capsys, "cylinder-delta", "--alpha", "2,1,1,1",
                             "--N", "1", "--L", "1", "--replicas", "200",
                             "--steps", "2000", "--seed", "7", "--timing")
    rec = json.loads(out)
    assert isinstance(rec["wall_time_s"], float) and rec["wall_time_s"] > 0


def test_csv_format_and_column_order(capsys):
    code, out, err = run_cli(capsys, "transience", "--alpha", "2,1",
                             "--L", "1,2", "--replicas", "300",
                             "--steps", "5000", "--seed", "13",
                             "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == RECORD_COLUMNS
    assert len(rows) == 3
    params = [json.loads(r[1]) for r in rows[1:]]
    assert [p["L"] for p in params] == [1, 2]
    assert rows[1][8] == ""  # wall_time_s blank without --timing


def test_velocity_multiple_horizons(capsys):
    code, out, err = run_cli(capsys, "velocity", "--alpha", "3,1",
                             "--horizons", "50,100", "--replicas", "50",
                             "--seed", "17")
    recs = json.loads(out)
    assert [r["params"]["horizon"] for r in recs] == [50, 100]
    assert all(r["experiment"] == "velocity" for r in recs)


def test_ruin_record(capsys):
    code, out, err = run_cli(capsys, "ruin", "--alpha", "2,1", "--L", "2",
                             "--replicas", "2000", "--seed", "19")
    rec = json.loads(out)
    assert rec["experiment"] == "ruin-oracle"
    assert 0.0 < rec["estimate"] < 1.0


def test_grid_rows_and_per_point_seeds(capsys):
    code, out, err = run_cli(capsys, "grid", "cylinder-delta", "--alpha",
                             "2,1,1,1", "--N", "1,2", "--L", "1,2",
                             "--replicas", "200", "--steps", "2000",
                             "--seed", "9")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == RECORD_COLUMNS
    assert len(rows) == 5
    params = [json.loads(r[1]) for r in rows[1:]]
    assert [(p["N"], p["L"]) for p in params] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert [int(r[7]) for r in rows[1:]] == [9 ^ 0, 9 ^ 1, 9 ^ 2, 9 ^ 3]


@pytest.mark.parametrize("experiment,sweep", [
    ("cylinder-delta", ["--N", "1,2", "--L", "1,3"]),
    ("cylinder-exit", ["--N", "2,1", "--L", "2,1"]),
    ("transience", ["--L", "3,1,2"]),
])
def test_grid_row_is_the_subcommands_record(capsys, experiment, sweep):
    flags = ["--alpha", "2,1,1,1", "--replicas", "300", "--steps", "2000"]
    code, out, err = run_cli(capsys, "grid", experiment, *sweep, *flags, "--seed", "41")
    assert code == 0
    header, *rows = out.splitlines()
    ns = sweep[1].split(",") if experiment != "transience" else [None]
    points = [(n, l) for n in ns for l in sweep[-1].split(",")]
    assert len(rows) == len(points) > 1
    for i, (n, l) in enumerate(points):
        size = ["--L", l] if n is None else ["--N", n, "--L", l]
        code, out, err = run_cli(capsys, experiment, *size, *flags,
                                 "--seed", str(41 ^ i), "--format", "csv")
        assert code == 0
        assert out.splitlines() == [header, rows[i]]


@pytest.mark.parametrize("argv", [
    ["transience", "--alpha", "2,1", "--L", "3,x"],
    ["velocity", "--alpha", "2,1", "--horizons", "1.5"],
    ["grid", "cylinder-delta", "--alpha", "2,1", "--N", "1;2"],
    ["grid", "transience", "--alpha", "2,1", "--L", "4,four"],
    ["sample-env", "--alpha", "2,1", "--torus", "3,y"],
    ["annealed-prob", "--alpha", "2,1", "--torus", "3.0", "--path", "0,1"],
])
def test_malformed_integer_list_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "malformed integer list" in capsys.readouterr().err


def test_grid_empty_sweep_header_only(capsys):
    code, out, err = run_cli(capsys, "grid", "cylinder-delta", "--alpha",
                             "2,1,1,1", "--N", "1", "--L", "",
                             "--replicas", "200")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [RECORD_COLUMNS]


def test_grid_transience_ignores_n(capsys):
    code, out, err = run_cli(capsys, "grid", "transience", "--alpha", "2,1",
                             "--N", "1,2,3", "--L", "1,2", "--replicas", "200",
                             "--steps", "5000", "--seed", "21")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3


def test_grid_rejects_unknown_experiment(capsys):
    code, out, err = run_cli(capsys, "grid", "velocity", "--alpha", "2,1")
    assert code == 2 and "grid supports" in err


@pytest.mark.parametrize("argv", [
    ["cylinder-delta", "--N", "2", "--L", "4"],
    ["transience", "--L", "10,30"],
    ["grid", "cylinder-exit", "--N", "1,2", "--L", "2,8"],
])
def test_truncation_past_two_percent_warns_once_on_stderr(capsys, argv):
    flags = ["--alpha", "2,1,1,1", "--replicas", "500", "--steps", "20", "--seed", "3",
             "--format", "csv"]
    code, out, err = run_cli(capsys, *argv, *flags)
    assert code == 0
    records = list(csv.DictReader(io.StringIO(out)))
    worst = max(records, key=lambda r: int(r["truncated"]))
    assert int(worst["truncated"]) > 0.02 * 500
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    assert f"{worst['truncated']} of 500 replicas" in lines[0]
    assert "--steps 20" in lines[0]
    if argv[0] == "grid":
        # N and L both vary over the sweep, so the warning names both
        point = json.loads(worst["params"])
        assert f" records: N={point['N']}, L={point['L']});" in lines[0]
    # stdout holds the records alone
    assert "warning" not in out and len(out.splitlines()) == len(records) + 1


def test_transience_warning_names_the_most_undecided_record(capsys):
    # both records share the 86 truncated walks, but only the L=30 record
    # leaves 86 undecided (at L=10 most capped walks had already decided)
    argv = ["transience", "--alpha", "2,1,1,1", "--L", "10,30", "--replicas", "200",
            "--seed", "3"]
    code, out, err = run_cli(capsys, *argv, "--steps", "100")
    assert code == 0
    r10, r30 = json.loads(out)
    assert (r10["truncated"], r10["undecided"]) == (86, 7)
    assert (r30["truncated"], r30["undecided"]) == (86, 86)
    assert err == ("warning: 86 of 200 replicas hit the step cap --steps 100 and 86 are "
                   "undecided (worst of 2 records: L=30); the estimate may be biased, raise --steps\n")
    code, _, err = run_cli(capsys, *argv, "--steps", "100000")
    assert code == 0 and err == ""



def test_warning_names_a_lone_record_past_the_threshold(capsys):
    # of the two grid points only L=8 leaves more than 2% undecided
    code, out, err = run_cli(capsys, "grid", "cylinder-exit", "--alpha", "2,1,1,1",
                             "--N", "2", "--L", "2,8", "--replicas", "500", "--steps", "20",
                             "--seed", "3")
    assert code == 0
    assert [int(r["undecided"]) for r in csv.DictReader(io.StringIO(out))][1] == 221
    assert err == ("warning: 221 of 500 replicas hit the step cap --steps 20 and 221 are "
                   "undecided (record L=8); the estimate may be biased, raise --steps\n")


def test_ruin_runs_one_replica(capsys):
    code, out, err = run_cli(capsys, "ruin", "--alpha", "2,1", "--replicas", "1")
    rec = json.loads(out)
    assert code == 0 and err == ""
    assert rec["replicas"] == 1 and rec["se"] == 0.0 and 0.0 < rec["estimate"] < 1.0

def test_cached_parser_carries_no_state_between_calls(capsys):
    argv = ["transience", "--alpha", "2,1,1,1", "--L", "3,5", "--replicas", "50",
            "--steps", "1000", "--seed", "8"]
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and csv_out.startswith(",".join(RECORD_COLUMNS) + "\n")
    code, json_out, _ = run_cli(capsys, *argv)
    assert code == 0 and [r["params"]["L"] for r in json.loads(json_out)] == [3, 5]
    # a precondition error (exit 2 from main) and a usage error (exit 2 from
    # argparse) leave nothing behind for the next call
    code, out, err = run_cli(capsys, *argv, "--replicas", "0")
    assert code == 2 and out == "" and err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "xml"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, again, err = run_cli(capsys, *argv)
    assert code == 0 and again == json_out and err == ""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("sample-env", "annealed-prob", "cycle-check", "reverse-check",
                 "cylinder-delta", "cylinder-exit", "transience", "trap-check",
                 "velocity", "ruin", "grid"):
        assert name in out


def test_benchmark_grid_settings_print_no_warning(capsys):
    code, out, err = run_cli(capsys, "grid", "cylinder-delta", "--alpha", "2,1,1,1",
                             "--N", "1,2,4", "--L", "1,2,4", "--format", "csv",
                             "--replicas", "16384", "--steps", "5000", "--seed", "1")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 10


def test_seed_resolution_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("RWRE_SEED", "777")
    code, out_env, err = run_cli(capsys, "cylinder-delta", "--alpha", "2,1,1,1",
                                 "--N", "1", "--L", "1", "--replicas", "200",
                                 "--steps", "2000")
    assert json.loads(out_env)["seed"] == 777
    monkeypatch.delenv("RWRE_SEED")
    code, out_flag, err = run_cli(capsys, "cylinder-delta", "--alpha", "2,1,1,1",
                                  "--N", "1", "--L", "1", "--replicas", "200",
                                  "--steps", "2000", "--seed", "777")
    assert out_flag == out_env
    # an explicit flag beats the environment variable
    monkeypatch.setenv("RWRE_SEED", "1")
    code, out_both, err = run_cli(capsys, "cylinder-delta", "--alpha", "2,1,1,1",
                                  "--N", "1", "--L", "1", "--replicas", "200",
                                  "--steps", "2000", "--seed", "777")
    assert out_both == out_env


def test_seed_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("RWRE_SEED", "notanumber")
    code, out, err = run_cli(capsys, "cylinder-delta", "--alpha", "2,1,1,1",
                             "--replicas", "100")
    assert code == 2 and "RWRE_SEED" in err


def test_sample_env_round_trip(capsys, tmp_path):
    out_file = tmp_path / "env.txt"
    code, out, err = run_cli(capsys, "sample-env", "--alpha", "2,1",
                             "--torus", "4", "--seed", "23",
                             "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# seed 23\n")
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [4])
    with open(out_file) as fh:
        env = read_environment(g, fh)
    env.validate()


def test_graph_file_source(capsys, tmp_path):
    g = DirectedGraph(2, [(0, 1), (0, 0), (1, 0)])
    w = WeightAssignment([2.0, 1.0, 1.0], g)
    path = tmp_path / "graph.txt"
    with open(path, "w") as fh:
        write_graph(g, w, fh)
    code, out, err = run_cli(capsys, "annealed-prob", "--graph-file", str(path),
                             "--path", "0,1")
    rec = json.loads(out)
    assert rec["exact"] == pytest.approx(2 / 3, rel=1e-13)
    assert rec["params"]["graph_file"] == str(path)


def test_graph_file_missing(capsys):
    code, out, err = run_cli(capsys, "annealed-prob", "--graph-file",
                             "/nonexistent/graph.txt", "--path", "0,1")
    assert code == 2


@pytest.mark.parametrize("line", ["edge 0 0 x 1", "edge 0 0 7 1", "edge 3 0 1 1"])
def test_graph_file_bad_line_exits_two(capsys, tmp_path, line):
    path = tmp_path / "graph.txt"
    path.write_text(f"vertices 2\nedge 1 1 0 1\n{line}\n")
    code, out, err = run_cli(capsys, "annealed-prob", "--graph-file", str(path),
                             "--path", "0,1")
    assert code == 2
    assert err.startswith("error: line 3:")


@pytest.mark.parametrize("argv", [
    ["transience", "--alpha", "2,1", "--steps", "0"],
    ["transience", "--alpha", "2,1", "--steps", "-5"],
    ["cylinder-delta", "--alpha", "2,1", "--steps", "0"],
    ["ruin", "--alpha", "2,1", "--workers", "0"],
    ["velocity", "--alpha", "2,1", "--workers", "-1"],
])
def test_nonpositive_steps_or_workers_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{argv[-2]}: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cylinder-delta", "--alpha", "2,1", "--format", "text"],
    ["cylinder-exit", "--alpha", "2,1", "--format", "text"],
    ["transience", "--alpha", "2,1", "--format", "text"],
    ["velocity", "--alpha", "2,1", "--format", "text"],
    ["ruin", "--alpha", "2,1", "--format", "text"],
    ["reverse-check", "--alpha", "2,1", "--torus", "3", "--format", "csv"],
    ["grid", "cylinder-delta", "--alpha", "2,1", "--format", "json"],
    ["annealed-prob", "--alpha", "2,1", "--torus", "3", "--path", "0,1", "--format", "csv"],
    ["cycle-check", "--alpha", "2,1", "--torus", "3", "--path", "0,1,0", "--format", "csv"],
    ["sample-env", "--alpha", "2,1", "--torus", "3", "--format", "json"],
    ["sample-env", "--alpha", "2,1", "--torus", "3", "--format", "csv"],
    ["cycle-check", "--alpha", "2,1", "--torus", "3", "--path", "0,1,0", "--seed", "1"],
    ["cycle-check", "--alpha", "2,1", "--torus", "3", "--path", "0,1,0", "--workers", "2"],
    ["cycle-check", "--alpha", "2,1", "--torus", "3", "--path", "0,1,0", "--timing"],
    ["sample-env", "--alpha", "2,1", "--torus", "3", "--workers", "2"],
    ["sample-env", "--alpha", "2,1", "--torus", "3", "--timing"],
    ["grid", "cylinder-delta", "--alpha", "2,1", "--timing"],
])
def test_format_or_flag_a_subcommand_ignores_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err or "unrecognized arguments" in err


def test_negative_replicas_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["annealed-prob", "--alpha", "2,1", "--torus", "3", "--path", "0,1",
              "--replicas", "-5"])
    assert exc.value.code == 2
    assert "--replicas: must be at least 0" in capsys.readouterr().err


def test_reverse_check_needs_a_path_length(capsys):
    code, out, err = run_cli(capsys, "reverse-check", "--alpha", "2,1", "--torus", "3",
                             "--k", "0", "--replicas", "500")
    assert code == 2
    assert out == ""
    assert "k must be at least 1" in err


@pytest.mark.parametrize("root", ["-1", "4", "7"])
def test_reverse_check_root_out_of_range_exits_two(capsys, root):
    code, out, err = run_cli(capsys, "reverse-check", "--alpha", "2,1,1,1", "--torus", "2,2",
                             f"--root={root}", "--replicas", "200", "--k", "1")
    assert code == 2
    assert out == ""
    assert f"error: root {root} out of range 0..3" in err


def test_missing_graph_source(capsys):
    code, out, err = run_cli(capsys, "annealed-prob", "--path", "0,1")
    assert code == 2 and "need --graph-file" in err


def test_worker_determinism_byte_identical(capsys, tmp_path):
    f1 = tmp_path / "w1.json"
    f4 = tmp_path / "w4.json"
    common = ["cylinder-delta", "--alpha", "2,1,1,1", "--N", "2", "--L", "2",
              "--replicas", "20000", "--steps", "5000", "--seed", "29"]
    assert main(common + ["--workers", "1", "--out", str(f1)]) == 0
    assert main(common + ["--workers", "4", "--out", str(f4)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f4.read_bytes()


def test_velocity_worker_determinism_byte_identical(capsys, tmp_path):
    # 9000 replicas make two chunks, so two workers really split the work
    files = []
    for workers in (1, 2):
        path = tmp_path / f"velocity-w{workers}.json"
        assert main(["velocity", "--alpha", "2,1,1,1", "--horizons", "5,50",
                     "--replicas", "9000", "--seed", "31", "--workers", str(workers),
                     "--out", str(path)]) == 0
        files.append(path.read_bytes())
    capsys.readouterr()
    assert files[0] == files[1]
