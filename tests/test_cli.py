"""CLI surface: schemas, exit codes, determinism, golden files."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from anticip.cli import _Command, main
from anticip.sampling import parse_distribution

GOLDEN = Path(__file__).parent / "golden"
_SRC_ENV = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"}


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


class TestModel:
    def test_const_periodic_p4(self, tmp_path):
        out = tmp_path / "model.csv"
        res = run_cli("model", "--kind", "const-periodic", "--period", "4",
                      "--y", "1", "--out", str(out))
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,tilde_n,re_alpha,im_alpha,p_n,closed_form_p_n,abs_err"
        assert len(lines) == 5
        pn = sorted(float(l.split(",")[4]) for l in lines[1:])
        assert pn[0] == pytest.approx(0.073223, abs=1e-6)
        assert pn[-1] == pytest.approx(0.426777, abs=1e-6)

    def test_degenerate_spec_exits_2(self):
        res = run_cli("model", "--kind", "alt-periodic", "--period", "5", "--y", "1")
        assert res.exit_code == 2
        assert "orthogonal evolution" in res.output

    def test_const_continuous_first_row(self):
        res = run_cli("model", "--kind", "const-continuous", "--y", "1",
                      "--n-max", "3", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["config"]["command"] == "model"
        first = data["results"][0]
        assert first["n"] == 1
        assert first["p_n"] == pytest.approx(0.405285, abs=1e-6)

    def test_missing_size_exits_2(self):
        res = run_cli("model", "--kind", "alt-continuous", "--y", "1")
        assert res.exit_code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, period, n_min", [
        ("const-periodic", 4, 10**6), ("const-periodic", 4, 10**12),
        ("const-periodic", 4, 2**53 + 1), ("const-periodic", 4, 10**20),
        ("alt-periodic", 8, 10**12),
    ])
    def test_periodic_closed_form_holds_at_any_n(self, kind, period, n_min):
        # one period from n_min reproduces rows 1..p exactly: an unreduced float
        # phase pi*(n-1/2)/p loses digits as n grows (abs_err 1.5e-10 at 10^6)
        # and cannot be cast past int64
        args = ("model", "--kind", kind, "--period", str(period), "--y", "1", "--format", "json")
        base = {r["n"]: r for r in json.loads(run_cli(*args).output)["results"]}
        res = run_cli(*args, "--n-min", str(n_min), "--n-max", str(n_min + period - 1))
        assert res.exit_code == 0, res.output
        for row in json.loads(res.output)["results"]:
            ref = base[(row["n"] - 1) % period + 1]
            assert (row["p_n"], row["closed_form_p_n"]) == (ref["p_n"], ref["closed_form_p_n"])


class TestSample:
    def test_json_schema_and_pairing(self):
        res = run_cli("sample", "--period", "64", "--trials", "2000", "--seed", "42",
                      "--n", "1,32", "--N", "0,16", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert set(data) == {"config", "results"}
        assert data["config"]["seed"] == 42
        stats = {(r["statistic"], r["index"]) for r in data["results"]}
        assert ("p_tot", None) in stats
        assert ("p_n", 1.0) in stats and ("p_N", 16.0) in stats
        tot = next(r for r in data["results"] if r["statistic"] == "p_tot")
        assert tot["pred_mean"] == pytest.approx(1 / 3)
        assert abs(tot["z_mean"]) <= 5

    def test_byte_identical_repeats(self):
        args = ("sample", "--period", "32", "--trials", "1500", "--seed", "9",
                "--n", "1", "--N", "0,8", "--r", "1", "--format", "json")
        a, b = run_cli(*args), run_cli(*args)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    def test_threads_do_not_change_output(self):
        base = ("sample", "--period", "32", "--trials", "2000", "--seed", "5",
                "--n", "1,16", "--epsilon", "0.2")
        a = run_cli(*base, "--threads", "1")
        b = run_cli(*base, "--threads", "4")
        assert a.output == b.output
        assert "near_zero_chi_square" in a.output

    def test_two_point_variance_pairing(self):
        res = run_cli("sample", "--period", "16", "--dist", "two-point:1",
                      "--trials", "3000", "--seed", "2", "--n", "1", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        row = next(r for r in data["results"] if r["statistic"] == "p_n")
        assert row["pred_var"] is not None
        assert abs(row["z_var"]) <= 5

    def test_near_zero_rows(self):
        res = run_cli("sample", "--period", "100", "--trials", "2000", "--seed", "3",
                      "--epsilon", "0.1", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        stats = [r["statistic"] for r in data["results"]]
        assert "near_zero_count" in stats and "near_zero_chi_square" in stats
        row = next(r for r in data["results"] if r["statistic"] == "near_zero_count")
        assert row["pred_mean"] == pytest.approx(10.0)

    def test_near_zero_json_key_order(self):
        res = run_cli("sample", "--period", "16", "--trials", "300", "--n", "1",
                      "--epsilon", "0.2", "--format", "json")
        keys = ["mode", "size", "trials", "seed", "note", "statistic", "index", "mean",
                "variance", "std_error", "pred_mean", "z_mean", "pred_var", "z_var"]
        rows = json.loads(res.output)["results"]
        assert [r["statistic"] for r in rows] == ["p_tot", "p_n", "near_zero_count",
                                                  "near_zero_chi_square"]
        assert [list(r) for r in rows[2:]] == [keys, keys]

    def test_bad_dist_exits_2(self):
        res = run_cli("sample", "--period", "8", "--dist", "gauss")
        assert res.exit_code == 2

    def test_out_of_window_index_exits_2(self):
        res = run_cli("sample", "--period", "8", "--n", "9")
        assert res.exit_code == 2
        res = run_cli("sample", "--period", "8", "--N", "4")
        assert res.exit_code == 2

    def test_bad_thread_env_exits_2(self):
        res = CliRunner(env={"ANTICIP_THREADS": "abc"}).invoke(
            main, ["sample", "--period", "8", "--trials", "10"])
        assert res.exit_code == 2
        assert "ANTICIP_THREADS" in res.output

    @pytest.mark.parametrize("command", [("sample", "--period", "8"), ("sweep", "--periods", "8")])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_exits_2(self, command, threads):
        res = run_cli(*command, "--trials", "10", "--threads", threads)
        assert res.exit_code == 2
        assert "--threads" in res.output

    @pytest.mark.parametrize("command", [("sample", "--period", "8"), ("sweep", "--periods", "8")])
    def test_thread_env_below_one_exits_2(self, command):
        res = CliRunner(env={"ANTICIP_THREADS": "-2"}).invoke(main, [*command, "--trials", "10"])
        assert res.exit_code == 2
        assert "ANTICIP_THREADS must be at least 1" in res.output

    @pytest.mark.parametrize("env", ["0", "2.5"])
    def test_thread_env_is_checked_before_every_command(self, env):
        # a command that runs no engine still refuses a malformed ANTICIP_THREADS
        res = CliRunner(env={"ANTICIP_THREADS": env}).invoke(
            main, ["model", "--kind", "const-periodic", "--period", "4", "--y", "1"])
        assert res.exit_code == 2
        assert "ANTICIP_THREADS" in res.output

    def test_one_trial_has_no_z_score_and_exits_0(self):
        # one trial measures no standard error: the z cells stay empty, and no gate fails
        res = run_cli("sample", "--period", "8", "--trials", "1", "--n", "1")
        assert res.exit_code == 0
        header, *rows = (line.split(",") for line in res.output.splitlines())
        assert len(rows) == 2 and all(row[header.index("trials")] == "1" for row in rows)
        assert all(row[header.index(col)] == "" for row in rows for col in ("z_mean", "z_var"))

    def test_nan_z_score_exits_1(self, monkeypatch):
        monkeypatch.setattr("anticip.sampling.EstimateReport.max_abs_z", lambda self: float("nan"))
        assert run_cli("sample", "--period", "8", "--trials", "100").exit_code == 1
        assert run_cli("sweep", "--periods", "8,16", "--trials", "100").exit_code == 1

    def test_epsilon_draws_each_trial_once(self, monkeypatch):
        from anticip.sampling import SamplingDistribution

        rows = []
        original = SamplingDistribution.sample

        def counting(self, rng, shape, out=None):
            out = original(self, rng, shape, out=out)
            rows.append(out.shape[0] if out.ndim == 2 else 1)
            return out

        monkeypatch.setattr(SamplingDistribution, "sample", counting)
        res = run_cli("sample", "--period", "64", "--trials", "1000", "--epsilon", "0.1")
        assert res.exit_code == 0
        assert sum(rows) == 1000

    def test_near_zero_z_score_is_gated(self, monkeypatch):
        # a wrong q moves only the near-zero predictions; their z-scores fail the gate
        monkeypatch.setattr("anticip.sampling.SamplingDistribution.mass_within",
                            lambda self, eps: 0.5)
        res = run_cli("sample", "--period", "64", "--trials", "1000", "--epsilon", "0.1")
        assert res.exit_code == 1

    def test_non_finite_table_law_exits_2(self, tmp_path):
        table = tmp_path / "law.json"
        table.write_text('{"points": [0.0, 1.0], "masses": [NaN, 0.5]}')
        res = run_cli("sample", "--period", "8", "--trials", "100",
                      "--dist", f"table:{table}")
        assert res.exit_code == 2
        assert "finite" in res.output

    @pytest.mark.parametrize("text", ['[1, 2]', '{"points": {"a": 1}, "masses": [1]}'],
                             ids=["list", "points-object"])
    def test_table_law_that_is_not_an_object_of_lists_exits_2(self, tmp_path, text):
        table = tmp_path / "law.json"
        table.write_text(text)
        res = run_cli("sample", "--period", "8", "--trials", "100",
                      "--dist", f"table:{table}")
        assert res.exit_code == 2
        assert "JSON object with lists 'points' and 'masses'" in res.output

    @pytest.mark.parametrize("points, masses, nonzero_odd", [
        ([-0.9, -0.2, 0.2, 0.9], [0.25] * 4, 0),  # mirrored: m1 = m3 = 0 exactly
        ([-0.5022385584334831, 0.5022385584334831], [0.5, 0.5], 0),
        ([-0.9, 0.2, 0.9], [0.25, 0.5, 0.25], 2),  # m1 = 0.1: not symmetric
    ])
    def test_table_law_declared_symmetric(self, tmp_path, points, masses, nonzero_odd):
        # symmetry is read from the atoms: a "symmetric" key, true or not a boolean at
        # all, prints the bytes of the same file without it
        plain, declared = tmp_path / "plain.json", tmp_path / "declared.json"
        plain.write_text(json.dumps({"points": points, "masses": masses}))
        moments = parse_distribution(f"table:{plain}").moments
        assert (moments.m1 != 0.0) + (moments.m3 != 0.0) == nonzero_odd
        args = ("sample", "--period", "8", "--trials", "300", "--n", "1", "--N", "2")
        res = run_cli(*args, "--dist", f"table:{plain}")
        assert res.exit_code == 0
        for flag in (True, False, "no", None, [True]):
            declared.write_text(json.dumps({"points": points, "masses": masses, "symmetric": flag}))
            again = run_cli(*args, "--dist", f"table:{declared}")
            assert (again.exit_code, again.output) == (0, res.output)

    @pytest.mark.parametrize("points, masses, key", [
        ([False, True], [0.5, 0.5], "points"), ([0.0, 1.0], ["0.5", "0.5"], "masses"),
        ([0.0, "1"], [0.5, 0.5], "points"), ([0.0, 1.0], [0.5, None], "masses"),
        ([0.0, 1.0], [True, 0], "masses")])
    def test_table_law_entries_must_be_json_numbers(self, tmp_path, points, masses, key):
        # numpy converts booleans and numeric strings to floats: [false, true] ran as the law on (0, 1)
        table = tmp_path / "law.json"
        table.write_text(json.dumps({"points": points, "masses": masses}))
        res = run_cli("sample", "--period", "8", "--trials", "300", "--dist", f"table:{table}")
        assert res.exit_code == 2
        assert f"every entry of '{key}' must be a JSON number" in res.output

    @pytest.mark.parametrize("args", [
        ("sample", "--cells", "8", "--n", "100000000000000000000"),
        ("sample", "--cells", "8", "--N", "100000000000000000000"),
        ("sample", "--cells", "8", "--n", "-4611686018427387904"),
        ("model", "--kind", "alt-continuous", "--cells", "6", "--y", "1",
         "--n-min", "9223372036854775806", "--n-max", "9223372036854775807"),
        ("model", "--kind", "alt-continuous", "--cells", "6", "--y", "1",
         "--n-min", "-4611686018427387904", "--n-max", "0"),
        # 2^53 + 1 and 2^53 are one float: they once printed as one row, and exited 0
        ("sample", "--cells", "8", "--trials", "300", "--n", "9007199254740993,9007199254740992"),
        ("sample", "--cells", "8", "--trials", "300", "--n", "-9007199254740993"),
    ])
    def test_line_indices_past_2_to_62_exit_2(self, args):
        # `sample` keys its rows by float index, exact to 2^53; `model` prints n as an exact int
        res = run_cli(*args)
        assert res.exit_code == 2
        if args[0] == "model":
            assert "< 2^62" in res.output
        else:
            assert f"line index {args[-1].split(',')[0]} outside |n| <= 2^53" in res.output

    def test_epsilon_needs_periodic_mode(self):
        res = run_cli("sample", "--cells", "8", "--epsilon", "0.1")
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [
        ("--cells", "16", "--trials", "10", "--N", "1000000"),
        ("--cells", "8", "--trials", "300", "--N", "200000"),
        ("--cells", "8", "--trials", "10", "--N", "8388608"),
    ])
    def test_line_runs_past_the_old_gib_guard(self, args):
        # a line run reads the period-M half bins, at most ceil(M/2) of them whatever
        # N is, so these runs, once refused for a phase matrix over 1 GiB, now run
        res = run_cli("sample", *args, "--format", "json")
        assert res.exit_code == 0
        [row] = [r for r in json.loads(res.output)["results"] if r["statistic"] == "p_N"]
        assert row["index"] == float(args[-1]) and 0.0 < row["mean"] < 1e-4

    def test_line_memory_is_bounded_at_any_cut_off(self):
        # 10^7 indices folded onto 4 half bins: O(M + block) memory. A small Python
        # starts the run and reads its peak RSS by wait4: a child's peak counts the
        # pages of the process it was spawned from, here this test process
        spawn = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL);"
                 " _, status, usage = os.wait4(p.pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
        proc = subprocess.run([sys.executable, "-c", spawn, sys.executable, "-m", "anticip", "sample", "--cells", "8",
                               "--trials", "10", "--N", "10000000"], capture_output=True, text=True, env=_SRC_ENV)
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 0
        assert peak_kb < 100 * 1024  # under 100 MB

    def test_line_under_a_gib_of_phase_matrix_runs(self):
        res = run_cli("sample", "--cells", "8", "--trials", "10", "--N", "1000000", "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.output)["config"]["mode"] == "continuous"

    @pytest.mark.parametrize("args", [
        ("--cells", "64", "--trials", "20000", "--n", "1,67", "--N", "30", "--seed", "5"),
        ("--cells", "1024", "--trials", "1500", "--seed", "5", "--N", "200"),
    ])
    def test_line_rows_pass_their_exact_z_gate(self, args):
        # p_67 = w_67 p_3 with w_67 = sinc^2(66.5 pi/64) ~ 1.4e-3, p_N at N = 30 and at
        # N = 200: the period-M pairing without the sinc^2 weight missed these rows by
        # about 10^5, 500 and 22 standard errors
        res = run_cli("sample", *args, "--format", "json")
        assert res.exit_code == 0
        rows = [r for r in json.loads(res.output)["results"] if r["statistic"] in ("p_n", "p_N")]
        assert rows and all(r["z_mean"] is not None and abs(r["z_mean"]) <= 5 for r in rows)

    @pytest.mark.parametrize("args, repeated, once", [
        (("--period", "64", "--trials", "3000", "--seed", "2"),
         ("--n", "1,1", "--N", "0,4,4"), ("--n", "1", "--N", "0,4")),
        (("--cells", "8", "--trials", "300", "--seed", "1"),
         ("--n", "1,1", "--N", "2,2"), ("--n", "1", "--N", "2")),
    ])
    def test_repeated_index_prints_its_row_once(self, args, repeated, once):
        # a repeated p_N index once took p_tot - 2*row once per listing, so its row
        # read -0.25 against 0.29 predicted on the period and the command exited 1
        twice, single = run_cli("sample", *args, *repeated), run_cli("sample", *args, *once)
        assert (twice.exit_code, single.exit_code) == (0, 0)
        assert twice.output == single.output

    def test_table_law_from_file(self, tmp_path):
        table = tmp_path / "law.json"
        table.write_text(json.dumps({"points": [0.0, 1.0], "masses": [0.5, 0.5]}))
        res = run_cli("sample", "--period", "16", "--dist", f"table:{table}",
                      "--trials", "1000", "--seed", "1", "--format", "json")
        assert res.exit_code == 0

    def test_continuous_mode(self):
        res = run_cli("sample", "--cells", "32", "--trials", "1000", "--seed", "4",
                      "--N", "4", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["config"]["mode"] == "continuous"


@pytest.mark.parametrize("r", ["nan", "inf", "-inf", "1,nan"])
@pytest.mark.parametrize("command", [
    ("sample", "--period", "8", "--trials", "10"),
    ("sweep", "--periods", "8,16", "--trials", "10"),
])
def test_non_finite_moment_order_exits_2(command, r):
    res = run_cli(*command, "--r", r)
    assert res.exit_code == 2
    assert "moment orders must be finite and nonnegative" in res.output


def _strict_json(text):
    # RFC 8259 JSON: NaN, Infinity and -Infinity are not values
    def reject(constant):
        raise ValueError(f"non-RFC 8259 constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_json_is_strict_and_csv_keeps_its_bytes(monkeypatch):
    # an infinite z score (a degenerate law that misses) is null in JSON, inf in CSV
    monkeypatch.setattr("anticip.sampling.StatRow.z_mean", property(lambda self: math.inf))
    args = ("sample", "--period", "8", "--trials", "10", "--n", "1")
    res, csv = run_cli(*args, "--format", "json"), run_cli(*args)
    assert res.exit_code == csv.exit_code == 1
    rows = _strict_json(res.output)["results"]
    assert [r["z_mean"] for r in rows] == [None] * 2
    assert csv.output.splitlines()[1].split(",")[10] == "inf"
    for command in (("model", "--kind", "const-periodic", "--period", "4", "--y", "1"),
                    ("verify", "--suite", "identities"), ("bound", "--period", "4", "--count", "2"),
                    ("sweep", "--periods", "8", "--trials", "10", "--n", "1")):
        _strict_json(run_cli(*command, "--format", "json").output)


class TestSweep:
    def test_one_row_per_period_and_statistic(self):
        res = run_cli("sweep", "--periods", "8,16", "--trials", "500", "--seed", "1",
                      "--n", "1", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        sizes = sorted({r["size"] for r in data["results"]})
        assert sizes == [8, 16]
        assert len(data["results"]) == 4  # (p_tot, p_n[1]) per period

    def test_json_config_echoes_the_index_lists(self):
        res = run_cli("sweep", "--periods", "8", "--trials", "10", "--n", "1", "--N", "2",
                      "--format", "json")
        config = _strict_json(res.output)["config"]
        assert {key: config[key] for key in ("periods", "n", "N", "r")} == {
            "periods": [8], "n": [1], "N": [2], "r": []}


class TestVerify:
    def test_identities_suite_passes(self):
        res = run_cli("verify", "--suite", "identities", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert all(row["status"] == "PASS" for row in data["results"])

    def test_bounds_suite_passes(self):
        res = run_cli("verify", "--suite", "bounds", "--seed", "1")
        assert res.exit_code == 0
        assert "PASS" in res.output

    def test_statistics_suite_reports_known_failure(self):
        # the tail-concentration criterion sits exactly at its threshold and
        # fails by construction; the command must exit 1 and say which check
        res = run_cli("verify", "--suite", "statistics", "--format", "json")
        assert res.exit_code == 1
        data = json.loads(res.output)
        by_id = {r["criterion"]: r for r in data["results"]}
        assert by_id["C5"]["status"] == "FAIL"
        assert "fraction at p=1024" in by_id["C5"]["detail"]
        assert all(r["status"] == "PASS" for r in data["results"]
                   if r["criterion"] != "C5")


class TestBound:
    def test_bound_rows_and_exit(self):
        res = run_cli("bound", "--period", "4", "--count", "10", "--seed", "1",
                      "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert len(data["results"]) == 11  # evenly-spread + 10 random
        even = data["results"][0]
        assert even["measure"] == "evenly-spread"
        assert even["corollary2_slack"] == pytest.approx(0.0, abs=1e-9)
        assert all(r["status"] == "PASS" for r in data["results"])

    def test_odd_period_fails_only_the_pi_over_2_floor(self):
        # at odd p the evenly spread measure sits (pi/2)/p^2 below the pi/2
        # floor, and a random measure can dip below it too (random-0 here)
        res = run_cli("bound", "--period", "3", "--count", "5", "--seed", "1",
                      "--format", "json")
        assert res.exit_code == 1
        rows = json.loads(res.output)["results"]
        assert [r["status"] for r in rows] == ["FAIL", "FAIL"] + ["PASS"] * 4
        assert [r["measure"] for r in rows[:2]] == ["evenly-spread", "random-0"]
        assert rows[0]["corollary2_slack"] == pytest.approx(-math.pi / 18, abs=1e-12)
        assert -1e-3 < rows[1]["corollary2_slack"] < -1e-9
        for r in rows:
            assert r["passage_slack"] > 0 and r["grid_slack_min"] >= -1e-9

    def test_fewer_measures_print_the_leading_rows(self):
        # each measure's row has the bits it has alone, whatever follows it
        five, ten = (run_cli("bound", "--period", "8", "--count", n, "--seed", "3")
                     for n in ("5", "10"))
        assert five.exit_code == ten.exit_code == 0
        assert five.output.splitlines() == ten.output.splitlines()[:7]  # header + 6 rows

    def test_bad_period_exits_2(self):
        res = run_cli("bound", "--period", "1")
        assert res.exit_code == 2

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_count_below_one_exits_2(self, count):
        res = run_cli("bound", "--period", "4", "--count", count)
        assert res.exit_code == 2
        assert "--count" in res.output


class TestSeedRange:
    TOP = (1 << 64) - 1  # seeds are Philox key words, [0, 2^64), never wrapped

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    @pytest.mark.parametrize("command", [
        ("sample", "--period", "8", "--trials", "10"),
        ("sweep", "--periods", "8", "--trials", "10"),
        ("verify", "--suite", "bounds"),
        ("bound", "--period", "4", "--count", "2"),
    ])
    def test_out_of_range_seed_exits_2(self, command, seed):
        res = run_cli(*command, "--seed", str(seed))
        assert res.exit_code == 2
        assert "--seed" in res.output

    def test_both_ends_of_the_range_run(self):
        rows = {}
        for seed in (0, self.TOP):
            res = run_cli("bound", "--period", "4", "--count", "2", "--seed", str(seed),
                          "--format", "json")
            assert res.exit_code == 0
            rows[seed] = json.loads(res.output)["results"]
            assert rows[seed][0]["seed"] == seed
        assert rows[0][1]["lambda0"] != rows[self.TOP][1]["lambda0"]

    def test_verify_offset_seed_must_stay_in_range(self):
        # C9 (the bounds suite) runs on its base seed 1 plus --seed
        res = run_cli("verify", "--suite", "bounds", "--seed", str(self.TOP - 1))
        assert res.exit_code == 0
        res = run_cli("verify", "--suite", "bounds", "--seed", str(self.TOP))
        assert res.exit_code == 2
        assert "seed of C9" in res.output


class TestGolden:
    def test_model_golden(self, tmp_path):
        out = tmp_path / "model.csv"
        res = run_cli("model", "--kind", "const-periodic", "--period", "4",
                      "--y", "1", "--out", str(out))
        assert res.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "model_const_p4.csv").read_bytes()

    @pytest.mark.parametrize("args, golden", [
        # rows outside 1..p fold by alpha_{n+p} = alpha_n, p_n in Python's complex abs
        (("--kind", "const-periodic", "--period", "7", "--y", "0.3", "--n-min", "-20",
          "--n-max", "30"), "model_const_p7_wrap.csv"),
        (("--kind", "alt-continuous", "--cells", "8", "--y", "1", "--n-min", "-10",
          "--n-max", "40"), "model_alt_c8.csv"),
    ])
    def test_model_window_golden(self, tmp_path, args, golden):
        out = tmp_path / "model.csv"
        res = run_cli("model", *args, "--out", str(out))
        assert res.exit_code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_sample_golden(self, tmp_path):
        out = tmp_path / "sample.json"
        res = run_cli("sample", "--period", "8", "--trials", "512", "--seed", "42",
                      "--n", "1,4", "--N", "0,2", "--r", "1", "--format", "json",
                      "--out", str(out))
        assert res.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "sample_p8_seed42.json").read_bytes()

    def test_blocked_fft_golden(self, tmp_path):
        # 808 trials at p = 4096: three full chunks and a 40-row one, whose FFT
        # runs in row blocks of 32 and 8
        out = tmp_path / "sample.csv"
        res = run_cli("sample", "--period", "4096", "--trials", "808", "--n", "5,2048",
                      "--N", "0,1024", "--r", "1,2", "--seed", "3", "--out", str(out))
        assert res.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "sample_p4096_seed3.csv").read_bytes()

    @pytest.mark.parametrize("args, golden", [
        # the line: n <= 0 and n > M, N past M/2; a moment puts it on the FFT
        (("--cells", "24", "--trials", "1000", "--n", "1,25,67,-5", "--N", "0,3,12,1000",
          "--r", "0,1", "--seed", "5"), "sample_c24_seed5.csv"),
        # an odd period on the FFT: the sign-flipped length-p real transform
        (("--period", "255", "--trials", "600", "--n", "1,128", "--N", "0,100", "--r", "1",
          "--seed", "3"), "sample_p255_seed3.csv"),
    ])
    def test_line_and_odd_period_sample_golden(self, tmp_path, args, golden):
        out = tmp_path / "sample.csv"
        res = run_cli("sample", *args, "--out", str(out))
        assert res.exit_code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("args, golden", [
        # a run of 16 chunks in one stage, then a 1-row chunk: numpy takes a 1-row y @ W
        # and p_n @ w (line p_N, moments) by dot, so these products stay per block
        (("--cells", "24", "--trials", "4097", "--n", "1,-5", "--N", "0,3,12,1000", "--seed", "5"),
         "sample_c24_trials4097_seed5.csv"),
        (("--period", "64", "--trials", "4097", "--n", "1", "--N", "0,4", "--r", "1,2", "--seed", "5"),
         "sample_p64_trials4097_seed5.csv"),
    ])
    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_one_row_last_chunk_golden(self, tmp_path, args, golden, threads):
        out = tmp_path / "sample.csv"
        res = run_cli("sample", *args, "--threads", threads, "--out", str(out))
        assert res.exit_code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_sweep_golden(self, tmp_path):
        # the CSV header of a sweep comes from its rows, as a sample's does
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--periods", "8,9", "--trials", "600", "--seed", "7",
                      "--n", "1", "--N", "0,2", "--r", "1", "--out", str(out))
        assert res.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "sweep_p8_9_seed7.csv").read_bytes()

    def test_verify_golden(self, tmp_path):
        # every criterion's status and worst check; C5 is the one known FAIL, so exit 1
        out = tmp_path / "verify.csv"
        res = run_cli("verify", "--suite", "all", "--seed", "0", "--out", str(out))
        assert res.exit_code == 1
        assert out.read_bytes() == (GOLDEN / "verify_all_seed0.csv").read_bytes()

    def test_bound_golden(self, tmp_path):
        out = tmp_path / "bound.csv"
        res = run_cli("bound", "--period", "8", "--count", "20", "--seed", "1",
                      "--out", str(out))
        assert res.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "bound_p8_seed1.csv").read_bytes()

    def test_bound_row_blocks_golden(self, tmp_path):
        # p = 256: chirp-z rows of 4,096 points put the 11 measures in blocks of two,
        # the last one alone
        out = tmp_path / "bound.csv"
        res = run_cli("bound", "--period", "256", "--count", "10", "--seed", "4",
                      "--out", str(out))
        assert res.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "bound_p256_seed4.csv").read_bytes()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak address space from /proc")
@pytest.mark.parametrize("command", [("sample", "--trials", "20", "--n", "1", "--threads", "1"), ("bound", "--count", "1")])
def test_out_of_memory_exits_2_naming_the_size(command):
    # a run that cannot allocate its buffers is neither a failed check (exit 1) nor a
    # traceback. The address-space limit is measured, not guessed: the peak of the same
    # command at p = 4,096 plus 64 MiB, which runs it, while p = 4,194,304 needs 512 MiB
    # for the draws of one 16-row block alone
    import resource

    probe = ("import sys\nfrom anticip.cli import main\ntry:\n    main(sys.argv[1:])\nfinally:\n"
             "    print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmPeak')), file=sys.stderr)")

    def run(period, limit=None):
        proc = subprocess.run([sys.executable, "-c", probe, command[0], "--period", str(period), *command[1:]],
                              capture_output=True, text=True, env=_SRC_ENV | {"OPENBLAS_NUM_THREADS": "1"},
                              preexec_fn=limit and (lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))))
        return proc.returncode, proc.stderr.splitlines()

    code, err = run(4096)
    assert code == 0, err
    limit = int(err[-1]) * 1024 + (64 << 20)
    assert run(4096, limit)[0] == 0
    code, err = run(4194304, limit)
    assert (code, err[:-1]) == (2, [f"Error: {command[0]} --period 4194304: out of memory"])


def test_every_command_exits_2_when_out_of_memory():
    # each subcommand is a _Command, which turns a MemoryError into one line and exit 2
    assert sorted(main.commands) == ["bound", "model", "sample", "sweep", "verify"]
    assert all(isinstance(command, _Command) for command in main.commands.values())


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "anticip", "model", "--kind", "const-periodic",
         "--period", "2", "--y", "1"],
        capture_output=True, text=True, env=_SRC_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,tilde_n,")


def test_pool_and_json_encoder_load_only_in_runs_that_use_them():
    # a run on one thread, or of one run, starts no pool, and a CSV run encodes no JSON:
    # a fresh process lists which of the two modules it loaded after each command
    probe = ("import sys\nfrom anticip.cli import main\ntry:\n    if sys.argv[1:]:\n        main(sys.argv[1:])\n"
             "finally:\n    print(*sorted({'json', 'concurrent.futures'} & set(sys.modules)), file=sys.stderr)")

    def run(*args):
        proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True, env=_SRC_ENV)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr.splitlines()[-1], proc.stdout

    assert run()[0] == ""  # `import anticip.cli`
    sample = ("sample", "--period", "64", "--trials", "600", "--n", "1")  # 3 chunks: 2 runs on 2 threads
    loaded, one_thread = run(*sample, "--threads", "1")
    assert loaded == ""
    assert run(*sample, "--threads", "1", "--format", "json")[0] == "json"
    assert run(*sample, "--threads", "2") == ("concurrent.futures", one_thread)
