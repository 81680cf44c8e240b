import csv
import json
import math
import subprocess
import sys
import time

import pytest

from appowers import cli, theorem
from appowers.cli import main
from appowers.errors import InternalInvariantError
from appowers.theorem import CSV_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCount:
    def test_rudin_shape_cell(self, capsys):
        env = run_json(capsys, "count", "--k", "2", "--a", "-23",
                       "--q", "24", "--N", "5")
        assert env["command"] == "count"
        assert env["result"] == {"count_t": 6, "count_values": 3}
        assert env["params"]["a"] == -23

    def test_trivial_progression(self, capsys):
        env = run_json(capsys, "count", "--k", "2", "--a", "0",
                       "--q", "1", "--N", "100")
        assert env["result"]["count_values"] == 10

    def test_poly(self, capsys):
        env = run_json(capsys, "count", "--poly", "1,0,2", "--a", "1",
                       "--q", "2", "--N", "50")
        assert env["result"]["count_t"] == 14

    def test_poly_large_n(self, capsys):
        env = run_json(capsys, "count", "--poly", "1,0,2", "--a", "1",
                       "--q", "2", "--N", "10000000")
        assert env["result"] == {"count_t": 6324, "count_values": 3162}

    def test_solutions(self, capsys):
        env = run_json(capsys, "count", "--k", "2", "--a", "-23",
                       "--q", "24", "--N", "5", "--solutions")
        assert env["result"]["solutions"] == [[-7, 3], [-5, 2], [-1, 1],
                                              [1, 1], [5, 2], [7, 3]]

    @pytest.mark.parametrize("argv", [
        ("count", "--k", "2", "--a", "1", "--q", "0", "--N", "5"),
        ("count", "--k", "2", "--a", "1", "--q", "2", "--N", "0"),
        ("count", "--poly", "1,x", "--a", "1", "--q", "2", "--N", "5"),
        ("count", "--k", "1e3", "--a", "1", "--q", "2", "--N", "5"),
        ("count", "--a", "1", "--q", "2", "--N", "5"),  # neither --k nor --poly
        # --algorithm picks a t**k algorithm, so it refuses any other P
        ("count", "--poly", "1,0,2", "--a", "1", "--q", "2", "--N", "50",
         "--algorithm", "residue"),
        # the root bound of 2t^2 + 1 - (2e7 + 1) is 4474 > --t-cap
        ("count", "--poly", "1,0,2", "--a", "1", "--q", "2", "--N", "10000000",
         "--t-cap", "1000"),
    ])
    def test_input_errors_exit_1(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 1

    @pytest.mark.parametrize("argv,want", [
        # 2^31 | q, and a prime q over 10^7: roots in polylog time
        (("--k", "2", "--a", "1", "--q", "2147483648", "--N", "1000000000000"),
         172),
        (("--k", "2", "--a", "5", "--q", "10000019", "--N", "1000000000000"),
         1266),
        # the hang probe: auto strides, and q | t**2 needs q | t, too large
        (("--k", "2", "--a", "0", "--q", "1000000000000000000000000000057",
          "--N", "100000000000000000000"), 0),
    ])
    def test_large_prime_powers_answered_at_once(self, capsys, argv, want):
        start = time.perf_counter()
        env = run_json(capsys, "count", *argv)
        assert time.perf_counter() - start < 1.0
        assert env["result"]["count_t"] == want

    @pytest.mark.parametrize("argv,message", [
        # a walk of 1e25 values of t
        (("--k", "2", "--a", "0", "--q", "1000000000000000000000000000057",
          "--N", "100000000000000000000", "--algorithm", "interval"),
         "exceeds budget"),
        # a walk of 4.6e10 values of t
        (("--k", "2", "--a", "1", "--q", "2147483648", "--N", "1000000000000",
          "--algorithm", "interval"), "exceeds budget"),
        # about 6.3e10 solution pairs
        (("--k", "2", "--a", "0", "--q", "1",
          "--N", "1000000000000000000000", "--solutions"), "exceeds cap"),
    ])
    def test_budgets_refuse_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count", *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    def test_unfactorable_step_refused_within_budget(self, capsys):
        # the walk is over its budget (~5e7 t) and q > span**2, so auto
        # factors q, a product of two 50-bit primes, and Brent-rho stops at
        # intkernel.RHO_STEP_BUDGET (under 1 s)
        q = 1125899906854991 * 1125900894496979
        t0 = q // 10 ** 8
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count", "--k", "2", "--a",
                                 str(t0 * t0 - q), "--q", str(q), "--N", "2")
        assert time.perf_counter() - start < 3.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Brent-rho steps" in err

    def test_root_budget_refuses_at_once(self, capsys):
        # 2^21 square roots of 1 mod the product of the first 21 odd primes
        q = math.prod(p for p in range(3, 80)
                      if all(p % d for d in range(2, p)))
        argvs = [("count", "--k", "2", "--a", str(1 - q), "--q", str(q),
                  "--N", str(10 ** 40)),
                 ("roots", "--a", "0", "--k", "2", "--mod", str(2 ** 62))]
        for argv in argvs:
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            assert code == 1 and out == ""
            assert err.startswith("error: ") and "roots exceed budget" in err

    def test_algorithms_match(self, capsys):
        envs = [run_json(capsys, "count", "--k", "3", "--a", "-5", "--q", "7",
                         "--N", "500", "--algorithm", alg)
                for alg in ("interval", "residue", "auto")]
        assert envs[0]["result"] == envs[1]["result"] == envs[2]["result"]


class TestRoots:
    def test_units_mod_24(self, capsys):
        env = run_json(capsys, "roots", "--a", "1", "--k", "2", "--mod", "24")
        assert env["result"] == {"modulus": 24,
                                 "residues": [1, 5, 7, 11, 13, 17, 19, 23]}

    def test_empty(self, capsys):
        env = run_json(capsys, "roots", "--a", "3", "--k", "2", "--mod", "4")
        assert env["result"]["residues"] == []

    def test_cubes_mod_9(self, capsys):
        env = run_json(capsys, "roots", "--a", "1", "--k", "3", "--mod", "9")
        assert env["result"]["residues"] == [1, 4, 7]

    def test_strong_pseudoprime_modulus(self, capsys):
        # 399165290221 * 798330580441 passes Miller-Rabin to the bases 2..37:
        # taken for a prime, it would have two square roots of 1, not four
        p1, p2 = 399165290221, 798330580441
        env = run_json(capsys, "roots", "--a", "1", "--k", "2",
                       "--mod", str(p1 * p2))
        crt = sorted((x1 + p1 * ((x2 - x1) * pow(p1, -1, p2) % p2))
                     for x1 in (1, p1 - 1) for x2 in (1, p2 - 1))
        assert env["result"]["residues"] == crt
        assert len(crt) == 4

    def test_bad_modulus_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "roots", "--a", "1", "--k", "2",
                             "--mod", "0")
        assert code == 1


class TestVerify:
    def test_zero_violations(self, capsys):
        env = run_json(capsys, "verify", "--k-set", "2", "--q-max", "40",
                       "--N-set", "100")
        assert env["result"]["violations"] == 0
        assert env["result"]["cells"] == sum(2 * q + 1 for q in range(1, 41))

    def test_linear_trivial(self, capsys):
        env = run_json(capsys, "verify", "--k-set", "1", "--q-max", "50",
                       "--N-set", "10")
        assert env["result"]["violations"] == 0

    def test_csv_file(self, capsys, tmp_path):
        path = tmp_path / "cells.csv"
        env = run_json(capsys, "verify", "--k-set", "2,3", "--q-max", "6",
                       "--N-set", "10,100,1000", "--csv", str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == ["k", "q", "a", "N", "count_t", "count_values",
                          "bound", "ratio_num", "ratio_den"]
        assert len(body) == env["result"]["cells"] == \
            2 * 3 * sum(2 * q + 1 for q in range(1, 7))

    def test_csv_format_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k-set", "2", "--q-max", "3",
                               "--N-set", "10", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0][0] == "k" and len(rows) == 1 + sum(2 * q + 1
                                                          for q in range(1, 4))

    def test_N_past_float_range(self, capsys):
        env = run_json(capsys, "verify", "--k-set", "1,2,3", "--q-max", "2",
                       "--N-set", str(10 ** 400))
        r = env["result"]
        assert r["violations"] == 0 and r["cells"] == 3 * (3 + 5)
        num, den = r["max_ratio"]
        assert math.isclose(r["max_ratio_float"], num / den, rel_tol=1e-9)
        num, den = r["max_value_ratio"]
        assert math.isclose(r["max_value_ratio_float"], num / den, rel_tol=1e-9)

    def test_unwritable_csv_exit_1(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", "--k-set", "2", "--q-max",
                                 "3", "--N-set", "10", "--csv",
                                 str(tmp_path / "missing" / "cells.csv"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unwritable_csv_fails_before_sweep(self, capsys, monkeypatch,
                                               tmp_path):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the CSV path was opened")

        monkeypatch.setattr(cli, "verify_bound_sweep", sweep)
        code, out, err = run_cli(capsys, "verify", "--k-set", "2", "--q-max",
                                 "3", "--N-set", "10", "--csv",
                                 str(tmp_path / "missing" / "cells.csv"))
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_failed_sweep_leaves_csv_without_rows(self, capsys, monkeypatch,
                                                  tmp_path):
        def sweep(*args, **kwargs):
            raise InternalInvariantError("injected")

        path = tmp_path / "cells.csv"
        path.write_text("stale\n")
        monkeypatch.setattr(cli, "verify_bound_sweep", sweep)
        code, out, _ = run_cli(capsys, "verify", "--k-set", "2", "--q-max",
                               "3", "--N-set", "10", "--csv", str(path))
        assert code == 2 and out == ""
        assert path.read_text() in ("", ",".join(CSV_COLUMNS) + "\r\n")

    def test_empty_grid_exit_1(self, capsys):
        # an empty grid, and one over the cell budget, refused before any cell
        for q_max in ("0", "1000000000"):
            start = time.perf_counter()
            code, out, _ = run_cli(capsys, "verify", "--k-set", "2",
                                   "--q-max", q_max, "--N-set", "10")
            assert time.perf_counter() - start < 1.0
            assert code == 1 and out == ""

    @pytest.mark.parametrize("k_set,N_set,name", [
        ("0,2", "10", "k_set"), ("-1", "10", "k_set"),
        ("2", "0,10", "N_set"), ("2,3", "-5", "N_set"),
    ])
    def test_nonpositive_k_or_N_exit_1_before_any_cell(
            self, capsys, monkeypatch, k_set, N_set, name):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(theorem, "count_powers_in_ap", no_cell)
        code, out, err = run_cli(capsys, "verify", "--k-set", k_set,
                                 "--q-max", "3", "--N-set", N_set)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {name} entries must be >= 1")


class TestWitness:
    def test_example(self, capsys):
        env = run_json(capsys, "witness", "--k", "2", "--a", "-23", "--q", "24",
                       "--N", "5", "--t", "5", "--t0", "1")
        r = env["result"]
        assert (r["q1"], r["q2"], r["n1"], r["n2"]) == (4, 6, 1, 1)
        assert all(r["checks"].values())

    def test_equal_t_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "witness", "--k", "2", "--a", "-23",
                             "--q", "24", "--N", "5", "--t", "5", "--t0", "5")
        assert code == 1

    def test_outside_progression_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "witness", "--k", "2", "--a", "-23",
                             "--q", "24", "--N", "5", "--t", "4", "--t0", "1")
        assert code == 1


class TestSearch:
    def test_rudin_million(self, capsys):
        env = run_json(capsys, "search", "rudin", "--N", "1000000")
        assert env["result"]["count_values"] == 1633

    def test_rudin_one(self, capsys):
        env = run_json(capsys, "search", "rudin", "--N", "1")
        assert env["result"]["count_values"] == 1

    def test_extremal(self, capsys):
        env = run_json(capsys, "search", "extremal", "--k", "2", "--N", "5",
                       "--q-max", "30")
        assert env["result"]["best_count_values"] >= 3

    def test_budget_exit_1_no_partial_output(self, capsys):
        for argv in (("--N", "5", "--q-max", "100000", "--budget", "100"),
                     ("--N", "10", "--q-max", "1000000000000")):
            code, out, _ = run_cli(capsys, "search", "extremal", "--k", "2",
                                   *argv)
            assert code == 1 and out == ""


class TestFormatsAndDeterminism:
    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--k", "2", "--a", "0",
                               "--q", "1", "--N", "100", "--format", "text")
        assert code == 0
        assert "result.count_values = 10" in out.splitlines()

    def test_csv_scalar_format(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--a", "1", "--k", "2",
                               "--mod", "8", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 2 and "result.modulus" in rows[0]

    def test_subprocess_matches_in_process(self, capsys):
        argv = ["verify", "--k-set", "2", "--q-max", "20", "--N-set", "10,100"]
        proc = subprocess.run([sys.executable, "-m", "appowers.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        envs = [json.loads(proc.stdout)] + [run_json(capsys, *argv)
                                            for _ in range(2)]
        outs = set()
        for env in envs:
            del env["elapsed_ms"]
            outs.add(json.dumps(env, sort_keys=True))
        assert len(outs) == 1

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "appowers.cli", "count", "--k", "2",
             "--a", "-23", "--q", "24", "--N", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["count_t"] == 6
