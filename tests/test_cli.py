import csv
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import zeroprod.kernels
import zeroprod.verify
from zeroprod.cli import main
from zeroprod.rings import AnnProfile


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProb:
    def test_integer_target(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "12")
        assert code == 0
        assert "5/18" in out
        assert "0.277778" in out
        assert "closed-form" in out

    def test_ring_target(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--ring", "Zn(2)xZn(3)")
        assert code == 0
        assert "5/12" in out
        assert "product" in out

    def test_excluded_ring_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "prob", "1")
        assert code == 2
        assert "excluded" in err

    def test_excluded_ring_via_grammar(self, capsys):
        code, _, _ = run_cli(capsys, "prob", "--ring", "Zn(1)")
        assert code == 2
        code, _, _ = run_cli(capsys, "prob", "--ring", "Zn(1)xZn(3)")
        assert code == 2

    def test_parse_error_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "prob", "--ring", "Zn(4)+Zn(9)")
        assert code == 1
        assert "error" in err

    def test_both_target_forms_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "prob", "12", "--ring", "Zn(4)")
        assert exc.value.code == 1

    def test_paranoid_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "60", "--paranoid")
        assert code == 0
        assert "brute-verified" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "100", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["p"] == "13/250"
        assert data["order"] == 100

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "100", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["ring", "order", "p"]
        assert rows[1][2] == "13/250"

    def test_digits_flag(self, capsys):
        _, out, _ = run_cli(capsys, "prob", "3", "--digits", "3")
        assert "0.556" in out


class TestBounds:
    def test_zn4(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "4")
        assert code == 0
        lines = dict(
            line.split(None, 1) for line in out.strip().splitlines()
        )
        assert lines["lower"] == "1/2"
        assert lines["exact"] == "1/2"
        assert lines["upper"] == "1/2"

    def test_zn8(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "8", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["lower"], data["exact"], data["upper"]) == ("9/32", "5/16", "3/8")
        assert data["all_hold"] is True

    def test_zn7_collapse(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "7", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["lower"] == data["exact"] == data["upper"] == "13/49"

    def test_cap_exceeded_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "70000")
        assert code == 3
        assert "resource limit" in err

    def test_cap_flag_allows_more(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "70000", "--cap", "70000")
        assert code == 0

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("ZEROPROD_CAP", "100")
        code, _, _ = run_cli(capsys, "bounds", "128")
        assert code == 3
        # explicit flag wins over the environment
        code, _, _ = run_cli(capsys, "bounds", "128", "--cap", "1000")
        assert code == 0


class TestScan:
    def test_small_range(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "2", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header, three rows, summary
        assert "3/4" in lines[1] and "5/9" in lines[2] and "1/2" in lines[3]
        assert "min P = 1/2 at n = 4" in lines[-1]
        assert "max P = 3/4 at n = 2" in lines[-1]

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "2", "2")
        assert code == 0
        assert "max P = 3/4 at n = 2" in out

    def test_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "scan", "5", "3")
        assert exc.value.code == 1

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "2", "10", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 9
        assert data["summary"]["all_bounds_hold"] is True
        assert data["rows"][0]["p"] == "3/4"
        assert data["rows"][-1]["factorization"] == "2^1 * 5^1"

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "2", "6", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "n"
        assert [r[0] for r in rows[1:]] == ["2", "3", "4", "5", "6"]
        by_n = {r[0]: r for r in rows[1:]}
        assert by_n["6"][2] == "5/12"

    def test_rows_ascending_and_bounds_hold(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "2", "60", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [int(r[0]) for r in rows] == list(range(2, 61))
        assert all(r[-1] == "true" for r in rows)

    def test_no_enumeration_cap(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "scan", "65535", "65537", "--format", "csv")
        assert code == 0
        assert [r[0] for r in csv.reader(io.StringIO(out))][1:] == ["65535", "65536", "65537"]
        code, out, _ = run_cli(capsys, "scan", "1000000000000", "1000000000003")
        assert code == 0
        assert "scanned 4 rings" in out
        _, default, _ = run_cli(capsys, "scan", "2", "200")
        monkeypatch.setenv("ZEROPROD_CAP", "100")
        assert run_cli(capsys, "scan", "2", "200") == (0, default, "")


    def test_hi_beyond_64_bits_prints_nothing(self, capsys):
        for lo, hi in ((2**128, 2**128 + 1), (2**64 - 1, 2**64)):
            code, out, err = run_cli(capsys, "scan", str(lo), str(hi), "--format", "csv")
            assert (code, out) == (1, "")
            assert "2**64" in err
        code, out, _ = run_cli(capsys, "scan", str(2**64 - 2), str(2**64 - 1), "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 3


class TestVerify:
    def test_pass_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max", "200")
        assert code == 0
        assert "PASS" in out
        assert "199 rings" in out

    def test_single_ring(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max", "2")
        assert code == 0
        assert "1 rings" in out

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--max", "1")
        assert exc.value.code == 1

    def test_max_above_cap_exits_before_any_ring(self, capsys, monkeypatch):
        assert run_cli(capsys, "verify", "--max", "30", "--cap", "30")[0] == 0

        def never(*args):
            raise AssertionError("no ring may be measured")

        monkeypatch.setattr(zeroprod.verify, "ann_profile", never)
        code, out, err = run_cli(capsys, "verify", "--max", "1200", "--cap", "1100")
        assert (code, out) == (3, "")
        assert "1200 exceeds the enumeration cap 1100" in err

    def test_injected_fault_fails_with_named_check(self, capsys, monkeypatch):
        # sabotage the closed form: verification must notice and exit 4
        monkeypatch.setattr(
            zeroprod.verify,
            "p_zn_from_factorization",
            lambda f: Fraction(1, 3),
        )
        code, out, _ = run_cli(capsys, "verify", "--max", "10")
        assert code == 4
        assert "FAIL triple-oracle" in out
        assert "FAIL" in out.splitlines()[-1]

    def test_wrong_derived_k_fails_ann_buckets(self, capsys, monkeypatch):
        derive = zeroprod.verify.ann_profile_from_factorization

        def one_extra_zero_divisor(f):
            profile = derive(f)
            zdiv = {**profile.zdiv, 2: profile.zdiv.get(2, 0) + 1}
            return AnnProfile(profile.zero, zdiv, profile.rest)

        monkeypatch.setattr(
            zeroprod.verify, "ann_profile_from_factorization", one_extra_zero_divisor
        )
        code, out, _ = run_cli(capsys, "verify", "--max", "10")
        assert code == 4
        assert "FAIL ann-buckets n=7: measured k, m = 0, None but derived 1, 2" in out


class TestMonteCarlo:
    def test_deterministic_output(self, capsys):
        code, first, _ = run_cli(
            capsys, "montecarlo", "100", "--samples", "20000", "--seed", "7"
        )
        assert code == 0
        code, second, _ = run_cli(
            capsys, "montecarlo", "100", "--samples", "20000", "--seed", "7"
        )
        assert first == second

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "montecarlo",
            "100",
            "--samples",
            "100000",
            "--format",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["exact"] == "13/250"
        assert data["seed"] == 12345
        assert data["within_3se"] is True

    def test_excluded(self, capsys):
        code, _, _ = run_cli(capsys, "montecarlo", "1")
        assert code == 2


class TestGraph:
    def test_dot_to_stdout_stats_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "graph", "8")
        assert code == 0
        assert out.startswith("graph zero_divisors {")
        assert "4 [selfann=true];" in out
        assert "vertices 3, edges 2" in err

    def test_empty_graph(self, capsys):
        code, out, err = run_cli(capsys, "graph", "5")
        assert code == 0
        assert out == "graph zero_divisors {\n}\n"
        assert "vertices 0, edges 0" in err

    def test_dot_file_stats_stdout(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, out, err = run_cli(capsys, "graph", "6", "--dot", str(target))
        assert code == 0
        assert "vertices 3, edges 2" in out
        text = target.read_text()
        assert "2 -- 3;" in text and "3 -- 4;" in text

    def test_csv_prefix(self, capsys, tmp_path):
        prefix = tmp_path / "zdg"
        code, _, _ = run_cli(capsys, "graph", "8", "--dot", str(tmp_path / "x.dot"), "--csv", str(prefix))
        assert code == 0
        edges = (tmp_path / "zdg.edges.csv").read_text()
        verts = (tmp_path / "zdg.vertices.csv").read_text()
        assert edges.splitlines()[0] == "u,v"
        assert "4,4,true" in verts

    def test_resource_limit(self, capsys):
        code, _, _ = run_cli(capsys, "graph", "100000")
        assert code == 3

    def test_ring_form(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--ring", "Zn(2)xZn(2)")
        assert code == 0
        assert '"(0,1)" -- "(1,0)";' in out


class TestRejectedInputs:
    """Bad inputs exit 1 before anything reaches stdout."""

    def test_cap_flag_below_two(self, capsys):
        for cap in ("-3", "0", "1"):
            code, out, err = run_cli(capsys, "prob", "12", "--cap", cap)
            assert (code, out) == (1, "")
            assert "--cap must be >= 2" in err

    def test_env_cap_below_two_or_not_an_integer(self, capsys, monkeypatch):
        for cap in ("0", "-5", "lots"):
            monkeypatch.setenv("ZEROPROD_CAP", cap)
            code, out, err = run_cli(capsys, "prob", "12")
            assert (code, out) == (1, "")
            assert "ZEROPROD_CAP" in err

    def test_scan_bad_cap_prints_no_header(self, capsys):
        for argv in (
            ("scan", "2", "4", "--cap", "-3"),
            ("scan", "2", "4", "--digits", "-1"),
            ("prob", "12", "--digits", "-1"),
            ("scan", "2", "4", "--jobs", "0"),
            ("verify", "--max", "10", "--jobs", "-2"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 1
            assert capsys.readouterr().out == ""

    def test_montecarlo_samples_beyond_64_bits(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the sampler must not run")

        monkeypatch.setattr(zeroprod.kernels, "mc_zero_pairs_zn", never)
        code, out, err = run_cli(capsys, "montecarlo", "7", "--samples", str(1 << 64))
        assert (code, out) == (1, "")
        assert "samples" in err

    def test_montecarlo_seed_beyond_64_bits(self, capsys):
        code, out, err = run_cli(capsys, "montecarlo", "7", "--seed", str((1 << 64) + 1))
        assert (code, out) == (1, "")
        assert "seed" in err

    def test_graph_unwritable_output_writes_nothing(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        for argv in (
            ("graph", "12", "--csv", str(missing / "x")),
            ("graph", "12", "--dot", str(missing / "g.dot")),
            ("graph", "12", "--dot", str(tmp_path / "g.dot"), "--csv", str(missing / "x")),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert "i/o error" in err


class TestDeterminismAcrossProcesses:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "zeroprod.cli", *args],
            capture_output=True,
            timeout=120,
        )

    def test_scan_bytes_identical_and_jobs_invariant(self):
        one = self._run("scan", "2", "80", "--jobs", "1")
        two = self._run("scan", "2", "80", "--jobs", "2")
        again = self._run("scan", "2", "80", "--jobs", "1")
        assert one.returncode == two.returncode == again.returncode == 0
        assert one.stdout == two.stdout == again.stdout

    def test_verify_jobs_invariant(self):
        one = self._run("verify", "--max", "60", "--jobs", "1")
        two = self._run("verify", "--max", "60", "--jobs", "2")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout


def test_backend_flag(capsys):
    code, out, _ = run_cli(capsys, "--backend")
    assert code == 0
    assert out.strip().startswith("kernel backend:")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
