import csv
import functools
import gc
import io
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import zeroprod.cli
import zeroprod.kernels
import zeroprod.verify
from zeroprod.cli import main
from zeroprod.rings import AnnProfile, Product, Zn, parse_ring


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

    def test_one_factor_ring_is_the_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--ring", "Zn(12)")
        assert code == 0
        assert "closed-form" in out
        assert run_cli(capsys, "prob", "12") == (0, out, "")

    def test_nested_spec_matches_its_flat_form(self):
        nested = Product((Product((Zn(2), Zn(3))), Zn(4)))
        flat = parse_ring("Zn(2)xZn(3)xZn(4)")
        assert str(nested) == str(flat)
        assert zeroprod.cli._closed_prob(nested) == zeroprod.cli._closed_prob(flat)
        assert zeroprod.cli._closed_prob(flat) == (Fraction(5, 12) * Fraction(1, 2), "product")

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


# The CLI in a process that may map at most 1 GiB once it is loaded.
_CAPPED_CLI = (
    "import resource, sys; from zeroprod.cli import main; "
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "sys.exit(main(sys.argv[1:]))"
)


def test_paranoid_product_refuses_lanes_above_the_limit():
    """Thirty Zn(2) fit a cap of 2**30, but the pair count's zero lanes
    would take 8 GB: the command exits 3 before allocating them."""
    ring = "x".join(["Zn(2)"] * 30)
    argv = ["prob", "--ring", ring, "--paranoid", "--cap", str(1 << 30)]
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, *argv], capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout) == (3, ""), done.stderr
    assert done.stderr.startswith("zeroprod: resource limit: ")
    assert "lane-memory limit of 268435456 bytes" in done.stderr


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
        monkeypatch.setattr(zeroprod.verify, "p_zn_ratio", lambda f: (1, 3))
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


# Histograms of Z_12 that no ring of order 12 has, and the failures that
# verify reports for each.  The true count is 40 (P = 5/18).
_CORRUPT_ZN12 = {
    "empty-rest": (
        {12: 1, 2: 11},
        "FAIL triple-oracle n=12: closed=5/18 pillai=5/18 measured=17/72 pairs=5/18",
        "FAIL ann-buckets n=12: rest bucket is {}",
    ),
    "zero-count": (
        {12: 1, 2: 11, 1: 0},
        "FAIL triple-oracle n=12: closed=5/18 pillai=5/18 measured=17/72 pairs=5/18",
        "FAIL ann-buckets n=12: k = 11 > l - 2 = 10",
    ),
    "m-above-half": (
        {12: 1, 8: 1, 1: 10},
        "FAIL triple-oracle n=12: closed=5/18 pillai=5/18 measured=5/24 pairs=5/18",
        "FAIL ann-buckets n=12: m = 8 > l/2",
    ),
    "negative-count": (
        {12: 1, 2: 1, 1: -100},
        "FAIL triple-oracle n=12: closed=5/18 pillai=5/18 measured=-43/72 pairs=5/18",
        "FAIL ann-buckets n=12: rest bucket is {1: -100}",
    ),
}


class TestCorruptedMeasurement:
    """An impossible measured structure is a verification failure (exit 4),
    reported by verify and raised by bounds, never an input error."""

    @pytest.fixture(params=list(_CORRUPT_ZN12))
    def corrupt_zn12(self, request, monkeypatch):
        hist, *fail_lines = _CORRUPT_ZN12[request.param]
        measure = zeroprod.kernels.ann_size_histogram_mixed

        def histogram(mods):
            return dict(hist) if mods == (12,) else measure(mods)

        monkeypatch.setattr(zeroprod.kernels, "ann_size_histogram_mixed", histogram)
        return fail_lines

    def test_verify_reports_every_failure(self, capsys, monkeypatch, corrupt_zn12):
        chain = zeroprod.verify.bound_chain
        chained = []

        def recorded_chain(l, *args):
            chained.append(l)
            return chain(l, *args)

        monkeypatch.setattr(zeroprod.verify, "bound_chain", recorded_chain)
        code, out, err = run_cli(capsys, "verify", "--max", "20")
        assert (code, err) == (4, "")
        assert out.splitlines() == [*corrupt_zn12, "verify [2, 20]: 19 rings, 69 checks: FAIL"]
        assert chained == [n for n in range(2, 21) if n != 12]

    def test_bounds_exits_with_a_verification_failure(self, capsys, corrupt_zn12):
        code, out, err = run_cli(capsys, "bounds", "12")
        assert (code, out) == (4, "")
        assert err.startswith("zeroprod: verification failure: measured k = ")
        assert "for Zn(12)" in err


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("prob", "12"),
            ("bounds", "12"),
            ("scan", "2", "4", "--format", "csv"),
            ("montecarlo", "2", "--samples", "1", "--seed", "0"),  # estimate 1/1
        ],
    )
    def test_digits_upper_bound(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--digits", "4300")
        assert code == 0
        assert re.search(r"(?<![\d.])\d+\.\d{4300}(?![\d.])", out)
        # Beyond the bound is a usage error before any work, however large.
        for digits in ("4301", "99999999999999999999"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--digits", digits])
            assert exc.value.code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--digits: must be <= 4300" in captured.err

    def test_graph_output_path_without_a_file_name(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        for option in ("--csv", "--dot"):
            for path in ("", "d/"):
                with pytest.raises(SystemExit) as exc:
                    main(["graph", "12", option, path])
                assert exc.value.code == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "must end in a file name" in captured.err
                assert [p.name for p in tmp_path.rglob("*")] == ["d"]

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
        dot = tmp_path / "g.dot"
        dot.write_bytes(b"earlier export\n")
        for argv, named in (
            (("graph", "12", "--csv", str(missing / "x")), missing / "x.edges.csv"),
            (("graph", "12", "--dot", str(missing / "g.dot")), missing / "g.dot"),
            (("graph", "12", "--dot", str(dot), "--csv", str(missing / "x")), missing / "x.edges.csv"),
            (("graph", "12", "--csv", str(tmp_path / "x"), "--dot", str(missing / "g.dot")), missing / "g.dot"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert "i/o error" in err
            # the error names the path given, not its hidden temporary file
            assert repr(str(named)) in err and ".tmp" not in err
            # an existing file keeps its bytes and no temporary file is left
            assert dot.read_bytes() == b"earlier export\n"
            assert [p.name for p in tmp_path.iterdir()] == ["g.dot"]


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


def test_backend_flag(capsys, monkeypatch):
    # Either backend may be active here; each is reported in its own words.
    monkeypatch.setattr(zeroprod.kernels, "_native_path", "_native-00000000.so")
    assert run_cli(capsys, "--backend") == (0, "kernel backend: compiled\n", "")
    monkeypatch.setattr(zeroprod.kernels, "_native_path", None)
    monkeypatch.setattr(zeroprod.kernels, "_pure_reason", "no C compiler on PATH")
    want = "kernel backend: python (no C compiler on PATH)\n"
    assert run_cli(capsys, "--backend") == (0, want, "")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# Every subcommand, with usage errors and an excluded ring in between,
# and each non-default option followed by a call that leaves it unset.
REUSE_SEQUENCE = [
    (["prob", "12", "--digits", "3"], 0),
    (["prob", "12"], 0),
    (["prob", "60", "--paranoid", "--format", "json"], 0),
    (["prob", "60"], 0),
    (["prob", "--ring", "Zn(4)xZn(6)"], 0),
    (["prob", "12"], 0),
    (["prob", "1"], 2),
    (["prob", "12", "--ring", "Zn(4)"], 1),
    (["prob", "--cap", "50", "--paranoid", "60"], 3),
    (["prob", "60", "--paranoid"], 0),
    (["bounds", "8", "--format", "csv", "--digits", "0"], 0),
    (["bounds", "8"], 0),
    (["scan", "5", "3"], 1),
    (["scan", "2", "30", "--format", "json", "--digits", "12", "--jobs", "2"], 0),
    (["scan", "2", "30"], 0),
    (["verify", "--max", "40", "--paranoid", "--jobs", "2"], 0),
    (["verify", "--max", "40"], 0),
    (["verify"], 1),
    (["montecarlo", "12", "--samples", "500", "--seed", "5", "--format", "csv"], 0),
    (["montecarlo", "12", "--samples", "500"], 0),
    (["graph", "--ring", "Zn(2)xZn(4)"], 0),
    (["graph", "12"], 0),
    (["--backend"], 0),
    ([], 1),
    (["scan", "--help"], 0),
    (["prob", "12", "--digits", "-1"], 1),
    (["prob", "12"], 0),
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_carries_no_state(capsys, monkeypatch):
    monkeypatch.setattr(zeroprod.cli, "_parser", zeroprod.cli.build_parser)
    fresh = [_outcome(capsys, argv) for argv, _ in REUSE_SEQUENCE]
    assert [code for code, _, _ in fresh] == [code for _, code in REUSE_SEQUENCE]
    builds = []

    def build():
        builds.append(None)
        return zeroprod.cli.build_parser()

    monkeypatch.setattr(zeroprod.cli, "_parser", functools.cache(build))
    reused = [_outcome(capsys, argv) for argv, _ in REUSE_SEQUENCE]
    assert len(builds) == 1
    for (argv, _), want, got in zip(REUSE_SEQUENCE, fresh, reused):
        assert got == want, argv


def test_parser_is_not_built_at_import():
    probe = "import zeroprod.cli as c; print(c._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "0\n")


@pytest.mark.parametrize(
    "argv",
    [["scan", "30000", "30023", "--format", "csv"], ["prob", "18446744030759878681"]],
)
def test_warm_call_leaves_no_cyclic_garbage(capsys, argv):
    """A call that leaves cycles behind makes the collector run, and its
    pauses land on later calls."""
    assert main(argv) == 0  # warm: the parser and the trial primes exist
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def _csv_writer_text(record: dict) -> str:
    """What csv.writer makes of a record: its keys, then its cells, with
    booleans as true/false and None as an empty cell."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return "" if value is None else value

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(record)
    writer.writerow(map(cell, record.values()))
    return out.getvalue()


@pytest.mark.parametrize(
    "argv, cell",
    [
        (["prob", "12"], "closed-form"),
        (["prob", "3591", "--paranoid"], "closed-form (brute-verified)"),
        (["prob", "--ring", "Zn(65)xZn(55)", "--paranoid"], "product (brute-verified)"),
        (["bounds", "7"], ""),  # the empty maxann of a field
        (["bounds", "8"], "true"),
        (["montecarlo", "1234", "--samples", "1000"], "Zn(1234)"),
    ],
)
@pytest.mark.parametrize("digits", ["0", "6", "4300"])
def test_csv_record_equals_csv_writer(capsys, monkeypatch, argv, cell, digits):
    """A record's CSV is its comma-joined cells, which is what csv.writer
    writes of them: no cell needs quoting."""
    records = []
    emit = zeroprod.cli._emit_record

    def recorded(record, fmt, out):
        records.append(record)
        emit(record, fmt, out)

    monkeypatch.setattr(zeroprod.cli, "_emit_record", recorded)
    code, out, err = run_cli(capsys, *argv, "--format", "csv", "--digits", digits)
    assert (code, err) == (0, "")
    [record] = records
    assert out == _csv_writer_text(record)
    assert cell in out.splitlines()[1].split(",")
