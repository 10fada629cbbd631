"""Fuzz the command line over the argv grammar of every subcommand.

Arguments are drawn from what a user might type: small, huge, negative
and non-ASCII integers, malformed rings, bad flags and output paths.
Sizes stay small (scan spans of at most 50, verify --max of at most 200,
caps of at most 400, a few thousand samples), so every run is quick.
Whatever the input, the exit code is one of the documented 0 to 4, a
run that exits 1 to 3 writes nothing to stdout, and no traceback
reaches stderr.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zeroprod.cli import main

_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# Beyond 64 bits, at the 64-bit edges, and negative.
_HUGE = st.sampled_from([2**63 - 1, 2**64 - 1, 2**64, -(2**64), 10**30]) | st.integers(
    10**20, 10**40
)

_JUNK = st.sampled_from(
    ["", "x", "1.5", "1e3", "0x10", "１２", " 7 ", "1_000", "nan", "9" * 5000]
) | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=6)

_BAD_FLAGS = st.sampled_from(["--nope", "-x", "--format=xml", "--digits", "--cap", "--jobs"])


def _mostly(common, rare):
    """``common`` three times in four, ``rare`` otherwise."""
    return st.integers(0, 3).flatmap(lambda k: rare if k == 3 else common)

fuzz = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _typed(values):
    """An integer from ``values`` as typed: mostly ASCII, else Arabic-Indic
    digits or junk."""
    arabic = values.map(lambda v: str(v).translate(_ARABIC_INDIC))
    return _mostly(values.map(str), arabic | _JUNK)


def _int_arg(small_max):
    return _typed(_mostly(st.integers(-3, small_max), _HUGE))


_RING = st.lists(
    st.one_of(
        st.integers(-1, 6).map("Zn({})".format),
        _int_arg(6).map("Zn({})".format),
        st.sampled_from(["", "Zn", "Z(4)", "zn(4)", "Zn(4", "Zn(4))", "Zn()", "Zn(4)XZn(9)"]),
    ),
    min_size=1,
    max_size=3,
).flatmap(lambda parts: st.sampled_from(["x", " x "]).map(lambda sep: sep.join(parts)))


def _options(**choices):
    """Each option once at most, with its value, in any order; then maybe a bad flag."""
    drawn = [
        st.none() | value.map(lambda v, flag=flag: [flag] if v is True else [flag, v])
        for flag, value in choices.items()
    ]
    ordered = st.permutations(drawn).flatmap(lambda d: st.tuples(*d))
    return st.tuples(ordered, _mostly(st.just([]), _BAD_FLAGS.map(lambda f: [f]))).map(
        lambda t: [tok for opt in t[0] if opt for tok in opt] + t[1]
    )


_FORMAT = st.sampled_from(["table", "json", "csv", "xml"])
_DIGITS = _int_arg(30)
_CAP = _typed(st.integers(-3, 400))  # a huge cap would let a huge ring run
_JOBS = st.sampled_from(["-1", "0", "1", "x"])  # more than one starts a process pool


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in range(5), (argv, code)
    if code in (1, 2, 3):
        assert out.getvalue() == "", argv
    assert "Traceback" not in err.getvalue(), argv


@fuzz
@given(
    st.one_of(
        st.tuples(_int_arg(300)),
        st.tuples(st.just("--ring"), _RING),
        st.tuples(_int_arg(300), st.just("--ring"), _RING),
        st.just(()),
    ),
    _options(
        **{"--paranoid": st.just(True), "--format": _FORMAT, "--digits": _DIGITS, "--cap": _CAP}
    ),
)
def test_prob(target, options):
    _run(["prob", *target, *options])


@fuzz
@given(_int_arg(2000), _options(**{"--format": _FORMAT, "--digits": _DIGITS, "--cap": _CAP}))
def test_bounds(n, options):
    _run(["bounds", n, *options])


@fuzz
@given(
    st.tuples(_mostly(st.integers(-3, 300), _HUGE), st.integers(-3, 50)).flatmap(
        lambda t: st.tuples(_typed(st.just(t[0])), _typed(st.just(t[0] + t[1])))
    ),
    _options(**{"--format": _FORMAT, "--digits": _DIGITS, "--jobs": _JOBS}),
)
def test_scan(span, options):
    _run(["scan", *span, *options])


@fuzz
@given(
    _typed(_mostly(st.integers(-3, 200), _HUGE)),
    _options(**{"--paranoid": st.just(True), "--cap": _CAP, "--jobs": _JOBS}),
)
def test_verify(max_n, options):
    _run(["verify", "--max", max_n, *options])


@fuzz
@given(
    _int_arg(300),
    _options(
        **{
            "--samples": _typed(_mostly(st.integers(-2, 3000), st.sampled_from([2**64, 10**30]))),
            "--seed": _int_arg(100),
            "--format": _FORMAT,
            "--digits": _DIGITS,
        }
    ),
)
def test_montecarlo(n, options):
    _run(["montecarlo", n, *options])


_PATH = st.sampled_from(["g.dot", "é", "missing/g", "d", "d/", ""])


@fuzz
@given(
    st.one_of(st.tuples(_int_arg(300)), st.tuples(st.just("--ring"), _RING)),
    _options(**{"--dot": _PATH, "--csv": _PATH, "--cap": _CAP}),
)
def test_graph(tmp_path, target, options):
    (tmp_path / "d").mkdir(exist_ok=True)
    # Every output path lies under tmp_path; "d" is a directory there.
    options = [
        f"{tmp_path}/{value}" if flag in ("--dot", "--csv") else value
        for flag, value in zip([None, *options], options)
    ]
    _run(["graph", *target, *options])


@fuzz
@given(st.lists(st.sampled_from(["--backend", "--help", "prob", "12", "--nope", "-h"]), max_size=3))
def test_top_level(argv):
    _run(argv)
