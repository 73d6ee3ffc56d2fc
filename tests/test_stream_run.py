"""Each engine's ``run`` against the per-event loop it stands in for.

``fairmon monitor`` hands a monitor's ``run`` the whole stream.  For a
monitor object with only ``next`` it runs ``cli._each_event`` instead, one
``next`` call per event, and that loop is the oracle here: for any stream,
flags and stride, the CLI must write the same bytes to standard output and
standard error, and exit with the same code, either way.  And ``run`` must
leave the monitor where ``next`` would, also when it stops on a symbol
outside the alphabet or on a writer that raises ``BrokenPipeError``.
"""

import contextlib
import io
import sys
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmon import cli
from fairmon.errors import EventError
from fairmon.experiments import lending_mc, lending_pomc
from fairmon.intervals import Interval
from fairmon.markov import simulate
from fairmon.mc import build_mc_monitor
from fairmon.pomc import Verdict, build_pomc_monitor
from fairmon.speclang.parser import parse_spec_file
from test_pomc_monitor import TABLE_SPEC

POMC, MC = "s y n a b".split(), "init g gbar gy gbary ybar z zbar".split()
# name -> (engine, its symbols, spec text)
SPECS = {
    "conditional": ("pomc", POMC, "alphabet: s y n a b\nproperty: P[y | a] - P[y | b]\n"),
    "joint": ("pomc", POMC, "alphabet: s y n a b\nproperty: P[a y] - P[b y]\n"),
    "table": ("pomc", POMC, TABLE_SPEC),
    # arities 1 to 3, a range of one value and a quotient
    "arities": ("pomc", ["a", "b", "c"],
                "alphabet: a b c\n"
                "atom flat arity 2 range [0.25, 0.25] { default -> 0.25 }\n"
                "atom wide arity 3 range [-40, 60] { a _ b -> 60; c c _ -> -40; default -> 1 }\n"
                "property: P[a b] - F[flat] * F[wide] + P[b c] / P[a]\n"),
    "ratio": ("mc", MC, "alphabet: init g gbar gy gbary ybar z zbar\n"
                        "property: T[gbar->gbary] / T[g->gy]\n"),
    "mixed": ("mc", MC, "alphabet: init g gbar gy gbary ybar z zbar\n"
                        "property: 0.3 + T[g->gy] * T[g->ybar] / T[gbar->gbary]\n"),
    "difference": ("mc", MC, "alphabet: init g gbar gy gbary ybar z zbar\n"
                             "property: T[g->gy] - T[gbar->gbary]\n"),
}
BAD = ["q", "\udcff", "g\udce9"]  # read from the bytes b"q", b"\xff" and b"g\xe9"
PAD = st.sampled_from(["", "", " ", "\t", "  "])


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    for name, (_, _, text) in SPECS.items():
        (root / f"{name}.spec").write_text(text)
    return root


@st.composite
def streams(draw, symbols):
    """Lines of one event stream: padded symbols, blank lines, and perhaps
    one symbol outside the alphabet; the last line may lack its newline."""
    lines = []
    for _ in range(draw(st.integers(0, 80))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
        else:
            lines.append(draw(PAD) + draw(st.sampled_from(symbols)) + draw(PAD))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD)))
    text = "".join(line + "\n" for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def monitor_cli(spec_file, engine, flags, text, oracle):
    """Exit code, standard output and standard error of ``fairmon monitor``
    reading ``text`` on standard input; through ``cli._each_event`` if ``oracle``."""
    stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8", "surrogateescape")),
                             encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    name = f"build_{engine}_monitor"
    build = getattr(cli, name)

    def next_only(*args, **kwargs):
        return types.SimpleNamespace(next=build(*args, **kwargs).next)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(sys, "stdin", stdin))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if oracle:
            stack.enter_context(mock.patch.object(cli, name, next_only))
        code = cli.main(["monitor", "--spec", str(spec_file), "--engine", engine, *flags])
    return code, out.getvalue(), err.getvalue()


@st.composite
def monitor_flags(draw, engine):
    mode = draw(st.sampled_from(["pointwise", "uniform"]))
    flags = ["--mode", mode, "--format", draw(st.sampled_from(["jsonl", "csv"])),
             "--stride", str(draw(st.integers(1, 7)))]
    if engine == "pomc":
        flags += ["--tau-mix", draw(st.sampled_from(["1", "35"]))]
        if mode == "uniform" and draw(st.booleans()):
            flags.append("--intersect")
    else:
        flags += ["--seed", str(draw(st.integers(0, 3)))]
    return flags


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_run_writes_what_the_per_event_loop_writes(spec_files, data):
    spec = data.draw(st.sampled_from(sorted(SPECS)))
    engine, symbols, _ = SPECS[spec]
    flags = data.draw(monitor_flags(engine))
    text = data.draw(streams(symbols))
    spec_file = spec_files / f"{spec}.spec"
    got = monitor_cli(spec_file, engine, flags, text, oracle=False)
    assert got == monitor_cli(spec_file, engine, flags, text, oracle=True)


@pytest.mark.parametrize("spec", sorted(SPECS))
@pytest.mark.parametrize("stride", [1, 7])
def test_run_on_a_long_stream(spec_files, spec, stride):
    """3000 stationary events, where the ``pomc`` intervals leave their
    range at --tau-mix 1 and the ``mc`` rounds complete, across two refills
    of the ``pomc`` half-width tables."""
    engine, _, _ = SPECS[spec]
    model = lending_pomc() if engine == "pomc" else lending_mc()
    text = "".join(s + "\n" for s in simulate(model, 3000, 11, start="stationary"))
    flags = ["--mode", "uniform", "--stride", str(stride)]
    flags += ["--tau-mix", "1", "--intersect"] if engine == "pomc" else ["--seed", "2"]
    if spec == "arities":
        text = text.replace("s", "a").replace("y", "b").replace("n", "c")
    got = monitor_cli(spec_files / f"{spec}.spec", engine, flags, text, oracle=False)
    assert got == monitor_cli(spec_files / f"{spec}.spec", engine, flags, text, oracle=True)
    assert got[0] == 0 and got[1].count("\n") == 3000 // stride


def build(spec, flags, alphabet):
    """A monitor of ``spec``; ``flags`` is (mode, tau or seed, intersect)."""
    engine, _, text = SPECS[spec]
    doc = parse_spec_file(text, allow_transvars=engine == "mc")
    mode, value, intersect = flags
    symbols = doc.alphabet if alphabet else None
    if engine == "pomc":
        return build_pomc_monitor(doc.expression, 0.05, mode, value, alphabet=symbols,
                                  intersect_verdicts=intersect)
    return build_mc_monitor(doc.expression, 0.05, mode, seed=value, alphabet=symbols)


def key(t, verdict):
    iv = verdict.interval
    lo, hi = (None, None) if iv is None else (iv.lo, iv.hi)
    return f"{t} {lo!r} {hi!r} {verdict.point!r} {verdict.kind}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_run_then_next_is_next(data):
    """``run`` on the first lines, then ``next`` on the rest, gives the
    verdicts of ``next`` on every line, which skips a symbol it rejects.
    ``run`` may stop early: on a rejected symbol, with its line, or on the
    ``BrokenPipeError`` of its n-th write, after that event."""
    spec = data.draw(st.sampled_from(sorted(SPECS)))
    engine, symbols, _ = SPECS[spec]
    mode = data.draw(st.sampled_from(["pointwise", "uniform"]))
    if engine == "pomc":
        flags = (mode, data.draw(st.sampled_from([1.0, 35.0])),
                 mode == "uniform" and data.draw(st.booleans()))
    else:
        flags = (mode, data.draw(st.integers(0, 3)), False)
    alphabet = data.draw(st.booleans())
    lines = data.draw(streams(symbols)).splitlines(keepends=True)
    cut = data.draw(st.integers(0, len(lines)))
    stride = data.draw(st.integers(1, 7))
    pipe_at = data.draw(st.none() | st.integers(1, 40))

    expected, accepted = [], []  # the verdicts of the accepted lines; each line's fate
    whole = build(spec, flags, alphabet)
    for line in lines:
        accepted.append(False)
        if line.strip():
            try:
                expected.append(key(len(expected) + 1, whole.next(line.strip())))
                accepted[-1] = True
            except EventError:
                pass

    mon = build(spec, flags, alphabet)
    written = []

    def write(t, verdict):
        written.append(key(t, verdict))
        if len(written) == pipe_at:
            raise BrokenPipeError

    def record(t, lo, hi, point):
        write(t, Verdict(Interval(lo, hi), point))

    head = iter(lines[:cut])
    bad_line = symbol = None
    try:
        mon.run(head, record, write, stride)
    except EventError as exc:
        bad_line, symbol = exc.line, exc.symbol
    except BrokenPipeError:
        assert len(written) == pipe_at
    rest = [*head, *lines[cut:]]
    consumed = len(lines) - len(rest)
    if bad_line is not None:
        assert bad_line == consumed and not accepted[bad_line - 1]
        assert lines[bad_line - 1].strip() == symbol
    done = sum(accepted[:consumed])
    assert written == [expected[t - 1] for t in range(stride, done + 1, stride)]
    after = []
    for line in rest:
        if line.strip():
            try:
                after.append(key(done + len(after) + 1, mon.next(line.strip())))
            except EventError:
                pass
    assert after == expected[done:]


STRIDES = [1, 2, 7, 1000, 1023, 1024, 1025, 2500, 5000, 5001]
LONG = 5000


def long_stream(spec):
    """``LONG`` stationary events of the spec's engine's lending model, one a line."""
    engine, _, _ = SPECS[spec]
    model = lending_pomc() if engine == "pomc" else lending_mc()
    text = "".join(s + "\n" for s in simulate(model, LONG, 13, start="stationary"))
    if spec == "arities":
        text = text.replace("s", "a").replace("y", "b").replace("n", "c")
    return text


def variants(spec):
    """(mode, tau or seed, intersect) of each monitor of ``spec`` that the
    strided tests build: both modes, and ``--intersect`` for uniform ``pomc``."""
    if SPECS[spec][0] == "mc":
        return [("pointwise", 2, False), ("uniform", 2, False)]
    return [("pointwise", 1.0, False), ("uniform", 1.0, False), ("uniform", 1.0, True)]


LONG_CASES = [(spec, flags) for spec in sorted(SPECS) for flags in variants(spec)]


@pytest.mark.parametrize("spec, flags", LONG_CASES)
def test_strided_run_writes_what_the_per_event_loop_writes(spec_files, spec, flags):
    """At every stride, about one half-width block up to past the stream's
    end, ``run`` writes the bytes of one ``next`` per event: the verdict
    lines it runs only at written events rebuild what ``next`` would hold."""
    engine, _, _ = SPECS[spec]
    mode, value, intersect = flags
    text = long_stream(spec)
    for stride in STRIDES:
        args = ["--mode", mode, "--stride", str(stride)]
        if engine == "pomc":
            args += ["--tau-mix", str(value)] + ["--intersect"] * intersect
        else:
            args += ["--seed", str(value)]
        got = monitor_cli(spec_files / f"{spec}.spec", engine, args, text, oracle=False)
        assert got == monitor_cli(spec_files / f"{spec}.spec", engine, args, text, oracle=True)
        assert got[0] == 0 and got[1].count("\n") == LONG // stride


@pytest.mark.parametrize("spec, flags", LONG_CASES)
def test_strided_runs_then_next_are_next(spec, flags):
    """Two strided ``run`` calls over slices of a long stream, then ``next``
    on the rest, give the verdicts of ``next`` alone.  After a strided
    ``run`` an ``mc`` monitor counts the rounds, holds the mean and reads
    the state of the ``next``-only monitor, and two ``next`` calls between
    which no round completes return one verdict object."""
    engine, _, _ = SPECS[spec]
    lines = long_stream(spec).splitlines()
    whole = build(spec, flags, True)
    expected = [key(t, whole.next(s)) for t, s in enumerate(lines, 1)]
    for stride in STRIDES:
        cut = (len(lines) // 3, 2 * len(lines) // 3 + 1)
        mon = build(spec, flags, True)
        written = []

        def emit(t, verdict):
            written.append(key(t, verdict))

        def record(t, lo, hi, point):
            emit(t, Verdict(Interval(lo, hi), point))

        mon.run(lines[:cut[0]], record, emit, stride)
        mon.run(lines[cut[0]:cut[1]], record, emit, stride)
        assert written == [expected[t - 1] for t in range(stride, cut[1] + 1, stride)]
        if engine == "mc":
            oracle = build(spec, flags, True)
            for symbol in lines[:cut[1]]:
                oracle.next(symbol)
            assert mon.n_samples == oracle.n_samples
            if spec == "difference":
                assert mon.mean == oracle.mean
            assert mon._state() == oracle._state()
        parts = mon._state()[1] if engine == "mc" else None
        before = None
        for t, symbol in enumerate(lines[cut[1]:], cut[1] + 1):
            verdict = mon.next(symbol)
            assert key(t, verdict) == expected[t - 1]
            if engine == "mc":
                now = mon._state()[1]
                if before is not None and now == parts:
                    assert verdict is before
                parts, before = now, verdict
