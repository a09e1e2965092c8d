"""CLI fuzz suite: hostile config values and CSV bodies end in a documented exit code.

Every run goes through ``cli.main`` in-process, with at most one stderr
line, no traceback and no numpy ``RuntimeWarning`` (raised as an error
here).  ``run_experiment`` is stubbed, so a config that passes the preflight
ends at once with an empty summary instead of a simulation.  The same CSV
cells, with hostile rows added, also check the CSV reader's one-call path
against its per-line reference.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectralvol.cli as cli
from spectralvol import market
from spectralvol.errors import InvalidParameter
from spectralvol.estimators import EstimatorKind
from spectralvol.experiments import McSummary

EXIT_CODES = {cli.EX_OK, cli.EX_FAIL, cli.EX_IOERR, cli.EX_USAGE, cli.EX_DATAERR, cli.EX_CONFIG}
SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
KEYS = [(section, key) for section, keys in cli._CONFIG_KEYS.items() for key in keys]
HOSTILE = [
    b"", b"nan", b"inf", b"-inf", b"1e400", b"-1e400", b"-1", b"0", b"9" * 30, b"-" + b"9" * 30,
    b"0x1f", b"1, 2, 3", b"[1, 2]", b"\xff\xfe\x80",
]


@pytest.fixture(autouse=True, scope="module")
def _no_simulation():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_experiment", lambda experiment, _: McSummary(experiment, (), ()))
        yield


def _run(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)``, checked against the CLI's contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code in EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _with_value(config: Path, section: str, key: str, value: bytes) -> bytes:
    """The config's bytes with ``[section] key`` set to ``value``, added if the file lacks it."""
    lines = config.read_bytes().splitlines()
    head = lines.index(f"[{section}]".encode())
    rest = [line for line in lines[head + 1 :] if not line.startswith(f"{key} =".encode())]
    return b"\n".join(lines[: head + 1] + [f"{key} = ".encode() + value] + rest) + b"\n"


def _experiment(text: bytes) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
        cfg.write_bytes(text)
        code, stdout, stderr = _run(["experiment", "--config", str(cfg), "--out-dir", str(out)])
        if code != cli.EX_OK:
            assert not out.exists() or not any(out.iterdir())  # no CSV left behind
    return code, stdout, stderr


@pytest.mark.parametrize("section,key", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
def test_hostile_values_of_each_key(section, key):
    """Each hostile value in each shipped config; a value its parser refuses is named."""
    parse = cli._CONFIG_KEYS[section][key][1]
    for value in HOSTILE:
        try:
            parse(value.decode())
            malformed = False
        except UnicodeDecodeError:  # the file is refused as a whole
            malformed = False
        except ValueError:
            malformed = True
        # a refused value fails before anything config-specific runs: one config shows it
        for config in SHIPPED[:1] if malformed else SHIPPED:
            code, _, err = _experiment(_with_value(config, section, key, value))
            if malformed:
                assert code == cli.EX_CONFIG and err.startswith(f"config error: [{section}] {key}:")


@settings(max_examples=150)
@given(
    config=st.sampled_from(SHIPPED),
    entry=st.sampled_from(KEYS),
    value=st.one_of(st.sampled_from(HOSTILE), st.binary(max_size=12),
                    st.text(max_size=12).map(str.encode)),
)
def test_random_values(config, entry, value):
    _experiment(_with_value(config, *entry, value))


_CELLS = st.one_of(
    st.floats(-1e3, 1e3), st.floats(), st.sampled_from([1e308, -1e308, 1e200, -1e200, 5e-324])
).map(repr)


def _csv(rows) -> str:
    return "time,value\n" + "".join(f"{t},{v}\n" for t, v in rows)


def _grid_csv(values) -> str:
    """``values`` at the times k/n, k = 0..n."""
    return _csv((repr(k / (len(values) - 1)), v) for k, v in enumerate(values))


@settings(max_examples=200)
@given(
    body=st.one_of(
        st.builds(_grid_csv, st.lists(_CELLS, min_size=2, max_size=12)),
        st.builds(_csv, st.lists(st.tuples(st.floats(0.0, 1.0).map(repr), _CELLS), max_size=6)),
        st.text(max_size=40),
    ),
    kind=st.sampled_from([k.value for k in EstimatorKind]),
    m=st.integers(-1, 3),
    q=st.integers(-2, 2),
)
def test_random_csv_bodies(body, kind, m, q):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_text(body)
        args = ["estimate", "--input", str(path), "--kind", kind, "--m", str(m)]
        code, out, _ = _run(args + ["--q", str(q)] if kind == "mm_fourier_complex" else args)
    if code == cli.EX_OK:
        for row in out.splitlines():
            assert all(math.isfinite(float(cell)) for cell in row.split(",")[-2:]), row


# Cells the float() of the per-line reader reads and the one-call path does not
# (Arabic-Indic one, underscores, a space, quotes), cells neither reads, cells
# that read as non-finite, as 0 or, in the time column, outside [0, 1].
_HOSTILE_CELLS = ["\u0661", "1_0", " 0.25", '"0.5"', "0x10", "", "1e", "nan", "inf",
                  "1e400", "1e-400", "2"]
_ENDINGS = st.sampled_from(["\n"] * 5 + ["\r\n", "\r"] + ["\n"] * 5)


@st.composite
def _csv_texts(draw) -> str:
    """A 2-, 3- or 4-name header, its first name maybe quoted, and up to six rows at rising
    times.  A row may carry a hostile cell, one cell too few or too many, a time that
    does not rise, or a blank row before it; a line may end in CRLF or CR, and the text
    may lack its final newline."""
    width = draw(st.integers(2, 4))
    header = ",".join(["time", "value", "latent", "noise"][:width])
    lines = ['"time"' + header[4:] if draw(st.integers(0, 7)) == 0 else header]
    count = draw(st.integers(0, 6))
    for k in range(count):
        cells = [repr(k / count)] + [draw(_CELLS) for _ in range(width - 1)]
        spoil = draw(st.integers(0, 5 * len(_HOSTILE_CELLS)))
        if spoil < len(_HOSTILE_CELLS):
            cells[draw(st.integers(0, width - 1))] = _HOSTILE_CELLS[spoil]
        elif spoil == len(_HOSTILE_CELLS):
            cells.pop()
        elif spoil == len(_HOSTILE_CELLS) + 1:
            cells.append("0.5")
        elif spoil == len(_HOSTILE_CELLS) + 2:
            lines.append(draw(st.sampled_from(["", ",,", "   "])))
        elif spoil == len(_HOSTILE_CELLS) + 3:
            cells[0] = repr((k - 1) / count)  # a time that does not rise
        lines.append(",".join(cells))
    text = "".join(line + draw(_ENDINGS) for line in lines)
    return text if draw(st.integers(0, 3)) else text.rstrip("\r\n")


@settings(max_examples=400)
@given(text=_csv_texts())
@example(text="time,value\n0.0,1.0\n0.5,2.0\n0.5,3.0\n")
@example(text="time,value,latent,noise\n0.0,1.0,1.0,0.0\n0.5,1e400,1.0,0.0\n")
@example(text="time,value,latent\n2,1.0,0\n")
@example(text="time,value\n0.0,1.0,0.5\n2.0\n")  # as many cells as two rows need
@example(text="time,value\n0.0,1.0\n0.5,0." + "1" * 140000 + "\n")
def test_one_call_reader_matches_the_per_line_reader(text):
    """Every text the per-line reader accepts reads to the same bits through
    read_observations_csv, and every text it refuses is refused with its message."""
    try:
        expected = market._read_rows(text)
    except InvalidParameter as exc:
        with pytest.raises(InvalidParameter) as err:
            market.read_observations_csv(io.StringIO(text))
        assert str(err.value) == str(exc)
        return
    got = market.read_observations_csv(io.StringIO(text))
    for name in ("times", "values", "latent", "noise"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
