"""Config text parsing, defaults, rendering, round trips."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lemsim import ConfigError, parse_config, render_config
from lemsim.csvout import format_value
from lemsim.sweep import CHANNELS

MINIMAL = """
[cluster]
n = 3
j = -1.0
bias = 0.1
tunneling = 0.01
"""

FULL = """
# three-spin ferromagnet
[cluster]
n = 3
j = -1.0
bias = 0.1            # scalar broadcast
tunneling = 0.01 0.02 0.03

[noise]
z_noise = 0.05
x_noise = 0.05
kind = ou
tau = 2.5

[dynamics]
time_step = 0.002
total_time = 500.0
trajectories = 64
anchors = 000 111

[sweep]
n_values = 2 3 4
ratios = 0.1 0.01
channels = overlaps rates
bias = 0.1
j = -1.0

[output]
path = out.csv

[run]
seed = 42
"""


def test_minimal_config_broadcasts():
    cfg = parse_config(MINIMAL)
    assert cfg.n == 3
    assert cfg.j_uniform == -1.0
    assert cfg.bias == (0.1, 0.1, 0.1)
    assert cfg.tunneling == (0.01, 0.01, 0.01)
    assert cfg.z_noise == (0.0, 0.0, 0.0)
    assert cfg.noise_kind == "ou"
    assert cfg.seed == 0
    params = cfg.cluster_params()
    assert params.couplings[0, 1] == -1.0
    assert params.couplings[1, 1] == 0.0


def test_full_config_values():
    cfg = parse_config(FULL)
    assert cfg.tunneling == (0.01, 0.02, 0.03)
    assert cfg.noise_tau == 2.5
    assert cfg.trajectories == 64
    assert cfg.anchors == ("000", "111")
    assert cfg.sweep_n == (2, 3, 4)
    assert cfg.sweep_ratios == (0.1, 0.01)
    assert cfg.sweep_channels == ("overlaps", "rates")
    assert cfg.output_path == "out.csv"
    assert cfg.seed == 42


def test_wrong_vector_length_names_key():
    text = MINIMAL.replace("bias = 0.1", "bias = 0.1 0.2")
    with pytest.raises(ConfigError, match="cluster.bias"):
        parse_config(text)


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="biass"):
        parse_config(MINIMAL.replace("bias", "biass"))


def test_unknown_section_is_hard_error():
    with pytest.raises(ConfigError, match="clutter"):
        parse_config(MINIMAL.replace("[cluster]", "[clutter]"))


def test_syntax_error_reports_line_number():
    text = "[cluster]\nn = 3\nnot a kv line\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(text)


def test_duplicate_key_rejected():
    text = MINIMAL + "\n[cluster]\nn = 4\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_both_j_forms_rejected():
    text = MINIMAL.replace("j = -1.0", "j = -1.0\nj_upper = 1 2 3")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_upper_triangle_reconstruction():
    text = """
[cluster]
n = 3
j_upper = -1.0 -2.0 -3.0
bias = 0.0
tunneling = 0.0
"""
    cfg = parse_config(text)
    m = cfg.cluster_params().couplings
    assert m[0, 1] == m[1, 0] == -1.0
    assert m[0, 2] == m[2, 0] == -2.0
    assert m[1, 2] == m[2, 1] == -3.0
    assert np.all(np.diag(m) == 0.0)


def test_render_parse_round_trip():
    for text in (MINIMAL, FULL):
        cfg = parse_config(text)
        assert parse_config(render_config(cfg)) == cfg


def test_render_is_idempotent():
    cfg = parse_config(FULL)
    once = render_config(cfg)
    assert render_config(parse_config(once)) == once


def test_render_echoes_defaults():
    rendered = render_config(parse_config(MINIMAL))
    assert "z_noise = 0.0 0.0 0.0" in rendered
    assert "kind = ou" in rendered
    assert "seed = 0" in rendered
    assert "time_step = auto" in rendered


def test_float_fields_round_trip_exactly():
    values = [0.1, 1.0 / 3.0, 2.0**-52, 123456.789e-7, 5.551115123125783e-17]
    for v in values:
        assert float(format_value(v)) == v
    cfg = parse_config(MINIMAL.replace("bias = 0.1", f"bias = {values[1]!r}"))
    assert cfg.bias[0] == values[1]


def test_auto_keywords():
    text = MINIMAL + "\n[noise]\ntau = auto\n\n[dynamics]\ntime_step = auto\n"
    cfg = parse_config(text)
    assert cfg.noise_tau is None
    assert cfg.time_step is None


def test_csv_empty_rows_is_header_and_metadata_only():
    from lemsim.csvout import emit_sweep_rows

    text = emit_sweep_rows([], config_text="[run]\nseed = 3\n", seed=3)
    lines = text.splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1  # header only
    assert data[0].startswith("n,ratio,a_typ")
    assert lines[0].startswith("# lemsim")
    assert "# seed = 3" in lines


def test_csv_single_row_has_all_columns_in_order():
    from lemsim.csvout import emit_sweep_rows
    from lemsim.sweep import SweepRow

    row = SweepRow(n=3, ratio=0.01, a_typ=3.8, rate_ratio=1e-9, seed=7)
    text = emit_sweep_rows([row], "[run]\nseed = 7\n", 7)
    data = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(data) == 2
    header = data[0].split(",")
    assert header == list(SweepRow.columns())
    fields = data[1].split(",")
    assert fields[header.index("n")] == "3"
    assert float(fields[header.index("rate_ratio")]) == 1e-9
    assert fields[header.index("matrix_element")] == ""  # unfilled stays empty


def test_csv_reals_parse_back_exactly():
    from lemsim.csvout import emit_sweep_rows
    from lemsim.sweep import SweepRow

    values = [1.0 / 3.0, 2.0**-40 * 1.7, 3.141592653589793e-17]
    rows = [SweepRow(n=2, ratio=0.01, a_typ=v) for v in values]
    text = emit_sweep_rows(rows, "[run]\nseed = 0\n", 0)
    data = [l for l in text.splitlines() if not l.startswith("#")][1:]
    parsed = [float(line.split(",")[2]) for line in data]
    assert parsed == values


# runs of 1-4 equal levels, drawn among signed zeros and subnormals as often
# as among other floats; sorting leaves equal 0.0 and -0.0 in drawn order
_ASCENDING_LEVELS = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([0.0, -0.0, 2.0**-1074, -(2.0**-1074), 2.0**-1030, -(2.0**-1023)]),
            st.floats(allow_nan=False),
        ),
        st.integers(1, 4),
    ),
    max_size=12,
).map(lambda runs: np.array(sorted(v for v, count in runs for _ in range(count)), dtype=float))
_LEVELS = np.array([-1.5, -1.5, -0.0, -0.0, 0.0, 0.0, -0.0, 2.0**-1074, 1 / 3, 1 / 3, np.inf])


@given(_ASCENDING_LEVELS)
@example(_LEVELS)
@example(_LEVELS[:0])
@example(_LEVELS[:1])
@example(np.array([np.nan, np.nan, 1.0]))
def test_eigensystem_rows_format_every_level_as_its_own_value(levels):
    # each run of equal levels is formatted once: -0.0 and 0.0 compare equal
    # yet print differently, and NaN equals nothing
    from lemsim.csvout import emit_eigensystem

    text = emit_eigensystem(levels, "[run]\nseed = 1\n", 1)
    rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
    assert rows == [f"{k},{v:.16e}" for k, v in enumerate(levels.tolist())]


CLUSTER = "[cluster]\nn = 3\n"

# One input per ConfigError template, plus inputs with two faults whose
# message shows which check runs first.  The messages are pinned verbatim.
ERROR_CASES = [
    ("[cluster\n", "line 1: malformed section header: '[cluster'"),
    ("[clutter]\n", "line 1: unknown section [clutter]"),
    ("[cluster]\nn 3\n", "line 2: expected 'key = value', got 'n 3'"),
    ("n = 3\n", "line 1: key outside any [section]"),
    ("[cluster]\nbiass = 0.1\n", "line 2: unknown key 'biass' in section [cluster]"),
    ("[cluster]\nn = 3\nn = 4\n", "line 3: duplicate key 'n' in section [cluster]"),
    ("[cluster]\nbias = 0.1\n", "section [cluster] is missing the required key 'n'"),
    ("[cluster]\nn = three\n", "line 2: cluster.n: not an integer: 'three'"),
    ("[cluster]\nn = 0\n", "line 2: cluster.n must be positive"),
    (CLUSTER + "j = -1\nj_upper = 1 2 3\n", "line 4: give either 'j' or 'j_upper', not both"),
    (
        CLUSTER + "j_upper = 1 2\n",
        "line 3: j_upper needs 3 entries (row-major upper triangle for n=3), got 2",
    ),
    (CLUSTER + "j_upper = 1 x 3\n", "line 3: cluster.j_upper: not a number: 'x'"),
    (CLUSTER + "j = strong\n", "line 3: cluster.j: not a number: 'strong'"),
    (CLUSTER + "bias = 0.1 0.2\n", "line 3: cluster.bias: expected 1 or 3 values, got 2"),
    (CLUSTER + "tunneling = 0.1 x 0.3\n", "line 3: cluster.tunneling: not a number: 'x'"),
    (CLUSTER + "a_typ = 0\n", "line 3: cluster.a_typ must be positive"),
    (CLUSTER + "a_typ = auto\n", "line 3: cluster.a_typ: not a number: 'auto'"),
    (
        "[noise]\nz_noise = 0.1\n",
        "line 2: noise.z_noise requires a [cluster] section for its length",
    ),
    (CLUSTER + "[noise]\nx_noise = 1 2\n", "line 4: noise.x_noise: expected 1 or 3 values, got 2"),
    ("[noise]\nkind = pink\n", "line 2: noise.kind must be one of ('ou', 'white')"),
    ("[noise]\ntau = -1\n", "line 2: noise.tau must be positive"),
    ("[noise]\ntau = soon\n", "line 2: noise.tau: not a number: 'soon'"),
    ("[dynamics]\ntime_step = 0\n", "line 2: dynamics.time_step must be positive"),
    ("[dynamics]\ntotal_time = -5\n", "line 2: dynamics.total_time must be positive"),
    ("[dynamics]\ntotal_time = inf\n", "line 2: dynamics.total_time must be finite"),
    ("[dynamics]\ntime_step = -inf\n", "line 2: dynamics.time_step must be finite"),
    (CLUSTER + "j = nan\n", "line 3: cluster.j must be finite"),
    ("[dynamics]\ntrajectories = 0\n", "line 2: dynamics.trajectories must be positive"),
    ("[dynamics]\ntrajectories = 1.5\n", "line 2: dynamics.trajectories: not an integer: '1.5'"),
    ("[dynamics]\nanchors = 000\n", "line 2: dynamics.anchors needs two bitstrings (ground lem)"),
    (
        CLUSTER + "[dynamics]\nanchors = 0000 1111\n",
        "line 4: dynamics.anchors needs bitstrings of cluster.n = 3 spins, got '0000 1111'",
    ),
    (
        CLUSTER + "[dynamics]\nanchors = 00 11\n",
        "line 4: dynamics.anchors needs bitstrings of cluster.n = 3 spins, got '00 11'",
    ),
    (CLUSTER + "[noise]\nz_noise = -1\n", "line 4: noise.z_noise amplitudes must be non-negative"),
    (
        CLUSTER + "[noise]\nx_noise = 0.1 -0.2 0.3\n",
        "line 4: noise.x_noise amplitudes must be non-negative",
    ),
    (
        "[dynamics]\nanchors = 000 121\n",
        "line 2: dynamics.anchors needs two bitstrings (ground lem)",
    ),
    ("[sweep]\nn_values = 2 x\n", "line 2: sweep.n_values: not an integer: 'x'"),
    ("[sweep]\nratios = 0.1 y\n", "line 2: sweep.ratios: not a number: 'y'"),
    (
        "[sweep]\nchannels = overlaps spin\n",
        f"line 2: unknown sweep channel 'spin'; choose from {CHANNELS}",
    ),
    ("[sweep]\nbias = b\n", "line 2: sweep.bias: not a number: 'b'"),
    ("[sweep]\nj = q\n", "line 2: sweep.j: not a number: 'q'"),
    ("[run]\nseed = -1\n", "line 2: run.seed must fit in 64 unsigned bits"),
    ("[run]\nseed = 18446744073709551616\n", "line 2: run.seed must fit in 64 unsigned bits"),
    ("[run]\nseed = 0.5\n", "line 2: run.seed: not an integer: '0.5'"),
    # check order
    ("[cluster]\nn = x\nn = 3\n", "line 3: duplicate key 'n' in section [cluster]"),
    (CLUSTER + "j = bad\nj_upper = 1 2\n", "line 4: give either 'j' or 'j_upper', not both"),
    (
        "[cluster]\nbias = 1 2\n[noise]\nkind = pink\n",
        "section [cluster] is missing the required key 'n'",
    ),
    (
        "[noise]\nkind = pink\nz_noise = 1\n",
        "line 3: noise.z_noise requires a [cluster] section for its length",
    ),
    ("[run]\nseed = -1\n[cluster]\nn = 0\n", "line 4: cluster.n must be positive"),
    ("[sweep]\nj = x\n[cluster]\nn = 3\nj = y\n", "line 5: cluster.j: not a number: 'y'"),
    (
        CLUSTER + "bias = 1 2\nj_upper = 1 2\n",
        "line 4: j_upper needs 3 entries (row-major upper triangle for n=3), got 2",
    ),
    (
        CLUSTER + "a_typ = 0\ntunneling = 1 2\n",
        "line 4: cluster.tunneling: expected 1 or 3 values, got 2",
    ),
    ("[dynamics]\ntrajectories = 0\n[noise]\ntau = 0\n", "line 4: noise.tau must be positive"),
    (
        CLUSTER + "[noise]\nz_noise = -1 2\n",
        "line 4: noise.z_noise: expected 1 or 3 values, got 2",
    ),
    (
        CLUSTER + "[dynamics]\nanchors = 0000 121\n",
        "line 4: dynamics.anchors needs two bitstrings (ground lem)",
    ),
]


@pytest.mark.parametrize("text, message", ERROR_CASES)
def test_config_error_messages(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, method, message",
    [
        ("[run]\nseed = 1\n", "cluster_params", "configuration has no [cluster] section"),
        ("[run]\nseed = 1\n", "coupling_spec", "configuration has no [cluster] section"),
    ],
)
def test_missing_section_messages(text, method, message):
    cfg = parse_config(text)
    with pytest.raises(ConfigError) as info:
        getattr(cfg, method)()
    assert str(info.value) == message


_reals = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-300, max_value=1e300)
_amplitudes = st.floats(min_value=0.0, allow_infinity=False)
_deferred = st.one_of(st.just("auto"), _positive.map(repr))


def _words(values) -> str:
    return " ".join(map(str, values))  # str(float) is its shortest round-tripping repr


def _reals_of_length(size, reals=_reals):
    return st.lists(reals, min_size=size, max_size=size).map(_words)


@st.composite
def config_texts(draw) -> str:
    """Config text with every section and key independently present or absent."""
    sections = {}

    def put(section, key, value):
        sections.setdefault(section, []).append(f"{key} = {value}")

    def maybe(strategy):
        return draw(st.one_of(st.none(), strategy))

    n = maybe(st.integers(1, 6))
    if n is not None:
        put("cluster", "n", n)
        form = draw(st.sampled_from(["j", "j_upper", None]))
        if form == "j":
            put("cluster", "j", repr(draw(_reals)))
        elif form == "j_upper":
            put("cluster", "j_upper", draw(_reals_of_length(n * (n - 1) // 2)))
        for section, key, reals in (
            ("cluster", "bias", _reals),
            ("cluster", "tunneling", _reals),
            ("noise", "z_noise", _amplitudes),
            ("noise", "x_noise", _amplitudes),
        ):
            if (size := maybe(st.sampled_from([1, n]))) is not None:
                put(section, key, draw(_reals_of_length(size, reals)))
        if (a_typ := maybe(_positive)) is not None:
            put("cluster", "a_typ", repr(a_typ))
    optional = [
        ("noise", "kind", st.sampled_from(["ou", "white"])),
        ("noise", "tau", _deferred),
        ("dynamics", "time_step", _deferred),
        ("dynamics", "total_time", _deferred),
        ("dynamics", "trajectories", st.integers(1, 10**6)),
        ("dynamics", "anchors", (st.integers(1, 6) if n is None else st.just(n)).flatmap(
            lambda k: st.lists(st.text("01", min_size=k, max_size=k), min_size=2, max_size=2)
        ).map(" ".join)),
        ("sweep", "n_values", st.lists(st.integers(1, 14), max_size=4).map(_words)),
        ("sweep", "ratios", st.lists(_positive, max_size=3).map(_words)),
        ("sweep", "channels", st.lists(st.sampled_from(CHANNELS), max_size=4).map(" ".join)),
        ("sweep", "bias", _reals.map(repr)),
        ("sweep", "j", _reals.map(repr)),
        ("output", "path", st.text("abc./_-0123", max_size=12)),
        ("run", "seed", st.integers(0, 2**64 - 1)),
    ]
    for section, key, strategy in optional:
        if (value := maybe(strategy)) is not None:
            put(section, key, value)
    order = draw(st.permutations(sorted(sections)))
    return "".join(f"[{name}]\n" + "\n".join(sections[name]) + "\n\n" for name in order)


@settings(max_examples=300, deadline=None)
@given(config_texts())
@example(MINIMAL + "\n[sweep]\nchannels = overlaps\nbias = 0.3\n")  # a [sweep] without its grid
def test_render_round_trips_and_is_idempotent(text):
    cfg = parse_config(text)
    rendered = render_config(cfg)
    assert parse_config(rendered) == cfg
    assert render_config(parse_config(rendered)) == rendered
