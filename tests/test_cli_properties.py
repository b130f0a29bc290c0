"""Property tests (Hypothesis) over the four CLI commands: every drawn
argument list is answered (exit 0) or refused (exit 2 or 3) with nothing
on stdout, and no other exception escapes `cli.main`; every answered
`simulate --dump-state` lists the final state's 2k amplitudes."""

import contextlib
import io
import json
import os
import tempfile
from math import comb, prod

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from multikey_bv import InputError, cli  # noqa: E402
from multikey_bv.analytics import DEFAULT_WORK_BOUND, MAX_EXACT_ARG  # noqa: E402
from multikey_bv.simulator import QUBIT_CAP  # noqa: E402

HUGE = 10**30

# Bounds on the work a valid draw may ask for, so the test stays fast.
MAX_GATE_QUBITS = 16
MAX_GRID_ARG = 300
MAX_GRID_CELLS = 5
MAX_COUPON_DRAWS = 10**5
MAX_SHOTS = 10**4
MAX_ENUMERATION = 10**5


def ints(small_lo: int, small_hi: int, boundary: list[int]):
    """Small, boundary, negative and huge values of one integer flag."""
    return st.one_of(
        st.integers(small_lo, small_hi),
        st.sampled_from(boundary + [-1, -(2**63), HUGE]),
    )


@st.composite
def key_values(draw):
    """(n, values): small key sets, or 4096 keys of 12 or 64 bits."""
    if draw(st.integers(0, 9)) == 0:
        k, n = 4096, draw(st.sampled_from([12, 64]))
    else:
        k, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pick = draw(st.sampled_from(["random", "distinct", "copies"]))
    if pick == "copies":
        values = [int(rng.integers(1 << min(n, 62)))] * k
    elif pick == "distinct" and k <= 1 << n:
        values = [int(v) for v in rng.choice(1 << min(n, 62), size=k, replace=False)]
    else:
        values = [int(v) for v in rng.integers(1 << min(n, 62), size=k)]
    return n, values


@st.composite
def keys_flag(draw):
    """(argv, parsed): a well-formed --keys flag with its (n, values), or
    a malformed one with None."""
    if draw(st.integers(0, 5)) == 0:
        text = draw(st.sampled_from(["", ",", "01,1", "012", "0b1", " , 10", "1" * 70]))
        return ["--keys", text], None
    n, values = draw(key_values())
    return ["--keys", ",".join(format(v, f"0{n}b") for v in values)], (n, values)


def range_text():
    """Text for --k or --m of `analyze`: a value, an inclusive range, or junk."""
    return st.one_of(
        ints(0, MAX_GRID_ARG, [MAX_EXACT_ARG, MAX_EXACT_ARG + 1]).map(str),
        st.tuples(st.integers(-2, MAX_GRID_ARG), st.integers(0, 1)).map(
            lambda t: f"{t[0]}:{t[0] + t[1]}"
        ),
        st.sampled_from(["1:100000000000", "5:2", "x", "", "3:", f"0:{HUGE}"]),
    )


def grid_shape(k_text: str, m_text: str) -> tuple[int, int] | None:
    """(cells, largest argument) of a grid `analyze` would compute, or
    None if it refuses the grid."""
    try:
        ks = cli._parse_range(k_text, "--k")
        ms = cli._parse_range(m_text, "--m")
    except InputError:
        return None
    if ks[0] < 1 or ks[-1] > MAX_EXACT_ARG or ms[0] < 0 or ms[-1] > MAX_EXACT_ARG:
        return None
    return len(ks) * len(ms), max(ks[-1], ms[-1])


def enumeration_size(parsed, n_flag, work_bound) -> int:
    """Ordered assignments times k, which bounds the key fold's work, or
    0 if the fold refuses the keys."""
    if parsed is None:
        return 0
    n, values = parsed
    k = len(values)
    if n_flag not in (None, n) or k > MAX_EXACT_ARG or work_bound < 1:
        return 0
    ordered = prod(comb(k, sum(v >> q & 1 for v in values)) for q in range(n))
    return ordered * k if ordered <= work_bound else 0


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["simulate", "sample", "analyze", "adversary"]))
    seed = draw(st.one_of(st.integers(0, 2**32), ints(0, 2**32, [0, 2**64])))
    argv = [command, "--seed", str(seed)]
    argv += ["--format", draw(st.sampled_from(["json", "csv", "text"]))]
    parsed = None
    if command != "analyze" or draw(st.booleans()):
        keys_argv, parsed = draw(keys_flag())
        argv += keys_argv
    n_flag = draw(st.sampled_from(["none", "none", "own", "other"]))
    if n_flag == "own" and parsed is not None:
        n_flag = parsed[0]
    elif n_flag == "other":
        n_flag = draw(ints(1, 6, [0, 12, 64]))
    else:
        n_flag = None
    if n_flag is not None:
        argv += ["--n", str(n_flag)]
    valid_keys = parsed is not None and n_flag in (None, parsed[0])
    if command != "analyze":
        path = draw(st.sampled_from(["gate", "fast"]))
        argv += ["--oracle-path", path]
        if path == "gate" and valid_keys:
            n, values = parsed
            total = n + 1 + max(len(values) - 1, 0).bit_length()
            assume(total <= MAX_GATE_QUBITS or total > QUBIT_CAP)

    if command == "simulate" and draw(st.booleans()):
        argv.append("--dump-state")
    elif command == "sample":
        shots = draw(ints(1, 3000, [0, 1, 2, MAX_SHOTS]))
        assume(shots <= MAX_SHOTS)
        argv += ["--shots", str(shots)]
    elif command in ("analyze", "adversary"):
        work_bound = draw(st.one_of(st.none(), ints(1, 1000, [0, 1, DEFAULT_WORK_BOUND])))
        if work_bound is not None:
            argv += ["--work-bound", str(work_bound)]
        else:
            work_bound = DEFAULT_WORK_BOUND
        size = enumeration_size(parsed, n_flag, work_bound)
        assume(size <= MAX_ENUMERATION)

    if command == "analyze":
        if draw(st.booleans()):
            argv.append("--enumerate")
        grid = draw(st.sampled_from(["none", "both", "both", "k-only", "m-only"]))
        k_text, m_text = draw(range_text()), draw(range_text())
        if grid in ("both", "k-only"):
            argv += ["--k", k_text]
        if grid in ("both", "m-only"):
            argv += ["--m", m_text]
        if grid == "both":
            shape = grid_shape(k_text, m_text)
            assume(
                shape is None
                or shape[0] <= MAX_GRID_CELLS and shape[1] <= MAX_GRID_ARG
            )
    elif command == "adversary":
        m = draw(st.one_of(st.none(), ints(0, 40, [0, MAX_EXACT_ARG, MAX_EXACT_ARG + 1])))
        trials = draw(ints(1, 200, [0, 1, MAX_SHOTS]))
        shots = draw(ints(1, 500, [0, 1, MAX_SHOTS]))
        assume(trials <= MAX_SHOTS and shots <= MAX_SHOTS)
        if m is not None:
            argv += ["--m", str(m)]
        elif parsed is not None:
            m = 3 * len(parsed[1])
        if m is not None and 0 <= m <= MAX_EXACT_ARG:
            assume(m * max(trials, 0) <= MAX_COUPON_DRAWS)
        argv += ["--trials", str(trials), "--shots", str(shots)]
    return argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(argvs(), st.sampled_from([None, "run.out", "missing/run.out", ""]))
def test_every_command_answers_or_refuses(argv, out_path):
    """`out_path` joined to a fresh temporary directory: absent, a new
    file, a path under a missing directory, or the directory itself."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if out_path is not None:
            argv = argv + ["--out", os.path.join(tmp, out_path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses with exit 2
                code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_CAPACITY), (code, err.getvalue())
    if code != cli.EXIT_OK:
        assert out.getvalue() == ""
        assert err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(key_values(), st.sampled_from(["gate", "fast"]))
def test_every_state_dump_lists_2k_amplitudes(parsed, path):
    """k^(-1/2) sum_i |i>|->|s_i> has one amplitude per control branch i
    and target value, duplicate keys included."""
    n, values = parsed
    k = len(values)
    # The gate path allocates the dense state for the dump; the fast
    # path lists the closed form's amplitudes at any width.
    total = n + 1 + (k - 1).bit_length()
    if path == "gate":
        assume(total <= MAX_GATE_QUBITS or total > QUBIT_CAP)
    argv = [
        "simulate", "--keys", ",".join(format(v, f"0{n}b") for v in values),
        "--seed", "1", "--dump-state", "--oracle-path", path,
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if k > 1 << n:
        assert code == cli.EXIT_INPUT, err.getvalue()
        return
    if path == "gate" and total > QUBIT_CAP:
        assert code == cli.EXIT_CAPACITY, err.getvalue()
        return
    assert code == cli.EXIT_OK, err.getvalue()
    results = json.loads(out.getvalue())["results"]
    amps = results["statevector"]["amplitudes"]
    assert len(amps) == 2 * k
    assert all(len(a["basis"]) == results["total_qubits"] for a in amps)
