"""Pinned outputs and resource bounds that the seeded corpus does not check.

Claim (a) rests on the gate path's final states up to the qubit cap, and
claim (b) on the seeded all-keys rate at k = 4, m = 12; their bytes are
pinned here.  A run that must fit an address space runs in a child
process whose RLIMIT_AS is the bound (KiB x 1024, as `ulimit -v` takes
it), and a run whose bytes must not depend on the CPU count also runs
in a child pinned to one CPU of this process's mask.  Refusals that the
corpus replays are checked here only for what it cannot see: that they
come before the work, in a few MB.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import pytest

import multikey_bv
from make_seeded_corpus import KEYS_4, KEYS_40_BIT, ROOT, _keys
from multikey_bv import cli

try:
    import resource
except ImportError:  # not on Windows
    resource = None

CLI = ("-m", "multikey_bv")
KIB = 1_500_000  # the address-space bound of most runs, in KiB
COMPLEMENTS = "0" * 23 + "," + "1" * 23


def child(*argv, kib=None, one_cpu=False, timeout=60) -> bytes:
    """stdout of `python *argv`, run with its address space capped at kib
    KiB and, if one_cpu, its affinity narrowed to one CPU; it must exit 0
    within timeout seconds."""
    if kib and not hasattr(resource, "RLIMIT_AS") or one_cpu and not hasattr(
        os, "sched_setaffinity"
    ):
        pytest.skip("this platform cannot limit a child's address space or CPUs")
    cpus = {min(os.sched_getaffinity(0))} if one_cpu else None

    def limit():  # runs in the child, between fork and exec
        if kib:
            resource.setrlimit(resource.RLIMIT_AS, (kib * 1024, kib * 1024))
        if cpus:
            os.sched_setaffinity(0, cpus)

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(multikey_bv.__file__)))
    proc = subprocess.run(
        [sys.executable, *argv], preexec_fn=limit, env=env, capture_output=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    return proc.stdout


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_ten_million_trials_keep_the_seeded_rate():
    # 10^7 coupon trials of 12 draws: one array would need 916 MiB.
    out = child(*CLI, "adversary", "--keys", KEYS_4, "--m", "12", "--trials", "10000000",
                "--seed", "7", kib=KIB)
    assert json.loads(out)["results"]["comparison"]["quantum_success"] == 0.874786


def test_adversary_bytes_do_not_depend_on_the_cpu_count():
    # The coupon trials split into one share of whole blocks per usable
    # CPU, each drawing from the seeded stream advanced to its first trial.
    argv = (*CLI, "adversary", "--keys", KEYS_4, "--m", "12", "--trials", "1000000",
            "--seed", "7", "--format", "csv")
    one_cpu = child(*argv, one_cpu=True)
    assert child(*argv) == one_cpu
    assert sha(one_cpu) == "954e165fbb35b344c9533578e6181bf20e98fa34cd133ae1112123cf22d0fc22"


LIBRARY_RUN = """
import random
import numpy as np
from multikey_bv import KeySet, quantum_coupon_experiment
values = random.Random(7).sample(range(1 << {n}), {k})
keys = KeySet.from_strings(format(v, '0{n}b') for v in values)
rng = np.random.default_rng(7)
print(quantum_coupon_experiment(keys, {m}, {trials}, rng, oracle_path='fast'), rng.random())
"""


@pytest.mark.parametrize("one_cpu", [True, False], ids=["one-cpu", "all-cpus"])
def test_bitmap_route_keeps_its_rate_and_stream(one_cpu):
    # 65 keys take the bitmap route; its rate and the generator's next
    # double are pinned.
    code = LIBRARY_RUN.format(n=7, k=65, m=400, trials=20_000)
    assert child("-c", code, one_cpu=one_cpu).split() == [b"0.87525", b"0.45280523344719625"]


def test_paper_scale_coupon_draw_in_bounded_memory():
    # 10^4 distinct 40-bit keys at m = ceil(k (ln k + 5)) = 142,104:
    # 1.4*10^7 weighted draws, 2^16 at a time.
    child("-c", LIBRARY_RUN.format(n=40, k=10_000, m=142_104, trials=100), kib=KIB)


def test_largest_recovery_cell_equals_its_recurrence_row():
    # k = m = 4096: two lists of 4096 bignums of up to 49,152 bits.  The
    # k = 4096 row of the grid takes each cell after its first from the
    # k = 4095 row by the surjection recurrence.
    analyze = (*CLI, "analyze", "--format", "csv", "--seed", "7")
    (cell,) = child(*analyze, "--k", "4096", "--m", "4096", kib=KIB).splitlines()[1:]
    rows = child(*analyze, "--k", "4095:4096", "--m", "4094:4096", kib=KIB).splitlines()
    assert cell.startswith(b"all-keys-recovery,4096,4096,") and cell in rows
    # k = 2^12 has one prime, so the reduced fraction has an odd
    # numerator and a power-of-two denominator (12,000-13,600 digits).
    num, den = (int(Decimal(field.decode())) for field in cell.split(b",")[3:5])
    assert num % 2 == 1 and den > 1 and den & (den - 1) == 0


def test_enumeration_at_the_work_bound_in_bounded_memory():
    # Two complementary 23-bit keys: 2^23 ordered assignments and 2^22
    # multisets, held as a 2^22 x 2 uint64 table of 64 MiB.
    analyze = (*CLI, "analyze", "--keys", COMPLEMENTS, "--seed", "7")
    out = child(*analyze, kib=800_000, timeout=30)
    assert json.loads(out)["results"]["key_analysis"]["multiset_count"] == 4194304
    # CSV never prints the multisets, so --enumerate builds no list of
    # them (the list took about 2.2 GB).
    out = child(*analyze, "--enumerate", "--format", "csv", kib=800_000)
    assert sha(out) == "8cb46fac129ae4c495c9e490602650bf582985c86f65677ef4646095f240026b"


def test_fast_path_samples_beyond_the_qubit_cap():
    # Three 40-bit keys make a 43-qubit circuit; the fast path reads the
    # outcomes from the keys and allocates no amplitudes.
    child(*CLI, "sample", "--oracle-path", "fast", "--seed", "7", "--keys", KEYS_40_BIT, kib=KIB)


def test_state_dump_at_23_qubits():
    # A 64 MiB gate-path state whose dump lists its 2k = 12 amplitudes.
    out = child(*CLI, "simulate", "--keys", _keys(7, 19, 6), "--seed", "7", "--dump-state",
                kib=KIB)
    assert len(json.loads(out)["results"]["statevector"]["amplitudes"]) == 12


# Gate-path CSV bytes: each digest was computed by code before the
# current gate-layer stages, so it pins them to that code's bytes.
GATE_PINS = {
    # Eight 20-bit keys: a 24-qubit state (128 MiB) at the qubit cap.
    "24q": (["simulate", "--keys", _keys(7, 20, 8)],
            "57ba9b3a1c9ab0c75036f45f15eba0732859b8cababd045517aafee94dabda58"),
    # 15 qubits, half a tile: every layer runs as stages.
    "15q": (["simulate", "--keys", _keys(7, 11, 8)],
            "3107b11620d89d111217e4269352f1a7133b10a9aa8e81cd825916bcc86941f6"),
    "15q-sample": (["sample", "--keys", "10110011100101", "--shots", "4096"],
                   "712a217bdfa58a64f45a8554afb4eaf177a0c5346fb55f0d79d152648a16376c"),
    # 18 qubits, 4 tiles whose blocks keep different halves in the last
    # data layer; 17 qubits, 2 tiles whose kept halves differ once stacked.
    "18q": (["simulate", "--keys", _keys(7, 14, 6)],
            "c985e07baddd469f4157fb4ea3f15985e036c3d4ab1979a246e27377f8ac6fec"),
    "17q": (["simulate", "--keys", _keys(7, 15, 2)],
            "eb4e0e69197525da42da7bfc09cfdd8c093b31e525ade62983c21cb6f58ea427"),
}


@pytest.mark.parametrize(
    "name, one_cpu",
    [pytest.param(name, False, id=name) for name in GATE_PINS]
    + [pytest.param(name, True, id=f"{name}-one-cpu") for name in ("24q", "18q")],
)
def test_gate_path_bytes(name, one_cpu):
    argv, digest = GATE_PINS[name]
    out = child(*CLI, *argv, "--seed", "7", "--format", "csv", kib=KIB, one_cpu=one_cpu)
    assert sha(out) == digest
    if argv[0] == "simulate":
        keys = argv[2].split(",")
        rows = [line.split(",") for line in out.decode().splitlines()[1:]]
        assert sorted(outcome for outcome, _ in rows) == sorted(keys)
        assert all(abs(float(p) - 1 / len(keys)) < 1e-12 for _, p in rows)


# argv, exit code, and the work that the refusal must come before.
REFUSALS = {
    "grid-17-cells": (["analyze", "--k", "4080:4097", "--m", "4096"], 3,
                      ["analytics._surjection_grid"]),
    "grid-10^11-ks": (["analyze", "--k", "1:100000000000", "--m", "3"], 3,
                      ["analytics._surjection_grid"]),
    "count-10^5700": (["analyze", "--keys", _keys(7, 32, 600)], 3, ["analytics._next_level"]),
    "dump-25q": (["simulate", "--keys", "0" * 23 + "1", "--seed", "7", "--dump-state"], 3,
                 ["simulator.StateVector.apply_hadamard"]),
    "adversary-m-3e8": (["adversary", "--keys", "01,10", "--m", "300000000", "--trials", "1",
                         "--seed", "7"], 3, ["adversary.estimate_bit_sums"]),
    "adversary-duplicates": (["adversary", "--keys", "0110,0110,0110,1001", "--shots",
                              "1000000000", "--seed", "7"], 2, ["adversary.estimate_bit_sums"]),
    "adversary-gate-25q": (["adversary", "--keys", COMPLEMENTS, "--seed", "7", "--trials", "10"],
                           3, ["cli.run_bit_sum_estimation", "cli.classical_guess_attack",
                               "cli.run_coupon_experiment"]),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refused_before_the_work(monkeypatch, name):
    argv, expected, work = REFUSALS[name]

    def entered(*args, **kwargs):
        raise AssertionError(f"{name} entered the work it must refuse")

    for target in work:
        monkeypatch.setattr(f"multikey_bv.{target}", entered)
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out.getvalue()) == (expected, "")
    assert peak < 4 * 2**20


def test_readme_library_example():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
