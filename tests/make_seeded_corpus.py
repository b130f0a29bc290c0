"""Record the seeded-output corpus, `tests/data/seeded_corpus.json`.

Each entry is one literal CLI argv, run in-process once per output
format (json, csv, text).  For each format the corpus holds the exit
code and the sha256 of stdout and of stderr.  In JSON output every
`"wall_time_s": <number>` is replaced by `"wall_time_s": 0` on the raw
text before hashing, so indentation and key order stay pinned.

Entries:

- every op of the three benchmark workloads at seed 5
  (`perfbench/workloads.py`, 971 ops);
- refusal probes: inputs the CLI must refuse with exit 2 or 3;
- the README CLI examples, which no other test runs (an example
  without `--seed` is recorded with `--seed 7`, since an unseeded run
  is not reproducible);
- one seeded run of each command with every other flag at its default;
- fast-path state dumps beyond the gate path's qubit cap.

`tests/test_seeded_corpus.py` replays the corpus.  Regenerate it from
the repository root after a deliberate output change, and name the
entries that changed:

    PYTHONPATH=src python tests/make_seeded_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import random
import re
import sys

from multikey_bv import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "seeded_corpus.json"
FORMATS = ("json", "csv", "text")
WORKLOAD_SEED = 5

_WALL_TIME = re.compile(r'"wall_time_s": [-+0-9.eE]+')

KEYS_4 = "0001,0011,1011,1110"
KEYS_40_BIT = (
    "1010010110100101101001011010010110100101,"
    "0001001000110100010101100111100010011010,"
    "1111111111111111000000000000000011111111"
)


def _keys(seed: int, n: int, k: int) -> str:
    values = random.Random(seed).sample(range(1 << n), k)
    return ",".join(format(v, f"0{n}b") for v in values)


def _workload_argvs() -> list[tuple[str, list[str]]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [
        (f"workload:{name}", list(op.argv))
        for name in workloads.WORKLOADS
        for op in workloads.generate(name, WORKLOAD_SEED)
    ]


REFUSALS = [
    ["simulate", "--seed", "7"],
    ["simulate", "--keys", "01a", "--seed", "7"],
    ["simulate", "--keys", "011,101", "--n", "4", "--seed", "7"],
    ["simulate", "--keys", "00,01,10,11,00", "--seed", "7"],
    ["simulate", "--keys", "01,10", "--seed", "-1"],
    ["simulate", "--keys", "01,10", "--seed", "7", "--out", "/nonexistent/dir/x.json"],
    ["simulate", "--keys", "0" * 23 + "1", "--seed", "7", "--dump-state"],
    ["simulate", "--keys", "0" * 30 + "1", "--seed", "7", "--dump-state",
     "--oracle-path", "gate"],
    ["sample", "--keys", "0" * 30 + "1", "--seed", "7"],
    ["sample", "--keys", "011,101", "--shots", "0", "--seed", "7"],
    ["analyze", "--seed", "7"],
    ["analyze", "--k", "2", "--seed", "7"],
    ["analyze", "--k", "2", "--m", "x", "--seed", "7"],
    ["analyze", "--k", "4090:4097", "--m", "4096", "--seed", "7"],
    ["analyze", "--k", "1:100000000000", "--m", "3", "--seed", "7"],
    ["analyze", "--keys", "01,10", "--work-bound", "0", "--seed", "7"],
    ["analyze", "--keys", "00001111,01010101,00110011,11110000",
     "--work-bound", "10", "--seed", "7"],
    ["analyze", "--keys", ",".join(["0"] * 4097), "--n", "1", "--seed", "7"],
    ["analyze", "--keys", ",".join(["0" * 13] * 4097), "--seed", "7"],
    ["analyze", "--keys", _keys(7, 32, 600), "--seed", "7"],
    ["adversary", "--keys", "01,10", "--m", "300000000", "--trials", "1",
     "--seed", "7"],
    ["adversary", "--keys", "01,10", "--m", "5000", "--trials", "1", "--seed", "7"],
    ["adversary", "--keys", "01,10", "--trials", "0", "--seed", "7"],
    ["adversary", "--keys", "01,10", "--shots", "0", "--seed", "7"],
    ["adversary", "--keys", "01,10", "--work-bound", "0", "--seed", "7"],
    ["adversary", "--keys", "0110,0110,0110,1001", "--shots", "1000000000",
     "--seed", "7"],
    ["adversary", "--keys", _keys(7, 32, 600), "--m", "4096", "--trials", "1",
     "--shots", "1", "--seed", "7"],
]

README = [
    ["simulate", "--keys", "011,101", "--seed", "7"],
    ["sample", "--keys", "010,011,011,101", "--shots", "1024", "--seed", "7"],
    ["simulate", "--keys", "010,011,011,101", "--oracle-path", "fast",
     "--dump-state", "--seed", "7"],
    ["sample", "--keys", "010,011,011,101", "--oracle-path", "fast",
     "--shots", "1024", "--seed", "7"],
    ["analyze", "--k", "2", "--m", "2:6", "--seed", "7"],
    ["analyze", "--keys", KEYS_4, "--enumerate", "--seed", "7"],
    ["adversary", "--keys", KEYS_4, "--m", "24", "--trials", "10000", "--seed", "7"],
]

DEFAULTS = [
    [command, "--keys", KEYS_4, "--seed", "7"]
    for command in ("simulate", "sample", "analyze", "adversary")
]

FAST_DUMPS_ABOVE_CAP = [
    ["simulate", "--keys", "0" * 30 + "1", "--seed", "7", "--dump-state",
     "--oracle-path", "fast"],
    ["simulate", "--keys", _keys(26, 22, 8), "--seed", "7", "--dump-state",
     "--oracle-path", "fast"],
    ["simulate", "--keys", KEYS_40_BIT, "--seed", "7", "--dump-state",
     "--oracle-path", "fast"],
]


def corpus_argvs() -> list[tuple[str, list[str]]]:
    """(group, argv) for every corpus entry, in corpus order."""
    return (
        _workload_argvs()
        + [("refusal", argv) for argv in REFUSALS]
        + [("readme", argv) for argv in README]
        + [("defaults", argv) for argv in DEFAULTS]
        + [("fast-dump-above-cap", argv) for argv in FAST_DUMPS_ABOVE_CAP]
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_formats(argv: list[str]) -> dict[str, list]:
    """[exit code, sha256 of stdout, sha256 of stderr] per output format."""
    result = {}
    for fmt in FORMATS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([*argv, "--format", fmt])
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        if fmt == "json":
            text = _WALL_TIME.sub('"wall_time_s": 0', text)
        result[fmt] = [code, _sha(text), _sha(err.getvalue())]
    return result


def main() -> None:
    entries = [
        {"group": group, "argv": argv, **run_formats(argv)}
        for group, argv in corpus_argvs()
    ]
    CORPUS.parent.mkdir(exist_ok=True)
    with open(CORPUS, "w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(e, separators=(",", ":")) for e in entries))
        fh.write("\n]\n")
    print(f"wrote {len(entries)} entries to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
