"""Command-line experiment runner.

Every run emits a single record (JSON by default) that echoes the full
configuration, the seed, and the library version, so reruns with the
same seed are byte-identical apart from the wall-time field.  CSV is a
flat projection of the main table, which every command fills with at
least one row; text is a human-readable rendering.

An argv that starts with a command name is parsed once, by that
command's parser; any other argv goes through the full parser.  Both
routes give the same namespace, usage and errors (see `_parse`).  JSON
comes from `_json_text`, which writes the bytes of
`json.dumps(record, indent=2)` without its pure-Python encoder.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import secrets
import sys
import time
from fractions import Fraction
from gettext import gettext
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .adversary import (
    _require_distinct,
    classical_guess_attack,
    run_bit_sum_estimation,
    run_coupon_experiment,
    run_single_key_baseline,
)
from .analytics import (
    DEFAULT_WORK_BOUND,
    check_work_bound,
    classical_guess_bound,
    classical_guess_exact,
    count_consistent_keysets,
    probability_record,
    recovery_grid,
)
from .errors import CapacityError, InputError
from .keyspace import KeySet, bit_sum_profile, format_key, multiplicity
from .simulator import (
    check_register,
    chi_square_vs_exact,
    control_width,
    exact_distribution,
    measure_data_register,
    run_circuit,
)

SCHEMA_ID = "multikey-bv/run.v1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _parse_keys(args) -> KeySet:
    if not args.keys:
        raise InputError("--keys is required for this command")
    texts = [t.strip() for t in args.keys.split(",") if t.strip()]
    return KeySet.from_strings(texts, n=args.n)


def _parse_range(text: str, flag: str) -> range:
    """Accept '3' or an inclusive range '2:6'.  The range is not built:
    `recovery_grid` checks its bounds before computing any cell."""
    try:
        lo, sep, hi = text.partition(":")
        lo = int(lo)
        hi = int(hi) if sep else lo
        if hi < lo:
            raise ValueError
        return range(lo, hi + 1)
    except ValueError:
        raise InputError(f"{flag} expects an integer or 'lo:hi', got {text!r}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        return args.seed
    seed = secrets.randbelow(2**32)
    print(f"note: no --seed given, using randomized seed {seed}", file=sys.stderr)
    return seed


def _base_record(command: str, config: dict, seed: int) -> dict:
    return {
        "schema": SCHEMA_ID,
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
    }


def cmd_simulate(args) -> tuple[dict, list[dict]]:
    keys = _parse_keys(args)
    seed = _resolve_seed(args)
    state = run_circuit(keys, oracle_path=args.oracle_path)
    dist = exact_distribution(state)
    record = _base_record(
        "simulate",
        {
            "keys": list(keys.strings()),
            "n": keys.n,
            "k": keys.k,
            "oracle_path": args.oracle_path,
            "dump_state": args.dump_state,
        },
        seed,
    )
    rows = [
        {"outcome": format_key(x, keys.n), "probability": p} for x, p in dist.items()
    ]
    record["results"] = {
        "total_qubits": state.total_qubits,
        "control_qubits": state.r,
        "distribution": rows,
    }
    if args.dump_state:
        record["results"]["statevector"] = {
            "layout": "basis string is controls|target|data, MSB first",
            "amplitudes": [
                {
                    "basis": format(i, f"0{state.total_qubits}b"),
                    "re": float(amp.real),
                    "im": float(amp.imag),
                }
                for i, amp in state.nonzero_amplitudes()
            ],
        }
    return record, rows


def cmd_sample(args) -> tuple[dict, list[dict]]:
    keys = _parse_keys(args)
    seed = _resolve_seed(args)
    if args.shots < 1:
        raise InputError(f"shots must be >= 1, got {args.shots}")
    dist = exact_distribution(run_circuit(keys, oracle_path=args.oracle_path))
    counts = measure_data_register(dist, args.shots, np.random.default_rng(seed))
    chi = chi_square_vs_exact(counts, dist)
    record = _base_record(
        "sample",
        {
            "keys": list(keys.strings()),
            "n": keys.n,
            "k": keys.k,
            "shots": args.shots,
            "oracle_path": args.oracle_path,
        },
        seed,
    )
    rows = [
        {"outcome": format_key(x, keys.n), "count": count,
         "probability": count / args.shots, "exact_probability": p}
        for (x, p), count in zip(dist.items(), counts.tolist())
    ]
    record["results"] = {
        "shots": args.shots,
        "histogram": rows,
        "chi_square": chi,
    }
    if chi is None:
        record["results"]["notice"] = (
            "chi-square omitted: needs at least 2 shots and 2 possible outcomes"
        )
    return record, rows


def cmd_analyze(args) -> tuple[dict, list[dict]]:
    seed = _resolve_seed(args)
    config = {
        "keys": None,
        "n": args.n,
        "k": args.k,
        "m": args.m,
        "enumerate": args.enumerate,
        "work_bound": args.work_bound,
    }
    results: dict = {}
    rows: list[dict] = []

    if args.k is not None or args.m is not None:
        if args.k is None or args.m is None:
            raise InputError("--k and --m must be given together for the recovery grid")
        grid = []
        ks = _parse_range(args.k, "--k")
        ms = _parse_range(args.m, "--m")
        for k, m, p in recovery_grid(ks, ms):
            rec = probability_record("all-keys-recovery", {"k": k, "m": m}, p)
            grid.append(rec)
            rows.append(_rational_row("all-keys-recovery", k, m, rec))
        results["recovery_grid"] = grid

    if args.keys:
        keys = _parse_keys(args)
        config["keys"] = list(keys.strings())
        config["n"] = keys.n
        profile = bit_sum_profile(keys)
        mult = multiplicity(keys)
        count = count_consistent_keysets(
            profile, keys.k, work_bound=args.work_bound
        )
        bound = classical_guess_bound(profile, keys.k)
        exact = classical_guess_exact(profile, mult)
        # The keys' own profile admits them, so they are always in the pool.
        pool_size = (
            count.distinct_multiset_count
            if keys.all_distinct()
            else count.multiset_count
        )
        guess_bound = probability_record(
            "profile-guess-upper-bound", {"k": keys.k}, bound
        )
        guess_exact = probability_record("profile-guess-exact", {"k": keys.k}, exact)
        uniform_pick = probability_record(
            "uniform-pick-among-combinations",
            {"combinations": pool_size},
            Fraction(1, pool_size),
        )
        results["key_analysis"] = {
            "bit_sums": [
                {"position": q, "ones": c} for q, c in enumerate(profile)
            ],
            "distinct_keys": [format_key(v, keys.n) for v in mult.distinct],
            "occurrences": list(mult.counts),
            "ordered_permutations": mult.permutations,
            "ordered_count": count.ordered_count,
            "multiset_count": count.multiset_count,
            "distinct_multiset_count": count.distinct_multiset_count,
            "guess_upper_bound": guess_bound,
            "guess_exact": guess_exact,
            "uniform_multiset_model": uniform_pick,
        }
        if args.enumerate and args.format == "json":
            # Only JSON prints the list.  Each distinct key value is
            # rendered once.
            values, index = count.key_values()
            names = [format_key(v, keys.n) for v in values]
            results["key_analysis"]["multisets"] = [
                [names[i] for i in row] for row in index.tolist()
            ]
        for q, c in enumerate(profile):
            rows.append(
                {
                    "name": f"bit-sum-position-{q}",
                    "k": keys.k,
                    "m": None,
                    "num": str(c),
                    "den": "1",
                    "double": float(c),
                }
            )
        rows.append(_rational_row("guess-upper-bound", keys.k, None, guess_bound))
        rows.append(_rational_row("guess-exact", keys.k, None, guess_exact))

    if not results:
        raise InputError("analyze needs --keys and/or a --k/--m grid")

    record = _base_record("analyze", config, seed)
    record["results"] = results
    return record, rows


def _rational_row(name: str, k: int, m: int | None, rec: dict) -> dict:
    """A CSV/text row of the rational in a `probability_record` dict."""
    return {
        "name": name,
        "k": k,
        "m": m,
        "num": rec["rational"]["num"],
        "den": rec["rational"]["den"],
        "double": rec["double"],
    }


def cmd_adversary(args) -> tuple[dict, list[dict]]:
    keys = _parse_keys(args)
    seed = _resolve_seed(args)
    k = keys.k
    m = args.m_int if args.m_int is not None else 3 * k
    # Every refusal comes before the bit-sum estimate, the guess attack's
    # enumeration and any circuit run.  recovery_grid checks its cells at
    # the call, so an m outside the coupon theory's exact range is refused
    # here, with duplicate keys, --shots and --trials, then the guess
    # attack's work bound, then a gate-path state above the qubit cap
    # (a coupon experiment with m < k runs no circuit).
    recovery_grid([k], [m])
    _require_distinct(keys)
    if k > 1 and args.shots < 1:
        raise InputError(f"shots must be >= 1, got {args.shots}")
    if args.trials < 1:
        raise InputError(f"trials must be >= 1, got {args.trials}")
    if k > 1:
        check_work_bound(bit_sum_profile(keys), k, args.work_bound)
    if args.oracle_path == "gate" and m >= k:
        check_register(keys.n, control_width(k))
    streams = np.random.SeedSequence(seed).spawn(3)
    stream_seeds = [int(s.generate_state(1)[0]) for s in streams]

    reports = []
    if k == 1:
        reports.append(run_single_key_baseline(keys, stream_seeds[0]))
    else:
        reports.append(
            run_bit_sum_estimation(keys, args.shots, stream_seeds[0])
        )
        reports.append(
            classical_guess_attack(
                keys,
                runs=args.trials,
                seed=stream_seeds[1],
                work_bound=args.work_bound,
            )
        )
    reports.append(
        run_coupon_experiment(
            keys, m, args.trials, stream_seeds[2], args.oracle_path
        )
    )

    record = _base_record(
        "adversary",
        {
            "keys": list(keys.strings()),
            "n": keys.n,
            "k": k,
            "m": m,
            "trials": args.trials,
            "shots": args.shots,
            "oracle_path": args.oracle_path,
            "work_bound": args.work_bound,
        },
        seed,
    )
    record["results"] = {
        "reports": [r.to_record() for r in reports],
        "comparison": {
            "quantum_success": reports[-1].success_probability,
            "classical_success": reports[1].success_probability
            if k > 1
            else reports[0].success_probability,
        },
    }
    rows = [
        {
            "strategy": r.strategy,
            "queries": r.queries,
            "success_probability": r.success_probability,
            "claims_certainty": r.claims_certainty,
        }
        for r in reports
    ]
    return record, rows


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_text(o, pad: str = "\n") -> str:
    """The text `json.dumps(o, indent=2)` gives o at the indent of pad.

    pad is a newline and the spaces of o's own indent.  Types are tested
    in json's order, so subclasses (np.float64, say) render as json
    renders them.  Dict keys must be str.
    """
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_json_text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in o.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _render_text(record: dict, rows: list[dict]) -> str:
    lines = [
        f"command: {record['command']}   seed: {record['seed']}   "
        f"version: {record['version']}"
    ]
    headers = list(rows[0].keys())
    widths = [max(len(h), *(len(_cell(r.get(h))) for r in rows)) for h in headers]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        lines.append(
            "  ".join(_cell(r.get(h)).ljust(w) for h, w in zip(headers, widths))
        )
    notice = record.get("results", {}).get("notice")
    if notice:
        lines.append(f"notice: {notice}")
    chi = record.get("results", {}).get("chi_square")
    if chi:
        lines.append(
            f"chi-square: stat={chi['statistic']:.6g} dof={chi['dof']} "
            f"p={chi['p_value']:.6g}"
        )
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _open_out(out_path: str, mode: str):
    try:
        return open(out_path, mode)
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc.strerror}") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with _open_out(out_path, "w") as fh:
            fh.write(text)
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, built once."""
    parser = argparse.ArgumentParser(
        prog="multikey-bv",
        description="Simulate and analyze multi-key Bernstein-Vazirani experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, oracle=True):
        p.add_argument("--keys", help="comma-separated MSB-first binary keys, e.g. 011,101")
        p.add_argument("--n", type=int, default=None, help="expected key length (validated)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed; randomized and printed if omitted")
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        if oracle:
            p.add_argument("--oracle-path", choices=["gate", "fast"], default="gate",
                           dest="oracle_path", help="oracle construction to simulate")

    p_sim = sub.add_parser("simulate", help="exact data-register distribution")
    common(p_sim)
    p_sim.add_argument("--dump-state", action="store_true", dest="dump_state",
                       help="include the final state's nonzero amplitudes")
    p_sim.set_defaults(func=cmd_simulate)

    p_samp = sub.add_parser("sample", help="seeded measurement histogram")
    common(p_samp)
    p_samp.add_argument("--shots", type=int, default=1024, help="number of measurements")
    p_samp.set_defaults(func=cmd_sample)

    p_an = sub.add_parser("analyze", help="exact recovery probabilities and key combinatorics")
    common(p_an, oracle=False)
    p_an.add_argument("--k", default=None, help="key count or range lo:hi for the recovery grid")
    p_an.add_argument("--m", default=None, help="query count or range lo:hi for the recovery grid")
    p_an.add_argument("--enumerate", action="store_true",
                      help="include the consistent multiset list in the output")
    p_an.add_argument("--work-bound", type=int, default=DEFAULT_WORK_BOUND,
                      dest="work_bound", help="refuse enumerations larger than this")
    p_an.set_defaults(func=cmd_analyze)

    p_adv = sub.add_parser("adversary", help="quantum vs classical strategy comparison")
    common(p_adv)
    p_adv.add_argument("--m", type=int, default=None, dest="m_int",
                       help="measurements per quantum trial (default 3k)")
    p_adv.add_argument("--trials", type=int, default=10_000,
                       help="Monte Carlo trials per strategy")
    p_adv.add_argument("--shots", type=int, default=1024,
                       help="oracle queries per bit for bit-sum estimation")
    p_adv.add_argument("--work-bound", type=int, default=DEFAULT_WORK_BOUND,
                       dest="work_bound")
    p_adv.set_defaults(func=cmd_adversary)

    return parser, dict(sub.choices)


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse(argv) -> argparse.Namespace:
    """The namespace, usage and errors of `build_parser().parse_args(argv)`.

    The full parse classifies every token, then hands all of them after
    a command name to that command's parser.  So when argv[0] names a
    command, its parser parses the rest directly, and leftovers are
    refused by the top-level parser with parse_args' message.  A token
    `--=...` is one exception: outside a `--` tail the top-level parser
    refuses it as ambiguous (it prefixes both --help and --version), so
    an argv holding one takes the full parse, as does every argv that
    does not start with a command.
    """
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None or any(arg.startswith("--=") for arg in argv):
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    created = False
    try:
        if args.out:
            # --out is checked before the run, so an unwritable path is
            # refused before any work.  Opening for append keeps an
            # existing file's bytes; a file this check creates is removed
            # unless the run writes it.
            existed = os.path.exists(args.out)
            _open_out(args.out, "a").close()
            created = not existed
        record, rows = args.func(args)
        record["wall_time_s"] = time.perf_counter() - t0
        if args.format == "json":
            text = _json_text(record) + "\n"
        elif args.format == "csv":
            text = _render_csv(rows)
        else:
            text = _render_text(record, rows)
        _emit(text, args.out)
        created = False
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    finally:
        if created:
            os.remove(args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
