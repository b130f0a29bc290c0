"""Correctness checks for CLI outputs, each by a route independent of the program.

`check(op, text)` returns None when the JSON record printed for `op` is
right, else a one-line reason.  Exact answers are recomputed here from
the key strings (multiplicities with a Counter, bit sums from the text,
recovery probabilities from Stirling numbers); Monte Carlo answers must
fall within SIGMAS standard errors of their theory.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

PROB_TOL = 1e-10
MIN_CHI_P = 1e-6
SIGMAS = 5
BRUTE_FORCE_LIMIT = 100_000

# Multiset counts of the constant-work key families (see workloads.py).
FAMILIES = {"5x5-w23": {"multisets": 923, "distinct": 752}}


def recovery_rationals(ks, ms) -> dict[tuple[int, int], Fraction]:
    """P(m uniform draws from k outcomes show all k) = k! S(m, k) / k**m,
    for every k in ks and m in ms, from one Stirling-number recurrence."""
    kmax, wanted = max(ks), set(ms)
    out = {}
    row = [1] + [0] * kmax  # S(j, 0..kmax), starting at j = 0
    for j in range(max(ms) + 1):
        if j > 0:
            for i in range(kmax, 0, -1):
                row[i] = i * row[i] + row[i - 1]
            row[0] = 0
        if j in wanted:
            for k in ks:
                out[k, j] = Fraction(math.factorial(k) * row[k], k**j)
    return out


def digest(num: str, den: str) -> str:
    return hashlib.sha256(f"{num}/{den}".encode()).hexdigest()[:16]


# digest(numerator, denominator) of recovery_rationals for every
# grid cell the workloads and the warm-up request; test_perfbench.py
# recomputes them.
GRID_DIGESTS = {
    (2, 4): "fc5755dd88ccc67d",
    (3, 4): "2b4a3397494a9e1b",
    (296, 1690): "37cf6aafb88a0b1d",
    (296, 1691): "0e57087bac094212",
    (296, 1692): "a0eb067a30b34be9",
    (296, 1693): "19d8102b07d67b40",
    (296, 1694): "ca23f532e5e0ce7c",
    (296, 1695): "bc7bc4d52616b5be",
    (296, 1696): "65f92b6357cf4c29",
    (296, 1697): "bca4f0cf08fd3fe7",
    (296, 1698): "bb6d3343a25ecc50",
    (296, 1699): "b622281d83d52b09",
    (296, 1700): "59e8a024eaaf3ba7",
    (297, 1690): "3f34fd64e8d7d370",
    (297, 1691): "8391bc16df5c2764",
    (297, 1692): "d01ac643ac23ddf0",
    (297, 1693): "0646241fc273a0bc",
    (297, 1694): "61292c95446737a5",
    (297, 1695): "3dd385366e87f085",
    (297, 1696): "912d6a413c489a43",
    (297, 1697): "c01ec92f52646e1e",
    (297, 1698): "49c3cd0887422b85",
    (297, 1699): "d1c769a192c4d805",
    (297, 1700): "08576c14e92d1b7f",
    (298, 1690): "dd3eefc8d87989ae",
    (298, 1691): "811e87fa96be0cf4",
    (298, 1692): "f66a063d27a78796",
    (298, 1693): "7845c5c7968fe440",
    (298, 1694): "5ba788b87f652950",
    (298, 1695): "cc1903942b0c223c",
    (298, 1696): "f92d175fffe6b9d1",
    (298, 1697): "b2ae17233d01610a",
    (298, 1698): "8f2380a27d21cc49",
    (298, 1699): "17b7bc14091ee536",
    (298, 1700): "fcddd0b7bbf30a35",
    (299, 1690): "2f3ab2cb47f23412",
    (299, 1691): "f9f5438ea8d31d34",
    (299, 1692): "3fd9c0102098a928",
    (299, 1693): "c3e59e1f0078187e",
    (299, 1694): "6808a32788184352",
    (299, 1695): "ddc0487048e54978",
    (299, 1696): "62b5aed80f4e8988",
    (299, 1697): "81348036e5717c5b",
    (299, 1698): "d2d2708d123aaaa8",
    (299, 1699): "22d1a1cddfb16cea",
    (299, 1700): "3ad62b47b3ca00d9",
    (300, 1690): "b0f0efeb36a9ef4c",
    (300, 1691): "372c10b967d6c395",
    (300, 1692): "1e11eb6b4c8ddacc",
    (300, 1693): "bd4a7c10544c6615",
    (300, 1694): "f756a788ec71d3ef",
    (300, 1695): "8031755bc49f8954",
    (300, 1696): "837ecfcfdd4d7edb",
    (300, 1697): "4b3f17237d53447c",
    (300, 1698): "7a87bb293c92aeaf",
    (300, 1699): "c592d092ab357e1b",
    (300, 1700): "45603cb63a4af350",
}


def _bit_sums(keys) -> list[int]:
    """counts[q] = number of keys with bit q set; bit 0 is the last character."""
    n = len(keys[0])
    return [sum(key[n - 1 - q] == "1" for key in keys) for q in range(n)]


def _close(a: float, b: float, tol: float = PROB_TOL) -> bool:
    return abs(a - b) <= tol


def _rational(rec: dict) -> Fraction:
    return Fraction(int(rec["rational"]["num"]), int(rec["rational"]["den"]))


def _within_sigmas(rate: float, theory: float, trials: int) -> bool:
    sigma = math.sqrt(theory * (1.0 - theory) / trials)
    return abs(rate - theory) <= SIGMAS * sigma + 1e-12


def _check_simulate(op, res) -> str | None:
    keys = op.keys
    n, k = len(keys[0]), len(keys)
    want = n + 1 + math.ceil(math.log2(k))
    if res["total_qubits"] != want:
        return f"total_qubits {res['total_qubits']} != {want}"
    mult = Counter(keys)
    dist = {row["outcome"]: row["probability"] for row in res["distribution"]}
    if set(dist) != set(mult):
        return "distribution support differs from the key set"
    for key, b in mult.items():
        if not _close(dist[key], b / k):
            return f"P({key}) = {dist[key]}, expected {b}/{k}"
    return None


def _check_sample(op, res) -> str | None:
    keys, shots = op.keys, op.params["shots"]
    k = len(keys)
    mult = Counter(keys)
    rows = res["histogram"]
    if res["shots"] != shots or sum(row["count"] for row in rows) != shots:
        return "histogram counts do not sum to the shot count"
    for row in rows:
        if row["count"] and row["outcome"] not in mult:
            return f"outcome {row['outcome']} is not a key"
        if not _close(row["exact_probability"], mult[row["outcome"]] / k):
            return f"exact probability of {row['outcome']} is wrong"
    chi = res["chi_square"]
    if len(mult) == 1:
        return None if chi is None else "chi-square reported for a single outcome"
    if chi is None or chi["p_value"] < MIN_CHI_P:
        return f"chi-square p-value {chi and chi['p_value']} below {MIN_CHI_P}"
    return None


def _brute_force_multisets(profile: list[int], k: int, n: int) -> tuple[int, int]:
    """(multisets, duplicate-free multisets) of k n-bit values with this bit-sum profile."""
    total = distinct = 0
    for ms in itertools.combinations_with_replacement(range(1 << n), k):
        if all(sum((v >> q) & 1 for v in ms) == r for q, r in enumerate(profile)):
            total += 1
            distinct += len(set(ms)) == k
    return total, distinct


def _check_analyze_keys(op, res) -> str | None:
    keys = op.keys
    n, k = len(keys[0]), len(keys)
    ka = res["key_analysis"]
    profile = _bit_sums(keys)
    if [row["ones"] for row in ka["bit_sums"]] != profile:
        return "bit sums differ from the keys"
    ordered = math.prod(math.comb(k, r) for r in profile)
    if ka["ordered_count"] != ordered:
        return f"ordered_count {ka['ordered_count']} != {ordered}"
    family = op.params.get("family")
    if family is not None:
        want = FAMILIES[family]["multisets"], FAMILIES[family]["distinct"]
    elif math.comb((1 << n) + k - 1, k) <= BRUTE_FORCE_LIMIT:
        want = _brute_force_multisets(profile, k, n)
    else:
        return "no reference multiset count for these keys"
    if (ka["multiset_count"], ka["distinct_multiset_count"]) != want:
        return f"multiset counts {ka['multiset_count']}, {ka['distinct_multiset_count']} != {want}"
    perms = math.factorial(k)
    for b in Counter(keys).values():
        perms //= math.factorial(b)
    if _rational(ka["guess_exact"]) != Fraction(perms, ordered):
        return "guess_exact differs from k!/prod(b!) / ordered"
    if _rational(ka["guess_upper_bound"]) != min(Fraction(math.factorial(k), ordered), 1):
        return "guess_upper_bound differs from min(k!/ordered, 1)"
    listed = [tuple(int(v, 2) for v in ms) for ms in ka.get("multisets", ())]
    if len(set(listed)) != want[0]:
        return f"{len(set(listed))} multisets listed, expected {want[0]}"
    for ms in listed:
        if list(ms) != sorted(ms) or _bit_sums([format(v, f"0{n}b") for v in ms]) != profile:
            return f"listed multiset {ms} is unsorted or inconsistent"
    return None


def _check_analyze_grid(op, res) -> str | None:
    for rec in res["recovery_grid"]:
        cell = rec["inputs"]["k"], rec["inputs"]["m"]
        num, den = rec["rational"]["num"], rec["rational"]["den"]
        if GRID_DIGESTS.get(cell) != digest(num, den):
            return f"recovery rational for (k, m) = {cell} does not match its digest"
        if not math.isclose(rec["double"], float(_rational(rec)), rel_tol=1e-12, abs_tol=1e-300):
            return f"double rendering for {cell} differs from the rational"
    return None


def _check_adversary(op, res) -> str | None:
    keys, p = op.keys, op.params
    n, k = len(keys[0]), len(keys)
    bits, guess, coupon = res["reports"]
    truth = _bit_sums(keys)
    if bits["queries"] != n * p["shots"]:
        return f"bit-sum queries {bits['queries']} != n*shots = {n * p['shots']}"
    if bits["rounded_counts"] != truth or bits["true_counts"] != truth:
        return "bit-sum estimate does not round to the true profile"
    if guess["queries"] != 0 or guess["runs"] != p["trials"]:
        return "guess attack ledger is wrong"
    theory = guess["theory_success_probability"]
    if not _close(theory, 1 / guess["candidate_pool_size"], 1e-15):
        return "guess theory is not 1 / candidate pool size"
    if not _within_sigmas(guess["success_probability"], theory, p["trials"]):
        return f"guess rate {guess['success_probability']} is beyond {SIGMAS} sigma of {theory}"
    if coupon["queries"] != p["m"] * p["trials"]:
        return f"coupon queries {coupon['queries']} != m*trials"
    theory = coupon["theory_success_probability"]
    if not _close(theory, float(recovery_rationals([k], [p["m"]])[k, p["m"]]), 1e-12):
        return "coupon theory differs from k! S(m, k) / k**m"
    if not _within_sigmas(coupon["success_probability"], theory, p["trials"]):
        return f"coupon rate {coupon['success_probability']} is beyond {SIGMAS} sigma of {theory}"
    return None


_CHECKS = {
    "simulate": _check_simulate,
    "sample": _check_sample,
    "analyze-keys": _check_analyze_keys,
    "analyze-grid": _check_analyze_grid,
    "adversary": _check_adversary,
}


def check(op, text: str) -> str | None:
    """None if `text`, the record printed for `op`, is correct; else why not."""
    try:
        results = json.loads(text)["results"]
        return _CHECKS[op.kind](op, results)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed record: {exc!r}"
