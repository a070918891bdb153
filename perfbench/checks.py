"""Output checks for the benchmark, from closed forms the package never uses.

Each check takes one command's stdout and returns a list of problems; an
empty list means the output is correct. The references are:

- the Ishizaka-Hiroshima entanglement fidelity of port-based teleportation
  with maximally entangled resources (PRL 101, 240501, 2008) and with the
  optimal resource, cos^2(pi/(N+2)) (PRA 79, 042306, 2009); the average
  fidelity over pure inputs is (2F+1)/3;
- the heralding probabilities N/(N+3) for the optimal resource and the
  tabulated fractions for the singlet resource.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

P_MES = {1: Fraction(1, 4), 2: Fraction(1, 3), 3: Fraction(13, 32),
         4: Fraction(9, 20), 5: Fraction(47, 96), 6: Fraction(29, 56)}
CLOSE = 1e-12
# Two-sided exact binomial tail below which an outcome count is wrong. With
# 10-20 trials a normal |z| < 4 rule would fail a correct sampler for about
# one workload seed in seventy; this level keeps false alarms below 1e-7 per
# run.
TAIL_LEVEL = 1e-9
FIDELITY_SE = 5.0
FIDELITY_FLOOR = 1e-9


def entanglement_fidelity_mes(n: int) -> float:
    total = sum(math.comb(n, k) * ((n - 2 * k - 1) / math.sqrt(k + 1)
                                   + (n - 2 * k + 1) / math.sqrt(n - k + 1)) ** 2
                for k in range(n + 1))
    return total / 2 ** (n + 3)


def average_fidelity(kind: str, n: int) -> float:
    if kind == "dpbt":
        f = entanglement_fidelity_mes(n)
    else:
        f = math.cos(math.pi / (n + 2)) ** 2
    return (2 * f + 1) / 3


def success_probability(kind: str, n: int) -> float:
    return float(P_MES[n]) if kind == "ppbt-mes" else n / (n + 3)


def outcome_distribution(kind: str, n: int) -> list[float]:
    if kind.startswith("dpbt"):
        return [1 / n] * n
    p = success_probability(kind, n)
    return [p / n] * n + [1 - p]


def binomial_tail(k: int, trials: int, p: float) -> float:
    """Two-sided tail: twice the smaller of P(X <= k) and P(X >= k)."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(trials * p) else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(trials + 1)

    def pmf(i: int) -> float:
        return math.exp(head - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
                        + i * log_p + (trials - i) * log_q)

    side = range(0, k + 1) if k < trials * p else range(k, trials + 1)
    return min(1.0, 2.0 * sum(pmf(i) for i in side))


def _close(a, b, tol: float = CLOSE) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


def _payload(stdout: bytes, command: str) -> tuple[dict | None, list[str]]:
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    problems = []
    if payload.get("schema") != "portsim/v1":
        problems.append(f"schema tag is {payload.get('schema')!r}")
    if payload.get("command") != command:
        problems.append(f"command field is {payload.get('command')!r}")
    return payload, problems


def _rows(payload: dict, lo: int, hi: int, problems: list[str]) -> list[dict]:
    rows = payload.get("rows", [])
    if [row.get("n_ports") for row in rows] != list(range(lo, hi + 1)):
        problems.append(f"rows cover {[row.get('n_ports') for row in rows]}")
        return []
    return rows


def check_table(stdout: bytes, metric: str, lo: int, hi: int) -> list[str]:
    payload, problems = _payload(stdout, "table")
    if payload is None:
        return problems
    for row in _rows(payload, lo, hi, problems):
        n = row["n_ports"]
        if metric == "fidelity":
            expect = {"f_mes": average_fidelity("dpbt", n),
                      "f_opt": average_fidelity("dpbt-opt", n)}
        elif metric == "success":
            expect = {"p_mes": success_probability("ppbt-mes", n),
                      "p_opt": success_probability("ppbt-opt", n)}
        else:
            expect = {"ppbt_mes_n": 5}
        for column, value in expect.items():
            if not _close(row.get(column), value):
                problems.append(f"N={n} {column}={row.get(column)!r}, expected {value!r}")
    return problems


def check_povm(stdout: bytes, suites: int) -> list[str]:
    lines = stdout.decode(errors="replace").strip().splitlines()
    summary = lines[-1] if lines else ""
    if not summary.startswith(f"{suites}/{suites} suites passed"):
        return [f"summary line is {summary!r}, expected {suites}/{suites} passed"]
    return []


def check_teleport(stdout: bytes, kind: str, n: int, trials: int, seed: int) -> list[str]:
    payload, problems = _payload(stdout, "teleport")
    if payload is None:
        return problems
    header = {"regime": kind, "n_ports": n, "trials": trials, "seed": seed}
    for key, value in header.items():
        if payload.get(key) != value:
            problems.append(f"{key} is {payload.get(key)!r}, expected {value!r}")
    summary = payload.get("summary", {})
    results = payload.get("trial_results", [])
    counts = summary.get("counts", [])
    expected = outcome_distribution(kind, n)
    if len(results) != trials or len(counts) != len(expected):
        return problems + [f"{len(results)} trial records and {len(counts)} counts"]
    if sum(counts) != trials:
        problems.append(f"counts sum to {sum(counts)}, not {trials}")
    tally = [0] * len(expected)
    for record in results:
        tally[record["outcome"] - 1] += 1
    if tally != counts:
        problems.append("counts disagree with the trial records")
    for slot, (p_out, p_ref) in enumerate(zip(summary.get("expected_probabilities", []),
                                              expected), start=1):
        if not _close(p_out, p_ref):
            problems.append(f"expected probability {slot} is {p_out}, closed form {p_ref}")
    z_scores = summary.get("outcome_z", [])
    if summary.get("max_abs_z") != max((abs(z) for z in z_scores), default=None):
        problems.append("max_abs_z is not the largest |outcome_z|")
    for slot, (count, p) in enumerate(zip(counts, expected), start=1):
        tail = binomial_tail(count, trials, p)
        if tail < TAIL_LEVEL:
            problems.append(f"outcome {slot}: count {count} of {trials} at p={p:.6g} "
                            f"has binomial tail {tail:.2e}")
    successes = [r for r in results if r["success"]]
    if any(r["success"] != (r["outcome"] <= n) for r in results):
        problems.append("success flags disagree with outcomes")
    if kind.startswith("dpbt"):
        problems += _check_mean_fidelity(successes, summary, kind, n, trials)
    else:
        bad = [r["trial"] for r in successes if abs(r["fidelity"] - 1.0) > FIDELITY_FLOOR]
        if bad:
            problems.append(f"heralded trials {bad[:5]} have fidelity away from 1")
        if not _close(summary.get("exact_success_probability"), success_probability(kind, n)):
            problems.append("exact_success_probability disagrees with the closed form")
    return problems


def _check_mean_fidelity(successes, summary, kind, n, trials) -> list[str]:
    if len(successes) != trials:
        return ["a deterministic protocol reported a failed trial"]
    exact = average_fidelity(kind, n)
    problems = []
    if not _close(summary.get("exact_fidelity"), exact):
        problems.append(f"exact_fidelity {summary.get('exact_fidelity')} "
                        f"disagrees with the closed form {exact}")
    values = [r["fidelity"] for r in successes]
    mean = sum(values) / len(values)
    if not _close(summary.get("mean_success_fidelity"), mean):
        problems.append("mean_success_fidelity is not the mean of the trial fidelities")
    var = sum((v - mean) ** 2 for v in values) / max(1, len(values) - 1)
    allowed = max(FIDELITY_SE * math.sqrt(var / len(values)), FIDELITY_FLOOR)
    if abs(mean - exact) > allowed:
        problems.append(f"mean fidelity {mean} is {abs(mean - exact):.3e} from {exact}, "
                        f"more than {allowed:.3e}")
    return problems
