"""Output checks: the benchmark's own triangle census and golden comparisons.

Census integers are checked exactly against `triangle_types`, which counts
common neighbours per edge with bitsets and shares no code with the
package.  Floats are checked against the values this benchmark recorded for
the same input seed (golden/), within REL relative (or ABS absolute, for
values that cancel to near zero).  Every check returns a list of problems;
an empty list means the output is correct.
"""

import base64
import csv
import io
import json
import math
import os

import numpy as np

REL = 1e-9
ABS = 1e-12
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
COVERAGE_FLOAT_FIELDS = ("rho", "alpha", "coverage", "mean_ci_length", "mean_estimate", "true_w")


def triangle_types(n, u, v, sign):
    """{total, c1..c4, balanced} for the edges u < v with the given signs.

    For each edge, the third nodes of its triangles are the common
    neighbours of its ends; splitting them by the signs of the two other
    edges gives the triangle's negative-edge count.  Every triangle is seen
    once from each of its three edges.
    """
    words = (n + 63) // 64
    pos = np.zeros((n, words), dtype=np.uint64)
    neg = np.zeros((n, words), dtype=np.uint64)
    for a, b in ((u, v), (v, u)):
        bits = np.left_shift(np.uint64(1), (b % 64).astype(np.uint64))
        for table, mask in ((pos, sign > 0), (neg, sign < 0)):
            np.bitwise_or.at(table, (a[mask], b[mask] // 64), bits[mask])
    seen = [0, 0, 0, 0]  # by negative-edge count
    chunk = max(1, (1 << 22) // words)
    for lo in range(0, u.size, chunk):
        cu, cv, cs = u[lo:lo + chunk], v[lo:lo + chunk], sign[lo:lo + chunk]
        pu, nu, pv, nv = pos[cu], neg[cu], pos[cv], neg[cv]
        pp = np.bitwise_count(pu & pv).sum(axis=1, dtype=np.int64)
        mixed = (np.bitwise_count(pu & nv).sum(axis=1, dtype=np.int64)
                 + np.bitwise_count(nu & pv).sum(axis=1, dtype=np.int64))
        nn = np.bitwise_count(nu & nv).sum(axis=1, dtype=np.int64)
        for offset, edges in ((0, cs > 0), (1, cs < 0)):
            seen[offset] += int(pp[edges].sum())
            seen[offset + 1] += int(mixed[edges].sum())
            seen[offset + 2] += int(nn[edges].sum())
    if any(s % 3 for s in seen):
        raise ValueError(f"triangle sightings {seen} are not multiples of 3")
    c1, c2, c3, c4 = (s // 3 for s in seen)
    return {"n": n, "total": c1 + c2 + c3 + c4, "c1": c1, "c2": c2, "c3": c3,
            "c4": c4, "balanced": c1 + c3}


def read_edge_file(path):
    """(n, u, v, sign) from an edge list written with a `# nodes: N` line."""
    n = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# nodes:"):
                n = int(line.split(":")[1])
            elif line.strip() and not line.startswith("#"):
                a, b, s = line.split()
                rows.append((int(a), int(b), int(s)))
    if n is None:
        raise ValueError(f"{path} has no '# nodes:' line")
    arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
    u, v = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
    return n, u, v, arr[:, 2].astype(np.int8)


def dense_edges(entries):
    u, v = np.nonzero(np.triu(entries, 1))
    return u.astype(np.int64), v.astype(np.int64), entries[u, v].astype(np.int8)


def close(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b or abs(a - b) <= max(REL * max(abs(a), abs(b)), ABS)


def compare(expected, actual, where="output"):
    """Problems found comparing a JSON value with its golden value."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        return [p for key in expected for p in compare(expected[key], actual[key], f"{where}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs from golden"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        return [] if close(float(expected), float(actual)) else [
            f"{where}: {actual!r} != golden {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != golden {expected!r}"]
    return []


def census_vs_own(report, own, where="report"):
    """A report's U_hat/V_hat against the benchmark's own triangle count."""
    n = report.get("n")
    if n != own["n"]:
        return [f"{where}.n: {n!r} != {own['n']}"]
    triples = n * (n - 1) * (n - 2) // 6
    problems = []
    for key, count in (("V_hat", own["total"]), ("U_hat", own["balanced"])):
        got = round(report[key] * triples)
        if got != count:
            problems.append(f"{where}.{key} * C(n,3) = {got} != own count {count}")
    return problems


def compare_coverage_csv(expected_text, actual_text):
    exp = list(csv.reader(io.StringIO(expected_text)))
    act = list(csv.reader(io.StringIO(actual_text)))
    if not act or act[0] != exp[0]:
        return [f"coverage.csv header {act[:1]} != golden {exp[0]}"]
    if len(act) != len(exp):
        return [f"coverage.csv has {len(act) - 1} rows, golden {len(exp) - 1}"]
    header = exp[0]
    problems = []
    for r, (erow, arow) in enumerate(zip(exp[1:], act[1:]), start=1):
        for name, e, a in zip(header, erow, arow):
            where = f"coverage.csv row {r} {name}"
            if name in COVERAGE_FLOAT_FIELDS and e and a:
                if not close(float(e), float(a)):
                    problems.append(f"{where}: {a} != golden {e}")
            elif a != e:  # integer and text fields match exactly
                problems.append(f"{where}: {a!r} != golden {e!r}")
    return problems


def read_draws(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split()
    if not lines or lines[0] != "t_star":
        raise ValueError(f"{path} does not start with a t_star header")
    return np.array([float(x) for x in lines[1:]], dtype=np.float64)


def encode_draws(draws):
    return base64.b64encode(np.asarray(draws, dtype="<f8").tobytes()).decode("ascii")


def compare_draws(expected_b64, actual):
    expected = np.frombuffer(base64.b64decode(expected_b64), dtype="<f8")
    if actual.shape != expected.shape:
        return [f"draws: {actual.size} values, golden {expected.size}"]
    bad = [i for i, (e, a) in enumerate(zip(expected.tolist(), actual.tolist()))
           if not close(e, a)]
    return [f"draws: {len(bad)} values differ from golden, first at {bad[0]}"] if bad else []


def golden_path(scale, workload):
    return os.path.join(GOLDEN_DIR, f"{scale}-{workload}.json")


def load_golden(scale, workload, seed):
    """The recorded outputs for one input seed, or None if none were recorded."""
    try:
        with open(golden_path(scale, workload), "r", encoding="utf-8") as fh:
            return json.load(fh).get(str(seed))
    except FileNotFoundError:
        return None
