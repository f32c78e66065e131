"""The four seeded workloads: input generators, the jobs one simulated user
sends in a closed loop, and the reference checks for their outputs.

A workload is a sequence of rounds.  Round r draws fresh inputs from
``default_rng([seed, r])`` with the same size mix every time, so rounds are
interchangeable and a run's figures do not hinge on where it stops.

References never go through the compiler under test: CNF/WCNF values are
evaluated here from the generator's own clause lists, Fourier coefficients
of small formulas come from a dense +-1 matrix built here, and the rest
uses ``truth_table``, ``QuboInstance.value`` and the CX formula
sum over terms of 2(|S|-1).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import boolham as bh
from boolham import cli, verify
from boolham.oracle import DENSE_CAP_DEFAULT

GAMMA = 0.5  # evolution angle for emitted circuits other than the Grover query
TOL = 1e-9
VALUE_SAMPLES = 16  # assignments at which a wide Hamiltonian is checked


class Mismatch(Exception):
    """An output disagrees with its reference."""


class CliExit(Mismatch):
    """boolham.cli.main returned a nonzero exit code."""


@dataclass
class Job:
    kind: str
    spec: str  # the job's input, hashed for the determinism check
    run: Callable  # run(tracer) -> output; the timed part
    check: Callable  # check(output) -> exact counts; raises Mismatch
    probes: Callable = lambda last: iter(())  # (name, fn, args, kwargs) to time as probes
    warm: bool = True  # run once during set-up as its kind's warm-up


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[np.random.Generator, Path, int], list[Job]]
    min_rounds: int  # always run; exact counts and per-layer times cover these
    tail_pct: float  # job_tail_ms percentile, with >= 10 samples beyond it


# -- running boolham ------------------------------------------------------


def _main_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def run_cli(t, argv: list[str]) -> str:
    """`boolham <argv>` in-process; returns stdout, raises CliExit on a nonzero exit."""
    code, out, err = t.call("cli.main", _main_captured, argv)
    if code != 0:
        raise CliExit(f"boolham {' '.join(argv)} exited {code}: {err.strip()}")
    return out


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- independent references ------------------------------------------------


def label(x: int, n: int) -> str:
    """Basis label with x1 first, as the README defines it."""
    return "".join("1" if (x >> j) & 1 else "0" for j in range(n))


def clause_sat(x: np.ndarray, clause: list[int]) -> np.ndarray:
    sat = np.zeros(x.shape, dtype=bool)
    for lit in clause:
        sat |= ((x >> (abs(lit) - 1)) & 1) == (1 if lit > 0 else 0)
    return sat


def cnf_sat(n: int, clauses: list[list[int]]) -> np.ndarray:
    """Truth table of a CNF over all 2^n assignments."""
    x = all_assignments(n)
    sat = np.ones(x.shape, dtype=bool)
    for clause in clauses:
        sat &= clause_sat(x, clause)
    return sat


def wcnf_values(x: np.ndarray, clauses: list[list[int]], weights: list[int]) -> np.ndarray:
    values = np.zeros(x.shape, dtype=np.float64)
    for w, clause in zip(weights, clauses):
        values += w * clause_sat(x, clause)
    return values


def all_assignments(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def ham_eval(terms: dict[int, float], x: np.ndarray) -> np.ndarray:
    """sum_S c_S (-1)^|S & x| from parsed terms."""
    masks = np.array(list(terms), dtype=np.int64)
    coeffs = np.array(list(terms.values()))
    parity = np.bitwise_count(masks[:, None] & x[None, :]) & 1
    return coeffs @ (1.0 - 2.0 * parity)


def fourier_reference(table: np.ndarray, n: int) -> dict[int, float]:
    """Nonzero Fourier coefficients of a 0/1 table via an explicit +-1 matrix."""
    x = all_assignments(n)
    signs = 1.0 - 2.0 * (np.bitwise_count(x[:, None] & x[None, :]) & 1)
    coeffs = signs @ table / (1 << n)
    return {int(m): float(coeffs[m]) for m in np.flatnonzero(np.abs(coeffs) > TOL)}


def _mask(label_text: str) -> int:
    mask = 0
    for j in re.findall(r"Z(\d+)", label_text):
        mask |= 1 << (int(j) - 1)
    return mask


def parse_ham_json(text: str) -> dict[int, float]:
    return {_mask(t["paulis"]): float(t["coeff"]) for t in json.loads(text)["terms"]}


def parse_ham_text(text: str) -> dict[int, float]:
    """'0.75 I - 0.25 Z1 + 0.5 Z1Z2' -> {mask: coeff}."""
    tokens = text.split()
    if tokens == ["0"]:
        return {}
    first = float(tokens[0])
    terms = {_mask(tokens[1]): first}
    for i in range(2, len(tokens), 3):
        sign, mag, lbl = tokens[i : i + 3]
        terms[_mask(lbl)] = float(mag) if sign == "+" else -float(mag)
    return terms


def cx_formula(masks) -> int:
    return sum(2 * (m.bit_count() - 1) for m in masks if m)


def circuit_counts(text: str) -> tuple[int, int]:
    cx = rz = 0
    for line in text.splitlines():
        cx += line.startswith("cx ")
        rz += line.startswith("rz ")
    return cx, rz


def check_circuit(cx: int, rz: int, masks) -> dict:
    masks = list(masks)
    expected_cx = cx_formula(masks)
    expected_rz = sum(1 for m in masks if m)
    if cx != expected_cx or rz != expected_rz:
        raise Mismatch(f"circuit has {cx} CX / {rz} RZ, terms need {expected_cx} / {expected_rz}")
    return {"out_cnots": cx, "out_rz": rz}


def term_counts(masks) -> dict:
    masks = list(masks)
    return {
        "out_terms": len(masks),
        "compiler.out_degree_max": max((m.bit_count() for m in masks), default=0),
    }


def close(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.size and np.max(np.abs(a - b)) > TOL * max(1.0, np.max(np.abs(b))):
        raise Mismatch(f"{what}: max difference {np.max(np.abs(a - b)):.3g}")


# -- generators -------------------------------------------------------------


def stratum(rng: np.random.Generator, lo: float, hi: float, k: int, j: int) -> float:
    """Uniform draw from the j-th of k equal slices of [lo, hi).

    Drawing job i of a round from slice i (or (i + r) mod k, to pair it with
    each of k sizes over k rounds) keeps every round's mix the same, so
    totals vary little from seed to seed."""
    return lo + (hi - lo) * (j % k + rng.random()) / k


def planted_3cnf(rng: np.random.Generator, n: int, m: int) -> list[list[int]]:
    """m random 3-clauses that a hidden assignment satisfies (always satisfiable)."""
    hidden = rng.integers(0, 2, n)
    clauses: list[list[int]] = []
    while len(clauses) < m:
        vs = rng.choice(n, size=3, replace=False) + 1
        lits = [int(v) if rng.random() < 0.5 else -int(v) for v in vs]
        if any(hidden[abs(l) - 1] == (l > 0) for l in lits):
            clauses.append(lits)
    return clauses


def random_wcnf(rng: np.random.Generator, n: int, m: int) -> tuple[list[list[int]], list[int]]:
    """m clauses of 1-3 distinct literals with integer weights 1..9."""
    clauses, weights = [], []
    for _ in range(m):
        vs = rng.choice(n, size=int(rng.integers(1, 4)), replace=False) + 1
        clauses.append([int(v) if rng.random() < 0.5 else -int(v) for v in vs])
        weights.append(int(rng.integers(1, 10)))
    return clauses, weights


def dimacs_text(n: int, clauses: list[list[int]], weights: list[int] | None = None) -> str:
    kind = "cnf" if weights is None else "wcnf"
    prefixes = [""] * len(clauses) if weights is None else [f"{w} " for w in weights]
    lines = [p + " ".join(map(str, c)) + " 0" for p, c in zip(prefixes, clauses)]
    return "\n".join([f"p {kind} {n} {len(clauses)}", *lines]) + "\n"


def qubo_text(q: bh.QuboInstance) -> str:
    n = q.n_vars
    quad = [
        [j + 1, k + 1, float(q.quadratic[j, k])]
        for j in range(n)
        for k in range(j + 1, n)
        if q.quadratic[j, k] != 0.0
    ]
    return json.dumps(
        {"n": n, "a": float(q.constant), "linear": [float(c) for c in q.linear], "quadratic": quad}
    )


# -- probes: inner public calls re-timed on the same input ------------------


def _probe_first_arg(outer: str, inner: str, fn: Callable) -> Callable:
    def probes(last):
        if outer in last:
            yield inner, fn, (last[outer][0][0],), {}

    return probes


def _probe_result(outer: str, inner: str, method: str) -> Callable:
    def probes(last):
        if outer in last:
            yield inner, getattr(last[outer][2], method), (), {}

    return probes


def _expression_probes(e, n: int, cap: int) -> Iterator:
    # mirrors the dense checks verify.expression_checks runs at each size
    if n <= min(8, cap):
        h = bh.compile_expr(e, n)
        for gamma in (0.3, 1.0, math.pi):
            yield "oracle.simulate_circuit", bh.simulate_circuit, (bh.emit_evolution(h, gamma),), {}
    if n <= min(6, cap - 1):
        yield "oracle.simulate_circuit", bh.simulate_circuit, (bh.emit_bit_query(e, n),), {"cap": cap}
    if n <= min(5, cap - 2):
        yield "oracle.verify_kickback_suite", bh.verify_kickback_suite, (e, n), {"cap": cap}


def _qubo_probes(q, cap: int) -> Iterator:
    if q.n_vars <= min(8, cap):
        yield "oracle.simulate_circuit", bh.simulate_circuit, (bh.emit_qubo_evolution(q, 0.7),), {"cap": cap}


def _verify_probes(last) -> Iterator:
    if "verify.expression_checks" in last:
        (_, e, n), kw, _ = last["verify.expression_checks"]
        yield from _expression_probes(e, n, kw["dense_cap"])
    if "verify.qubo_checks" in last:
        (_, q), kw, _ = last["verify.qubo_checks"]
        yield from _qubo_probes(q, kw["dense_cap"])
    if "verify.run_corpus_verification" in last:
        cap = last["verify.run_corpus_verification"][1]["dense_cap"]
        exprs, qubos = verify.bundled_corpus()
        for _, e, n in exprs:
            yield from _expression_probes(e, n, cap)
        for _, q in qubos:
            yield from _qubo_probes(q, cap)


# -- verify check counts ------------------------------------------------------


def expected_expression_checks(n: int, table: np.ndarray, cap: int = DENSE_CAP_DEFAULT) -> int:
    """Checks verify.expression_checks runs: 7 always, the size bound for a
    non-constant formula, then 3 + 3 + 2 dense checks below n = 9, 7 and 6."""
    count = 7 + (1 if table.min() != table.max() else 0)
    count += 3 if n <= min(8, cap) else 0
    count += 3 if n <= min(6, cap - 1) else 0
    count += 2 if n <= min(5, cap - 2) else 0
    return count


def expected_qubo_checks(n: int, cap: int = DENSE_CAP_DEFAULT) -> int:
    return 3 + (1 if n <= min(8, cap) else 0)


@functools.cache
def expected_corpus_checks() -> int:
    golden = verify.basic_clause_cases() + verify.three_variable_cases()
    exprs, qubos = verify.bundled_corpus()
    return (
        len(golden)
        + sum(expected_expression_checks(n, bh.truth_table(e, n)) for _, e, n in exprs)
        + sum(expected_qubo_checks(q.n_vars) for _, q in qubos)
    )


_SUMMARY = re.compile(r"^(\d+) checks, (\d+) failures: PASS$")


def check_report(out: str, expected: int) -> dict:
    lines = out.strip().splitlines()
    found = _SUMMARY.match(lines[-1]) if lines else None
    if found is None:
        raise Mismatch(f"no passing summary line in verify output: {lines[-1:]!r}")
    checks, failures = int(found.group(1)), int(found.group(2))
    if checks != expected or failures:
        raise Mismatch(f"verify ran {checks} checks ({failures} failed), expected {expected}")
    return {"verify.checks": checks, "verify.failures": failures}


# -- sat-count ------------------------------------------------------------------

SAT_N = 10
SAT_RATIO = (2.0, 4.3)
SAT_PER_ROUND = 3


def _sat_job(path: str, n: int, clauses: list[list[int]], text: str) -> Job:
    def run(t):
        count = run_cli(t, ["count", "--dimacs", path])
        _, conjunction = t.call("boolexpr.parse_dimacs", bh.parse_dimacs, Path(path).read_text())
        h = t.call("compiler.compile_expr", bh.compile_expr, conjunction, n)
        spec = t.call("oracle.spectrum", bh.spectrum, h)
        top = t.call("oracle.top_states", spec.top_states)
        # the Grover phase query exp(-i pi H_f) = diag((-1)^f(x)) for search and counting
        circ = t.call("circuits.emit_evolution", bh.emit_evolution, h, math.pi)
        return count, h, top, circ

    def check(output):
        count, h, top, circ = output
        sat = cnf_sat(n, clauses)
        models = int(sat.sum())
        if int(count) != models or abs(h.identity_coeff * (1 << n) - models) > 1e-6:
            raise Mismatch(f"model count {count.strip()} / identity {h.identity_coeff}, truth table {models}")
        if set(top) != {label(int(v), n) for v in np.flatnonzero(sat)}:
            raise Mismatch("top states differ from the satisfying assignments")
        masks = [m for m, _ in h.items()]
        counts = check_circuit(circ.cnot_count, circ.rz_count, masks)
        return {**counts, **term_counts(masks), "oracle.spectrum.states": 1 << n}

    probes_count = _probe_first_arg("fourier.count_models", "fourier.projector_defect", bh.fourier.projector_defect)
    probes_spec = _probe_first_arg("oracle.spectrum", "fourier.table_from_fourier", bh.table_from_fourier)
    return Job("count", text, run, check, lambda last: (*probes_count(last), *probes_spec(last)))


def sat_count_round(rng: np.random.Generator, workdir: Path, r: int) -> list[Job]:
    """One planted instance per ratio slice.  Only instances with an odd
    model count are kept: then no Fourier coefficient cancels, the SAT view
    has exactly 2^n terms and count_models' cost does not swing with the
    draw (with an even count the support halves or quarters at random)."""
    n, jobs = SAT_N, []
    for i in range(SAT_PER_ROUND):
        m = round(stratum(rng, *SAT_RATIO, SAT_PER_ROUND, i) * n)
        clauses = planted_3cnf(rng, n, m)
        while cnf_sat(n, clauses).sum() % 2 == 0:
            clauses = planted_3cnf(rng, n, m)
        text = dimacs_text(n, clauses)
        jobs.append(_sat_job(_write(workdir / f"sat-{r}-{i}.cnf", text), n, clauses, text))
    return jobs


# -- maxsat-spectrum ----------------------------------------------------------------

SPECTRUM_N = 17
SPECTRUM_RATIO = (3.0, 5.0)
SPECTRUM_PER_ROUND = 3


def _spectrum_job(path: str, n: int, clauses, weights, text: str) -> Job:
    def run(t):
        objective, _ = t.call("boolexpr.parse_dimacs", bh.parse_dimacs, Path(path).read_text())
        h = t.call("compiler.compile_pseudo", bh.compile_pseudo, objective)
        spec = t.call("oracle.spectrum", bh.spectrum, h)
        best = spec.max_value
        top = t.call("oracle.top_states", spec.top_states)
        # one QAOA phase-separation layer for the objective
        circ = t.call("circuits.emit_evolution", bh.emit_evolution, h, GAMMA)
        return best, top, h, circ

    def check(output):
        best, top, h, circ = output
        values = wcnf_values(all_assignments(n), clauses, weights)
        vmax = float(values.max())
        if abs(best - vmax) > TOL:
            raise Mismatch(f"max_value {best} != brute-force maximum {vmax}")
        if set(top) != {label(int(v), n) for v in np.flatnonzero(values >= vmax - TOL)}:
            raise Mismatch("top states differ from the brute-force maximisers")
        masks = [m for m, _ in h.items()]
        counts = check_circuit(circ.cnot_count, circ.rz_count, masks)
        return {**counts, **term_counts(masks), "oracle.spectrum.states": 1 << n}

    probes = _probe_first_arg("oracle.spectrum", "fourier.table_from_fourier", bh.table_from_fourier)
    return Job("spectrum", text, run, check, probes)


def maxsat_spectrum_round(rng: np.random.Generator, workdir: Path, r: int) -> list[Job]:
    n, jobs = SPECTRUM_N, []
    for i in range(SPECTRUM_PER_ROUND):
        clauses, weights = random_wcnf(rng, n, round(stratum(rng, *SPECTRUM_RATIO, SPECTRUM_PER_ROUND, i) * n))
        text = dimacs_text(n, clauses, weights)
        path = _write(workdir / f"spec-{r}-{i}.wcnf", text)
        jobs.append(_spectrum_job(path, n, clauses, weights, text))
    return jobs


# -- maxsat-emit --------------------------------------------------------------------

EMIT_SIZES = (40, 60)
EMIT_PER_ROUND = 3
EMIT_RATIO = (6.0, 10.0)


def _split_qubo_output(out: str) -> tuple[str, str]:
    ham, _, circuit = out.partition("\n")
    return ham, circuit


def _check_round_trip(c: bh.Circuit, text: str) -> None:
    if bh.serialize(c) != text or bh.parse_circuit(bh.serialize(c)) != c:
        raise Mismatch("circuit text does not round-trip through parse_circuit/serialize")


def _emit_jobs(rng, workdir: Path, r: int, i: int, n: int, ratio: float) -> list[Job]:
    clauses, weights = random_wcnf(rng, n, round(ratio * n))
    wtext = dimacs_text(n, clauses, weights)
    wpath = _write(workdir / f"emit-{r}-{i}.wcnf", wtext)
    hpath = str(workdir / f"emit-{r}-{i}.h.json")
    q = verify.random_qubo(rng, n)
    qtext = qubo_text(q)
    qpath = _write(workdir / f"emit-{r}-{i}.qubo.json", qtext)
    xs = rng.integers(0, 1 << n, size=VALUE_SAMPLES, dtype=np.int64)

    def run_compile(t):
        out = run_cli(t, ["compile", "--dimacs", wpath, "--mode", "maxsat", "--format", "json"])
        _write(Path(hpath), out)
        return out

    def check_compile(out):
        terms = parse_ham_json(out)
        close(ham_eval(terms, xs), wcnf_values(xs, clauses, weights), "h.eval vs clause weights")
        return term_counts(terms)

    def run_circuit(t):
        text = run_cli(t, ["circuit", "--hamiltonian", hpath, "--gamma", str(GAMMA)])
        return text, t.call("circuits.parse_circuit", bh.parse_circuit, text)

    def check_circuit_job(output):
        text, c = output
        _check_round_trip(c, text)
        return check_circuit(*circuit_counts(text), parse_ham_json(Path(hpath).read_text()))

    def run_qubo(t):
        out = run_cli(t, ["qubo", qpath])
        return out, t.call("circuits.parse_circuit", bh.parse_circuit, _split_qubo_output(out)[1])

    def check_qubo(output):
        out, c = output
        ham, circuit = _split_qubo_output(out)
        terms = parse_ham_text(ham)
        close(ham_eval(terms, xs), np.array([q.value(int(x)) for x in xs]), "h.eval vs QuboInstance.value")
        _check_round_trip(c, circuit)
        counts = check_circuit(*circuit_counts(circuit), terms)
        return {**counts, **term_counts(terms)}

    return [
        Job("compile-maxsat", wtext, run_compile, check_compile,
            _probe_result("compiler.compile_pseudo", "zpoly.to_json", "to_json")),
        Job("circuit", wtext, run_circuit, check_circuit_job),
        Job("qubo", qtext, run_qubo, check_qubo,
            _probe_result("compiler.compile_qubo", "zpoly.to_text", "to_text")),
    ]


def maxsat_emit_round(rng: np.random.Generator, workdir: Path, r: int) -> list[Job]:
    jobs = []
    for i in range(EMIT_PER_ROUND):
        n = int(stratum(rng, *EMIT_SIZES, EMIT_PER_ROUND, i))
        ratio = stratum(rng, *EMIT_RATIO, EMIT_PER_ROUND, i + r)
        jobs += _emit_jobs(rng, workdir, r, i, n, ratio)
    return jobs


# -- verify-corpus --------------------------------------------------------------------

VERIFY_SIZES = range(2, 9)  # the dense checks cover n <= 8; see NOTES.md on --qubo


def _corpus_job() -> Job:
    # no warm-up: it is the whole bundled suite, and verify-e warms the same code
    return Job(
        "verify-corpus", "corpus",
        lambda t: run_cli(t, ["verify"]),
        lambda out: check_report(out, expected_corpus_checks()),
        _verify_probes,
        warm=False,
    )


def _emit_formula_jobs(e, n: int) -> list[Job]:
    text = bh.to_text(e)
    reference = fourier_reference(bh.truth_table(e, n), n)
    base = ["-e", text, "-n", str(n)]

    def check_compile(out):
        terms = parse_ham_text(out)
        masks = sorted(set(terms) | set(reference))
        close(np.array([terms.get(m, 0.0) for m in masks]),
              np.array([reference.get(m, 0.0) for m in masks]), "coefficients vs Fourier reference")
        return term_counts(terms)

    return [
        Job("compile-e", text, lambda t: run_cli(t, ["compile", *base]), check_compile,
            _probe_result("compiler.compile_expr", "zpoly.to_text", "to_text")),
        Job("circuit-e", text, lambda t: run_cli(t, ["circuit", *base, "--gamma", str(GAMMA)]),
            lambda out: check_circuit(*circuit_counts(out), reference)),
    ]


def _verify_jobs(rng: np.random.Generator, workdir: Path, r: int, n: int) -> list[Job]:
    e = verify.random_expr(rng, n, depth=4)
    text, table = bh.to_text(e), bh.truth_table(e, n)
    qtext = qubo_text(verify.random_qubo(rng, n))
    qpath = _write(workdir / f"verify-{r}-{n}.qubo.json", qtext)
    return [
        Job("verify-e", text, lambda t: run_cli(t, ["verify", "-e", text, "-n", str(n)]),
            lambda out: check_report(out, expected_expression_checks(n, table)), _verify_probes),
        Job("verify-qubo", qtext, lambda t: run_cli(t, ["verify", "--qubo", qpath]),
            lambda out: check_report(out, expected_qubo_checks(n)), _verify_probes),
    ]


def verify_corpus_round(rng: np.random.Generator, workdir: Path, r: int) -> list[Job]:
    """The corpus suite; compile and circuit for each corpus formula, whose
    output sizes are the same for every seed; verify on seeded formulas and
    QUBOs at each n in VERIFY_SIZES."""
    jobs = [_corpus_job()]
    for _, e, n in verify.bundled_corpus()[0]:
        jobs += _emit_formula_jobs(e, n)
    for n in VERIFY_SIZES:
        jobs += _verify_jobs(rng, workdir, r, n)
    return jobs


WORKLOADS = {
    "sat-count": Workload(sat_count_round, min_rounds=6, tail_pct=80),
    "maxsat-emit": Workload(maxsat_emit_round, min_rounds=12, tail_pct=95),
    "maxsat-spectrum": Workload(maxsat_spectrum_round, min_rounds=9, tail_pct=80),
    # p99.5 falls inside the corpus jobs (1 in 143), the one job that is the same for every seed
    "verify-corpus": Workload(verify_corpus_round, min_rounds=4, tail_pct=99.5),
}
