"""Output checkers: each recomputes a result without the code under test.

``check_output`` takes one `statekit run` output (the config, the parsed
report.json and the CSV tables) and returns a list of problems; an empty
list means the output is correct. Hamiltonians, states, overlaps and the
leave-one-out classifier are rebuilt here by index arithmetic, with
scipy's ``expm`` and ``eigvalsh`` as the numerical references.
``check_decomposition`` calls ``interference_decomposition`` directly on a
unitary and distribution drawn here.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math

import numpy as np

DECOMPOSITION_TOL = 1e-10  # audit rows: |classical + interference - born|
TRAP_TOL = 1e-12  # audit rows: diagonal-trap residual
SLOPE_WINDOW = (2.8, 3.2)  # fitted log-log Trotter slope
TROTTER_FLOOR = 1e-11  # absolute floating-point floor added to the Trotter bound
EXPM_RTOL, EXPM_ATOL = 1e-6, 1e-11  # reported curvature error vs expm recomputation
GAP_TOL = 1e-9  # reported mass gap vs eigvalsh
DEGENERACY = 1e-10  # gaps below this are reported as 0 (statekit's documented rule)
GRAM_TOL = 1e-10  # library Gram entries vs states built here
DIST_TOL = 1e-12  # distinguishability vs recomputation


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which strict JSON lacks."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# independent constructions (qubit 0 is the most significant bit)
# ---------------------------------------------------------------------------

def ring(n: int) -> np.ndarray:
    j = np.zeros((n, n))
    for a in range(n):
        if (a + 1) % n != a:
            j[a, (a + 1) % n] = j[(a + 1) % n, a] = 1.0
    return j


def coupling_matrix(qift: dict, n: int) -> np.ndarray:
    topology = qift.get("topology", "ring")
    if topology == "ring":
        return ring(n)
    if topology == "complete":
        return np.ones((n, n)) - np.eye(n)
    raise ValueError(f"no independent construction for topology {topology!r}")


def z_signs(n: int) -> np.ndarray:
    """z[i, q] = +1 when qubit q of basis index i is 0, else -1."""
    idx = np.arange(1 << n)
    return 1 - 2 * ((idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1)


def coupling_energies(coupling: np.ndarray, mu: float) -> np.ndarray:
    """Diagonal of mu * sum_{j<k} J_jk Z_j Z_k."""
    n = coupling.shape[0]
    z = z_signs(n)
    out = np.zeros(1 << n)
    for j in range(n):
        for k in range(j + 1, n):
            if coupling[j, k] != 0.0:
                out += coupling[j, k] * z[:, j] * z[:, k]
    return mu * out


def field_term(fields) -> np.ndarray:
    """sum_q x_q Y_q: Y flips qubit q with amplitude +i from 0 and -i from 1."""
    n = len(fields)
    idx = np.arange(1 << n)
    a = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for q, x in enumerate(fields):
        bit = (idx >> (n - 1 - q)) & 1
        a[idx ^ (1 << (n - 1 - q)), idx] += x * np.where(bit == 0, 1j, -1j)
    return a


def mass_gap(fields, coupling: np.ndarray, mu: float) -> float:
    import scipy.linalg

    h = field_term(fields) + np.diag(coupling_energies(coupling, mu))
    vals = scipy.linalg.eigvalsh(h)
    gap = float(vals[1] - vals[0])
    return 0.0 if gap < DEGENERACY else gap


def loo_accuracy(sim: np.ndarray, labels: np.ndarray) -> float:
    """Leave-one-out 1-NN under statekit's documented tie rule.

    Ties go to the lowest tied index; a row where every other sample ties
    predicts the label of sample 0.
    """
    m = labels.size
    s = np.array(sim, dtype=np.float64 if sim.dtype.kind == "f" else np.int64)
    np.fill_diagonal(s, s.min() - 1)
    best = s.max(axis=1)
    ties = (s == best[:, None]).sum(axis=1)
    pred = np.where((ties > 1) & (ties == m - 1), labels[0], labels[s.argmax(axis=1)])
    return int((pred == labels).sum()) / m


def min_cross_distance(fidelity: np.ndarray, labels: np.ndarray) -> float:
    cross = fidelity[np.ix_(labels == 1, labels == -1)]
    return float(np.sqrt(np.maximum(0.0, 1.0 - cross)).min())


# ---------------------------------------------------------------------------
# per-experiment checkers
# ---------------------------------------------------------------------------

def _check_audit(config, report, tables):
    problems = []
    header, rows = tables["interference_audit"]
    if len(rows) != config["count"]:
        problems.append(f"{len(rows)} audit rows for count {config['count']}")
    decomp = []
    trap = []
    for i, (case, phased, d, t) in enumerate(rows):
        if int(case) != i or phased != ("true" if i % 2 else "false"):
            problems.append(f"row {i}: case/phased {case},{phased} out of order")
        decomp.append(float(d))
        trap.append(float(t))
        if not float(d) <= DECOMPOSITION_TOL:
            problems.append(f"case {i}: decomposition residual {d} above {DECOMPOSITION_TOL}")
        if not float(t) <= TRAP_TOL:
            problems.append(f"case {i}: trap residual {t} above {TRAP_TOL}")
    res = report["results"]
    if decomp and (res["max_decomposition_residual"] != max(decomp) or res["max_trap_residual"] != max(trap)):
        problems.append("report maxima differ from the CSV rows")
    return problems


def _check_curvature(config, report, tables):
    import scipy.linalg

    problems = []
    res = report["results"]
    slope = res["fitted_slope"]
    if res["commuting"] or slope is None or not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
        problems.append(f"fitted slope {slope} outside {SLOPE_WINDOW}")
    qift = config.get("qift", {})
    mu = qift.get("mu", 1.0)
    fields = np.array(res["fields"], dtype=np.float64)
    if fields.size != config["n_features"]:
        return problems + [f"{fields.size} fields for {config['n_features']} qubits"]
    a = field_term(fields)
    b = coupling_energies(coupling_matrix(qift, fields.size), mu)
    bm = np.diag(b)
    ab = a @ bm - bm @ a
    if not math.isclose(res["commutator_norm"], np.linalg.norm(ab, 2), rel_tol=1e-9):
        problems.append(f"commutator norm {res['commutator_norm']} != {np.linalg.norm(ab, 2)}")
    # Childs et al., PRX 11, 011020 (2021): Strang-step error bound
    c_bba = np.linalg.norm(bm @ ab - ab @ bm, 2)  # ||[B,[B,A]]||
    c_aab = np.linalg.norm(a @ ab - ab @ a, 2)  # ||[A,[A,B]]||
    _, rows = tables["curvature_scan"]
    for tau_s, err_s in rows:
        tau, err = float(tau_s), float(err_s)
        bound = tau**3 / 12 * c_bba + tau**3 / 24 * c_aab
        if not err <= bound + TROTTER_FLOOR:
            problems.append(f"tau {tau}: error {err} above the commutator bound {bound}")
        half = scipy.linalg.expm(-0.5j * tau * a)
        step = half @ (np.exp(-1j * tau * b)[:, None] * half)
        ref = np.linalg.norm(step - scipy.linalg.expm(-1j * tau * (a + bm)), 2)
        if not abs(err - ref) <= EXPM_RTOL * ref + EXPM_ATOL:
            problems.append(f"tau {tau}: error {err} differs from the expm recomputation {ref}")
    return problems


def _resonance_fields(config) -> list[np.ndarray]:
    """The specs' fields: statekit draws them uniformly from [-pi, pi] in order."""
    rng = np.random.default_rng(config["seed"])
    return [rng.uniform(-math.pi, math.pi, config["n_features"]) for _ in range(config["count"])]


def _check_resonance(config, report, tables):
    problems = []
    res = report["results"]
    qift = config.get("qift", {})
    coupling = coupling_matrix(qift, config["n_features"])
    gaps = [mass_gap(x, coupling, qift.get("mu", 1.0)) for x in _resonance_fields(config)]
    for i, (mine, theirs) in enumerate(zip(gaps, res["gaps"])):
        if not abs(mine - theirs) <= GAP_TOL:
            problems.append(f"spec {i}: gap {theirs} != eigvalsh gap {mine}")
    count = config["count"]
    _, rows = tables["resonance_pairs"]
    pairs = [(a, b) for a in range(count) for b in range(a + 1, count)]
    if len(rows) != len(pairs) or len(res["gaps"]) != count:
        return problems + [f"{len(rows)} pair rows for {count} specs"]
    tol = res["tolerance"]
    n_resonant = 0
    for (a, b), (sa, sb, ga, gb, delta, resonant) in zip(pairs, rows):
        ga, gb, delta = float(ga), float(gb), float(delta)
        if (int(sa), int(sb)) != (a, b) or ga != res["gaps"][a] or gb != res["gaps"][b]:
            problems.append(f"pair row ({sa}, {sb}) does not match specs ({a}, {b})")
        if delta != abs(ga - gb):
            problems.append(f"pair ({a}, {b}): delta {delta} != |gap_a - gap_b|")
        if resonant != ("true" if delta <= tol else "false"):
            problems.append(f"pair ({a}, {b}): resonant={resonant} with delta {delta}, tolerance {tol}")
        n_resonant += resonant == "true"
    if res["n_resonant"] != n_resonant or res["n_pairs"] != len(pairs):
        problems.append("report pair counts differ from the CSV rows")
    return problems


def _own_states(vectors: np.ndarray, encoder: str, qift: dict) -> np.ndarray:
    """Rows of encoded amplitudes for the phase and qift encoders."""
    m, n = vectors.shape
    if encoder == "phase":
        return np.exp(1j * vectors) / math.sqrt(n)
    # qift: exp(-i tau/2 A) exp(-i tau B) exp(-i tau/2 A) |0...0>, A = sum x_q Y_q;
    # the terms of A commute, so exp(-i tau/2 A) is a tensor product of 2x2 expm
    import scipy.linalg

    tau, mu = qift.get("tau", 0.1), qift.get("mu", 1.0)
    y = np.array([[0, -1j], [1j, 0]])
    phase = np.exp(-1j * tau * coupling_energies(coupling_matrix(qift, n), mu))
    states = np.empty((m, 1 << n), dtype=np.complex128)
    for i, row in enumerate(vectors):
        half = functools.reduce(np.kron, [scipy.linalg.expm(-0.5j * tau * x * y) for x in row])
        states[i] = half @ (phase * half[:, 0])
    return states


def _check_parity(config, report, tables):
    from statekit.experiments import encode_dataset, fidelity_gram, gen_parity_dataset, QiftParams

    problems = []
    n, count = config["n_features"], config["count"]
    ds = gen_parity_dataset(n, count, config["seed"])
    v, labels = ds.vectors, ds.labels
    index = ((v < 0).astype(np.int64) << np.arange(n)).sum(axis=1)
    expected = (1 << n) if count == "all" else count
    if (len(ds) != expected or np.unique(index).size != expected or not np.all(np.abs(v) == 1)
            or not np.array_equal(labels, np.prod(v, axis=1))
            or (count == "all" and not np.array_equal(index, np.arange(1 << n)))):
        return [f"parity dataset for n={n}, count={count} is not the documented sign-vector set"]

    _, rows = tables["parity_results"]
    reported = {enc: (float(acc), float(dist)) for enc, acc, dist in rows}
    if list(reported) != config["encoders"]:
        problems.append(f"encoder rows {list(reported)} != config {config['encoders']}")
    vi = v.astype(np.int64)
    qift = config.get("qift") or {}
    for enc, (acc, dist) in reported.items():
        if enc in ("probability_loading", "amplitude"):
            # integer overlaps: fidelity = overlap^2 / n^2 exactly
            overlap = np.abs(vi) @ np.abs(vi).T if enc == "probability_loading" else vi @ vi.T
            sim = overlap * overlap
            want_acc = loo_accuracy(sim, labels)
            cross = sim[np.ix_(labels == 1, labels == -1)].max()
            want_dist = math.sqrt(max(0.0, 1.0 - cross / n**2))
        else:
            params = QiftParams(**qift) if enc == "qift" else None
            gram = fidelity_gram(encode_dataset(ds, enc, params), enc).entries
            own = _own_states(v, enc, qift)
            own_gram = np.abs(own.conj() @ own.T) ** 2
            worst = float(np.abs(gram - own_gram).max())
            if not worst <= GRAM_TOL:
                problems.append(f"{enc}: Gram entries differ from the states built here by {worst:.3e}")
            want_acc = loo_accuracy(gram, labels)
            want_dist = min_cross_distance(gram, labels)
        if acc != want_acc:
            problems.append(f"{enc}: accuracy {acc} != leave-one-out recomputation {want_acc}")
        if not abs(dist - want_dist) <= DIST_TOL:
            problems.append(f"{enc}: distinguishability {dist} != recomputation {want_dist}")
    if n == 8 and count == "all":
        if reported.get("probability_loading", (0.5, 0.0)) != (0.5, 0.0):
            problems.append("probability_loading on the full set must give accuracy 0.5, distance 0")
        if reported.get("amplitude", (1.0,))[0] != 1.0:
            problems.append("amplitude on the full set must give accuracy 1.0")
    per_encoder = report["results"]["per_encoder"]
    if {e: (r["accuracy"], r["distinguishability"]) for e, r in per_encoder.items()} != reported:
        problems.append("report per_encoder results differ from the CSV rows")
    return problems


CHECKERS = {
    "interference-audit": _check_audit,
    "curvature-scan": _check_curvature,
    "resonance": _check_resonance,
    "parity": _check_parity,
}


def check_output(config: dict, report: dict, tables: dict) -> list[str]:
    """Problems found in one run's output; ``tables`` maps name -> CSV text."""
    from statekit.errors import StatekitError

    try:
        parsed = {name: parse_csv(text) for name, text in tables.items()}
        return CHECKERS[config["experiment"]](config, report, parsed)
    except StatekitError as exc:
        return [f"statekit raised {exc!r} while the output was checked"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def check_decomposition(seed: int, n_qubits: int, decompose=None) -> list[str]:
    """Compare ``interference_decomposition`` with sums computed here.

    On an ``n_qubits`` Haar unitary and Dirichlet distribution drawn from ``seed``, both
    phase-locked and phased: the classical term must equal sum_x p_x |U_yx|^2,
    the interference term |sum_x t_x|^2 - sum_x |t_x|^2 with
    t_x = sqrt(p_x) e^{i phi_x} U_yx, and the totals must sum to 1.
    """
    from statekit.errors import StatekitError
    from statekit.statevec import DenseOperator

    if decompose is None:
        from statekit.interference import interference_decomposition as decompose
    rng = np.random.default_rng(seed)
    dim = 1 << n_qubits
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    p = rng.dirichlet(np.ones(dim))
    problems = []
    for phi in (None, rng.uniform(0.0, 2.0 * math.pi, dim)):
        c = np.sqrt(p) * (1.0 if phi is None else np.exp(1j * phi))
        total = 0.0
        for y in range(dim):
            try:
                rep = decompose(DenseOperator(u), p, phi, y)
            except StatekitError as exc:
                problems.append(f"outcome {y}: {exc}")
                continue
            t = c * u[y]
            classical = float(p @ np.abs(u[y]) ** 2)
            interference = float(abs(t.sum()) ** 2 - (np.abs(t) ** 2).sum())
            if not abs(rep.classical_term - classical) <= 1e-12:
                problems.append(f"outcome {y}: classical term {rep.classical_term} != {classical}")
            if not abs(rep.interference_term - interference) <= DECOMPOSITION_TOL:
                problems.append(f"outcome {y}: interference term {rep.interference_term} != {interference}")
            total += rep.total
        if not abs(total - 1.0) <= DECOMPOSITION_TOL:
            problems.append(f"totals sum to {total}, not 1")
    return problems
