"""Independent checks of the outputs the benchmark collects.

Plain numpy only: nothing here imports the package under test.  Reference
solutions are rebuilt from the closed forms of the paper, braid words are
evaluated by contracting R into a tensor of qubit axes (no dense
generators), and search hits are re-verified against the lifted equation,
unitarity, the zero pattern and invertibility.  Every ``check_*`` function
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

SQRT2 = math.sqrt(2.0)

# (omega, gamma, delta) of the three admissible categories, by family.
FAMILY_PARAMS = {1: (1j, 1j, 1.0 + 0j), 2: (1j, 1.0 + 0j, 1j), 3: (1.0 + 0j, 1.0 + 0j, 1.0 + 0j)}
FAMILY_CATEGORY = {1: "A", 2: "B", 3: "C"}
REGISTRY = {"rowell": "(2,3,1)", "xshape": "(2,3,2)", "base1": "(2,3,1)", "base2": "(2,3,1)", "base3": "(2,3,1)"}

EXACT_TOL = 1e-12
WITNESS_TOL = 1e-9
BRAID_TOL = 1e-9

_THETA_RE = re.compile(r"^family([123]):theta=([^:]+)$")
_AB_RE = re.compile(r"^family([123]):alpha=([^,:]+),([^,:]+):beta=([^,:]+),([^,:]+)$")


# --- reference solutions ------------------------------------------------------


def family_matrix(family: int, alpha: complex, beta: complex) -> np.ndarray:
    """R = X (+) Y of the family member with parameters (alpha, beta)."""
    w, g, d = FAMILY_PARAMS[family]
    a, b = complex(alpha), complex(beta)
    x = np.zeros((4, 4), dtype=np.complex128)
    x[0, 0], x[1, 1] = 1.0, w
    x[0, 2], x[1, 3] = a, b
    x[2, 0], x[3, 1] = -g * a.conjugate(), -d * b.conjugate() * w  # C = -D B^dagger A
    x[2, 2], x[3, 3] = g, d
    wc, gc, dc = w.conjugate(), g.conjugate(), d.conjugate()
    ac, bc = a.conjugate(), b.conjugate()
    y = np.zeros((4, 4), dtype=np.complex128)
    y[0, 0], y[1, 1] = w, w * gc * (1 + d * w - w)
    y[0, 2], y[1, 3] = b * dc * (1 - g - wc), -ac * b * b
    y[2, 0], y[3, 1] = bc * (1 + w * g - w), a * bc * bc * d * d * w * w * gc
    y[2, 2], y[3, 3] = dc * g * (w + wc - g), 1 - d + w
    out = np.zeros((8, 8), dtype=np.complex128)
    out[:4, :4], out[4:, 4:] = x / SQRT2, y / SQRT2
    return out


def rowell_matrix() -> np.ndarray:
    z = np.exp(2j * np.pi / 8)
    zi = 1.0 / z
    x = [[zi, 0, -zi, 0], [0, z, 0, z], [z, 0, z, 0], [0, -zi, 0, zi]]
    y = [[z, 0, z, 0], [0, zi, 0, -zi], [-zi, 0, zi, 0], [0, z, 0, z]]
    out = np.zeros((8, 8), dtype=np.complex128)
    out[:4, :4], out[4:, 4:] = x, y
    return out / SQRT2


def xshape_matrix() -> np.ndarray:
    m = np.eye(8, dtype=np.complex128)
    for i in range(8):
        m[i, 7 - i] = 1.0 if i < 4 else -1.0
    return m / SQRT2


def parse_family_id(solution_id: str) -> tuple[int, complex, complex] | None:
    """(family, alpha, beta) of a parametric id, or None for named entries."""
    m = _THETA_RE.match(solution_id)
    if m:
        return int(m.group(1)), 1.0 + 0j, complex(np.exp(1j * float(m.group(2))))
    m = _AB_RE.match(solution_id)
    if m:
        alpha = complex(float(m.group(2)), float(m.group(3)))
        beta = complex(float(m.group(4)), float(m.group(5)))
        return int(m.group(1)), alpha, beta
    return None


def reference_matrix(solution_id: str) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Matrix and (d, m, l) signature of a registry or parametric id."""
    if solution_id == "rowell":
        return rowell_matrix(), (2, 3, 1)
    if solution_id == "xshape":
        return xshape_matrix(), (2, 3, 2)
    if solution_id in ("base1", "base2", "base3"):
        return family_matrix(int(solution_id[-1]), 1.0, 1.0), (2, 3, 1)
    parsed = parse_family_id(solution_id)
    if parsed is None:
        raise KeyError(solution_id)
    return family_matrix(*parsed), (2, 3, 1)


# --- equation arithmetic --------------------------------------------------------


def equation_residual(r: np.ndarray, d: int = 2, l: int = 1) -> float:
    """max-abs entry of L S L - S L S with L = R (x) I, S = I (x) R."""
    pad = np.eye(d**l)
    left, right = np.kron(r, pad), np.kron(pad, r)
    return float(np.max(np.abs(left @ right @ left - right @ left @ right)))


def unitarity_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))


def rowell_mask() -> np.ndarray:
    """Allowed nonzeros of the two-block 8x8 pattern: diagonal and offset 2."""
    mask = np.zeros((8, 8), dtype=bool)
    for block in (0, 4):
        for i in range(4):
            mask[block + i, block + i] = True
            mask[block + i, block + (i + 2) % 4] = True
    return mask


def _apply_letters(r: np.ndarray, n: int, letters, tensor: np.ndarray) -> np.ndarray:
    """Apply rho(word) to the leading n+1 qubit axes of ``tensor``.

    The word's matrix is rho(w1) ... rho(wk), so the last letter acts first.
    Generator i acts with R (inverse for negative letters) on qubits
    i-1, i, i+1 of the (2,3,1) representation.
    """
    r3 = r.reshape(2, 2, 2, 2, 2, 2)
    r3_inv = np.linalg.inv(r).reshape(2, 2, 2, 2, 2, 2)
    out = tensor
    for letter in reversed(letters):
        op = r3 if letter > 0 else r3_inv
        i = abs(letter) - 1
        out = np.tensordot(op, out, axes=([3, 4, 5], [i, i + 1, i + 2]))
        out = np.moveaxis(out, (0, 1, 2), (i, i + 1, i + 2))
    return out


def word_matrix(r: np.ndarray, n: int, letters) -> np.ndarray:
    dim = 2 ** (n + 1)
    eye = np.eye(dim, dtype=np.complex128).reshape((2,) * (n + 1) + (dim,))
    return _apply_letters(r, n, letters, eye).reshape(dim, dim)


def word_state(r: np.ndarray, n: int, letters, amps: np.ndarray) -> np.ndarray:
    return _apply_letters(r, n, letters, amps.reshape((2,) * (n + 1))).reshape(-1)


def parse_word(text: str) -> tuple[int, tuple[int, ...]]:
    head, _, body = text.partition(":")
    n = int(head.split("=")[1])
    return n, tuple(int(t) for t in body.split(",") if t.strip())


def matrix_from_json(data: dict) -> np.ndarray:
    flat = np.asarray(data["entries"], dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(int(data["rows"]), int(data["cols"]))


def matrix_to_json(m: np.ndarray) -> str:
    rows, cols = m.shape
    entries = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    return json.dumps({"rows": rows, "cols": cols, "entries": entries})


# --- per-workload checks --------------------------------------------------------


def check_search(result: dict, tolerance: float, restarts: int) -> list[str]:
    """``result``: matrices, residuals, dedup_counts and traces of one call."""
    problems = []
    tol = 10.0 * tolerance
    mask = rowell_mask()
    traces = result["traces"]
    if len(traces) != restarts:
        problems.append(f"{len(traces)} traces for {restarts} restarts")
    for k, tr in enumerate(traces):
        if any(b > a for a, b in zip(tr, tr[1:])):
            problems.append(f"trace {k} increases")
    if traces and abs(result["best_objective"] - min(tr[-1] for tr in traces)) > 0.0:
        problems.append("best objective is not the smallest final objective")
    counts = result["dedup_counts"]
    if len(counts) != len(result["solutions"]) or sum(counts.values()) > restarts:
        problems.append(f"dedup counts {counts} do not match {len(result['solutions'])} classes")
    for s in result["solutions"]:
        m = s["matrix"]
        if np.any(m[~mask] != 0):
            problems.append(f"restart {s['restart']}: nonzero outside the pattern")
        eq, uni = equation_residual(m), unitarity_residual(m)
        if eq > tol or uni > tol:
            problems.append(f"restart {s['restart']}: equation {eq:.2e}, unitarity {uni:.2e} > {tol:g}")
        if s["residual"] > tol:
            problems.append(f"restart {s['restart']}: reported residual {s['residual']:.2e}")
        if np.linalg.svd(m, compute_uv=False)[-1] < 1e-6:
            problems.append(f"restart {s['restart']}: singular")
    return problems


def replay_witness(ops: list, source: np.ndarray) -> np.ndarray:
    m = source
    for op in ops:
        if op["kind"] == "inverse":
            m = np.linalg.inv(m)
        elif op["kind"] == "local_conj":
            q = matrix_from_json(op["Q"])
            lifted = np.kron(np.kron(q, q), q)
            m = np.linalg.inv(lifted) @ m @ lifted
        elif op["kind"] == "scalar":
            m = complex(*op["lambda"]) * m
        else:
            raise ValueError(f"unknown gauge op {op['kind']!r}")
    return m


def check_equiv(op: dict, code: int, out: str) -> list[str]:
    """A hit must carry a witness that replays; a miss must exit 1 with null."""
    src, _ = reference_matrix(op["source"])
    dst, _ = reference_matrix(op["target"])
    if not op["hit"]:
        if code != 1 or json.loads(out) is not None:
            return [f"expected no witness (exit 1), got exit {code}"]
        return []
    if code != 0:
        return [f"expected a witness (exit 0), got exit {code}"]
    witness = json.loads(out)
    residual = float(np.max(np.abs(replay_witness(witness["ops"], src) - dst)))
    if residual > WITNESS_TOL + EXACT_TOL:
        return [f"witness replays to residual {residual:.2e}"]
    return []


def compare_expected_equal(r: np.ndarray, kind: str) -> bool:
    """Whether a --compare pair of the given kind is equal in the representation.

    Relation pairs are equal in every representation.  A pair that swaps a
    letter for its inverse differs exactly when R^2 != I; a pair that swaps
    adjacent generators differs exactly when they do not commute on three
    strands.  Both are decided on the local 8x8 or 16x16 matrices.
    """
    if kind in ("braid", "far", "cancel"):
        return True
    if kind == "inverse":
        return bool(np.max(np.abs(r @ r - np.eye(8))) <= 1e-9)
    left, right = np.kron(r, np.eye(2)), np.kron(np.eye(2), r)
    return bool(np.max(np.abs(left @ right - right @ left)) <= 1e-9)


def check_braid(op: dict, code: int, out: str, state: np.ndarray | None = None) -> list[str]:
    r, _ = reference_matrix(op["solution"])
    n, letters = parse_word(op["word"])
    if op["kind"] == "compare":
        expect = 0 if compare_expected_equal(r, op["relation"]) else 1
        return [] if code == expect else [f"compare {op['relation']}: exit {code}, expected {expect}"]
    if code != 0:
        return [f"exit {code}"]
    got = matrix_from_json(json.loads(out))
    if op["kind"] == "state":
        want = word_state(r, n, letters, state)
        norm_err = abs(float(np.linalg.norm(got)) - 1.0)
        err = float(np.max(np.abs(got.reshape(-1) - want)))
        if norm_err > BRAID_TOL or err > BRAID_TOL:
            return [f"state differs by {err:.2e}, norm off by {norm_err:.2e}"]
        return []
    err = float(np.max(np.abs(got - word_matrix(r, n, letters))))
    uni = unitarity_residual(got)
    if err > BRAID_TOL or uni > BRAID_TOL:
        return [f"matrix differs by {err:.2e}, unitarity {uni:.2e}"]
    return []


def check_verify(op: dict, code: int, out: str, matrix: np.ndarray | None = None) -> list[str]:
    kind = op["kind"]
    if code != op["exit"]:
        return [f"{kind}: exit {code}, expected {op['exit']}"]
    if kind == "verify":
        report = json.loads(out)
        if matrix is None:
            ref, sig = reference_matrix(op["solution"])
            want = equation_residual(ref, sig[0], sig[2])
            if not report["passed"] or report["residual"] > EXACT_TOL or want > EXACT_TOL:
                return [f"verify {op['solution']}: residual {report['residual']:.2e}"]
            return []
        want = equation_residual(matrix)
        if report["passed"] or abs(report["residual"] - want) > 1e-9 * max(1.0, want):
            return [f"verify perturbed: reported {report['residual']:.3e}, independent {want:.3e}"]
        return []
    if kind == "classify":
        parsed = parse_family_id(op["solution"])
        family = parsed[0] if parsed else int(op["solution"][-1])
        if out.strip() != FAMILY_CATEGORY[family]:
            return [f"classify {op['solution']}: {out.strip()!r}, expected {FAMILY_CATEGORY[family]}"]
        return []
    if kind == "family":
        got = matrix_from_json(json.loads(out))
        err = float(np.max(np.abs(got - reference_matrix(op["solution"])[0])))
        return [] if err <= EXACT_TOL else [f"family {op['solution']}: differs by {err:.2e}"]
    if kind == "registry":
        entries = {e["id"]: (e["signature"], e["size"]) for e in json.loads(out)}
        want = {name: (sig, 8) for name, sig in REGISTRY.items()}
        return [] if entries == want else [f"registry {entries}"]
    return [f"unknown verify op {kind!r}"]
