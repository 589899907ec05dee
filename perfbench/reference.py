"""Values the benchmark computes apart from the program under test.

Everything here is plain numpy over a detector's or circuit's model:
no function of ``bornverifier`` is called, so a fault in the program's
oracle, tomography or evaluator cannot hide in the reference.
"""

from __future__ import annotations

import numpy as np

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
SG_PROJECTORS = {
    "u": np.diag([1.0, 0.0]).astype(complex),
    "d": np.diag([0.0, 1.0]).astype(complex),
}


def effect_of(model) -> np.ndarray:
    """2x2 click effect of a detector, read from its model.

    An effect detector carries it directly.  For an ancilla detector
    with coupling U and ancilla projector P it is
    E_ij = <i,0| U^dagger (I (x) P) U |j,0>.
    """
    if hasattr(model, "effect"):
        return np.array(model.effect, dtype=complex)
    m = int(model.ancilla_dim)
    columns = np.asarray(model.coupling, dtype=complex)[:, [0, m]]
    projected = np.kron(np.eye(2), np.asarray(model.projector, dtype=complex))
    return columns.conj().T @ projected @ columns


def affine_of(effect: np.ndarray) -> tuple[float, np.ndarray]:
    """(beta, alpha) = (tr E / 2, tr(E sigma_i) / 2)."""
    beta = float(np.trace(effect).real) / 2.0
    alpha = np.einsum("ij,kji->k", effect, PAULI).real / 2.0
    return beta, alpha


def click_at(effect: np.ndarray, points: np.ndarray) -> np.ndarray:
    """tr(E (I + p.sigma) / 2) for each row p of an (N, 3) array."""
    rho = 0.5 * (np.eye(2) + np.einsum("nk,kij->nij", points, PAULI))
    return np.einsum("ij,nji->n", effect, rho).real


def principal_sqrt(m: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(m)
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T


def _apply(ket: np.ndarray, dims: tuple[int, ...], wires, op: np.ndarray) -> np.ndarray:
    """Apply ``op`` to the listed wires of a ket shaped by ``dims``."""
    wires = list(wires)
    k = len(wires)
    op = op.reshape([dims[w] for w in wires] * 2)
    out = np.tensordot(op, ket, axes=(list(range(k, 2 * k)), wires))
    return np.moveaxis(out, list(range(k)), wires)


def simulate_query(spec, query: str) -> float:
    """Probability of a named query of a parsed experiment.

    Each branch is an unnormalized ket.  A queried measurement applies
    the Kraus operator of its required outcome; an unqueried one splits
    every branch over both outcomes.  The Kraus operators are those the
    circuit evaluator documents: the SG projectors, and the principal
    square roots of E and I - E for a detector with effect E.  The
    probability is the total squared norm of the surviving branches.
    """
    dims = tuple(dim for _, dim in spec.wires)
    index = {name: i for i, (name, _) in enumerate(spec.wires)}
    wanted = dict(spec.queries[query])
    branches = [np.asarray(spec.states[spec.prepare], dtype=complex).reshape(dims)]
    for step in spec.steps:
        if hasattr(step, "unitary"):
            wires = [index[w] for w in step.wires]
            gate = np.asarray(spec.unitaries[step.unitary], dtype=complex)
            branches = [_apply(b, dims, wires, gate) for b in branches]
            continue
        if step.kind == "sg":
            kraus = dict(SG_PROJECTORS)
        else:
            effect = effect_of(spec.detectors[step.kind])
            kraus = {
                "click": principal_sqrt(effect),
                "noclick": principal_sqrt(np.eye(2) - effect),
            }
        outcomes = [wanted[step.label]] if step.label in wanted else list(kraus)
        wire = index[step.wire]
        branches = [_apply(b, dims, [wire], kraus[o]) for b in branches for o in outcomes]
    return float(sum(np.vdot(b, b).real for b in branches))
