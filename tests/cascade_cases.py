"""Seeded detector-cascade cases and the digests of their results.

Each case is a system and a state: standard and permuted systems for
n = 1..10, dense twins of both for n <= 6, and the standard and a permuted
system carried into the GHZ basis.  The states are two eigenstates, two
random states and the first eigenstate tilted by 1e-9 toward the second.
A case's digest is the sha256 of its `measure_state` probabilities
(`tobytes`) and of its `sample_detections` counts for seeds 0 and 7.

    PYTHONPATH=src python tests/cascade_cases.py > tests/golden/cascade_digests.json

records the digests of the code on the path; `tests/test_trial_loops.py`
compares the current code with the committed file.  The cases use only
names that the package has had since before the one-tree cascade.
"""

import hashlib
import json

import numpy as np

from statesieve import (PropositionSystem, ghz_basis, measure_state, permute_system,
                        sample_detections, standard_system, transformed_system)

SEEDS = (0, 7)
TRIALS = 300


def _states(rng, vectors):
    dim = vectors.shape[1]
    k1, k2 = rng.choice(len(vectors), size=2, replace=False)
    states = [("eigen_a", vectors[k1]), ("eigen_b", vectors[k2])]
    for tag in ("random_a", "random_b"):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        states.append((tag, v / np.linalg.norm(v)))
    tilted = vectors[k1] + 1e-9 * vectors[k2]
    states.append(("tilted", tilted / np.linalg.norm(tilted)))
    return states


def cases():
    """(name, system, state) for every case, in a fixed order."""
    for n in range(1, 11):
        dim = 2 ** n
        rng = np.random.default_rng(1000 + n)
        std = standard_system(n)
        systems = [("standard", std), ("permuted", permute_system(std, rng.permutation(dim)))]
        if n <= 6:
            systems += [(f"{tag}_dense", PropositionSystem(n, s.projectors))
                        for tag, s in systems]
        states = _states(rng, np.eye(dim, dtype=complex))
        for tag, system in systems:
            for label, state in states:
                yield f"n{n}_{tag}_{label}", system, state
    rng = np.random.default_rng(2000)
    basis, unitary = ghz_basis()
    states = _states(rng, basis.vectors)
    for tag, system in (("standard", standard_system(3)),
                        ("permuted", permute_system(standard_system(3), rng.permutation(8)))):
        moved = transformed_system(unitary, system)
        for label, state in states:
            yield f"n3_ghz_{tag}_{label}", moved, state


def digest(system, state) -> dict:
    probs = np.array(measure_state(system, state).probabilities)
    counts = [sample_detections(system, state, TRIALS, seed) for seed in SEEDS]
    return {"probabilities": hashlib.sha256(probs.tobytes()).hexdigest(),
            "counts": hashlib.sha256(json.dumps(counts).encode()).hexdigest()}


if __name__ == "__main__":
    print(json.dumps({name: digest(system, state) for name, system, state in cases()},
                     indent=1))
