"""Random states shared by several test modules."""

import numpy as np

from discordium.measure import random_unitary
from discordium.qmat import BipartiteState, classical_state, ginibre_density


def random_classical(n_A: int, n_B: int, rng: np.random.Generator) -> BipartiteState:
    """Random zero-discord state: random basis, probabilities and branches."""
    probs = rng.dirichlet(np.ones(n_A))
    basis = random_unitary(n_A, rng)
    branches = [ginibre_density(n_B, n_B, rng) for _ in range(n_A)]
    return classical_state(probs, branches, basis)
