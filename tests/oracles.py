"""Reference implementations that the tests check the program against."""

import numpy as np

from grancount.errors import NumericalError, ValidationError
from grancount.model import Posterior, PriorSpec, pack_params
from grancount.possibility import MembershipVector, complement_degrees

# Brute force enumerates all 2^n subsets; refuse anything bigger than this.
MAX_BRUTEFORCE_OBS = 20


def observed_loglik(spec, params, data, model) -> float:
    """Observed-data log likelihood of `model` at constrained-scale `params`, on the full grid."""
    ll, _ = Posterior(spec, data, PriorSpec(), model)._loglik_and_grad(pack_params(params, model))
    if not np.isfinite(ll):
        raise NumericalError(f"{model} likelihood cannot be evaluated at these parameters")
    return float(ll)


def granular_count_bruteforce(assign, referent: int) -> MembershipVector:
    """Count a referent by exhaustive subset enumeration.

    For each y, the membership is the best (over subsets O_y of size y) of
    min(min over O_y of pi[o, r], min over the rest of the best alternative
    degree), empty minima counting as 1. Exponential in the number of
    observations; the oracle for `granular_count_fast`.
    """
    n = assign.n_obs
    if n > MAX_BRUTEFORCE_OBS:
        raise ValidationError(
            f"instance too large for oracle: {n} observations exceeds "
            f"the enumeration guard of {MAX_BRUTEFORCE_OBS}"
        )
    alt = complement_degrees(assign, referent).tolist()  # checks the referent index
    own = assign.degrees[:, referent].tolist()
    best = [0.0] * (n + 1)
    for subset in range(1 << n):
        level = 1.0  # empty minima count as fully possible
        size = 0
        for o in range(n):
            if subset >> o & 1:
                size += 1
                if own[o] < level:
                    level = own[o]
            elif alt[o] < level:
                level = alt[o]
        if level > best[size]:
            best[size] = level
    return MembershipVector(np.array(best))
