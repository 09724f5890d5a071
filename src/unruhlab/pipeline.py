"""End-to-end protocol: weak filtering, acceleration of party a, reversal.

This composition is the numerical ground truth against which the
closed-form final states are validated.  Party 0 is the accelerated
observer throughout.
"""

from dataclasses import dataclass

import numpy as np

from .channel import AccelerationSpec, channel_for_dim, accelerate
from .errors import DegenerateOutcome, DimMismatch
from .localops import (MeasurementStrengths, REVERSE, WEAK, apply_local_pair,
                       build_operator, embed_diagonal)
from .tensor import DensityMatrix, kron

ACCELERATED_PARTY = 0
LADDER_FLOOR = 1e-14


@dataclass(frozen=True)
class ProtocolResult:
    """Final state plus the intermediate states and success probabilities."""

    final: DensityMatrix
    after_weak: DensityMatrix
    after_acceleration: DensityMatrix
    p_weak: float
    p_reverse: float

    @property
    def p_success(self) -> float:
        return self.p_weak * self.p_reverse


def run_protocol(initial: DensityMatrix, weak: MeasurementStrengths,
                 reverse: MeasurementStrengths, acc: AccelerationSpec
                 ) -> ProtocolResult:
    """Drive one parameter point through the full protocol.

    The weak filter acts on both parties of ``initial``; party 0 then
    passes through the acceleration channel (enlarging a qutrit party to
    dimension 4); finally both parties apply the reversing filter, which
    acts as identity on the pair level that only exists after acceleration.
    With tied strengths the weak step leaves any state on
    span{|01>, |10>} (the singlet among them) unchanged, with
    p_weak = 1 - alpha, so only the reversing filter shapes the output.

    Raises :class:`DegenerateOutcome` when either post-selection has
    numerically zero success probability.
    """
    if len(initial.dims) != 2:
        raise DimMismatch(f"protocol needs a bipartite state, got dims {initial.dims}")
    da, db = initial.dims
    if weak.kind != WEAK or reverse.kind != REVERSE:
        raise ValueError("strength kinds must be (weak, reverse)")
    if weak.dim != da or reverse.dim != da:
        raise DimMismatch(
            f"strengths are for dimension {weak.dim}/{reverse.dim}, state has {da}"
        )

    w_a = build_operator(WEAK, da, weak.party_a_levels)
    w_b = build_operator(WEAK, db, weak.party_b_levels)
    after_weak, p_weak = apply_local_pair(initial, w_a, w_b)

    chan = channel_for_dim(da, acc)
    after_acc = accelerate(after_weak, ACCELERATED_PARTY, chan)

    r_a = embed_diagonal(build_operator(REVERSE, da, reverse.party_a_levels),
                         chan.out_dim)
    r_b = build_operator(REVERSE, db, reverse.party_b_levels)
    final, p_rev = apply_local_pair(after_acc, r_a, r_b)
    return ProtocolResult(final, after_weak, after_acc, p_weak, p_rev)


def restrict_to_ladder(rho: DensityMatrix, renormalize: bool
                       ) -> tuple[DensityMatrix, float]:
    """Restrict an accelerated 4 x 3 state to the pre-acceleration ladder.

    Drops party a's pair level, keeping the {vacuum, U, D} block.  Returns
    the 3 x 3-party state together with the weight retained.  With
    ``renormalize`` False the block is returned as-is (trace < 1 possible,
    state flagged non-strict); with True it is scaled back to unit trace.
    """
    if rho.dims != (4, 3):
        raise DimMismatch(f"expected dims (4, 3), got {rho.dims}")
    sel = np.zeros((3, 4), dtype=np.complex128)
    sel[0, 0] = sel[1, 1] = sel[2, 2] = 1.0
    op = kron(sel, np.eye(3, dtype=np.complex128))
    block = op @ rho.matrix @ op.conj().T
    weight = float(np.trace(block).real)
    if renormalize:
        if weight < LADDER_FLOOR:
            raise DegenerateOutcome(f"ladder sector weight {weight:.3e} is zero")
        return DensityMatrix(block / weight, (3, 3)), weight
    return DensityMatrix(block, (3, 3), strict=False, flags=("sector",)), weight
