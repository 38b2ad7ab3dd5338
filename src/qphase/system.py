"""One-stop assembly of the full construction for n qubits, cached per n."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import FieldContext, field_create
from .geometry import Striation, enumerate_striations
from .mub import StriationBasis, full_mub_set
from .operators import QubitLabeling, default_labeling
from .wigner import QuantumNet, default_net


@dataclass(frozen=True, eq=False)
class PhaseSpaceSystem:
    """Field, geometry, labeling, conjugate bases and quantum net for one n.

    The bases are the net's and share the batched integer pass's sign frame
    (``mub.full_mub_set``); a basis reads its masks, exponents and vectors
    off its own row of that frame when each is first read.
    """

    n: int
    ctx: FieldContext
    striations: tuple[Striation, ...]
    labeling: QubitLabeling
    bases: tuple[StriationBasis, ...]
    net: QuantumNet

    @property
    def dim(self) -> int:
        return self.ctx.order


@lru_cache(maxsize=None)
def build_system(n: int) -> PhaseSpaceSystem:
    """Assemble (and cache) everything downstream code needs for n qubits."""
    ctx = field_create(n)
    striations = enumerate_striations(ctx)
    labeling = default_labeling(ctx)
    net = default_net(ctx, labeling, full_mub_set(ctx, labeling))
    return PhaseSpaceSystem(
        n=n, ctx=ctx, striations=striations, labeling=labeling, bases=net.bases, net=net
    )
