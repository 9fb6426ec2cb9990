"""Search strategies: how a campaign walks its space.

A *sampler* proposes prioritized batches of axis combinations for the
:class:`~repro.dse.campaign.Campaign` to evaluate, and may adapt later
batches to the scores of earlier ones.  The protocol is a generator
conversation::

    generator = sampler.batches(space, budget, rng)
    batch = generator.send(None)          # first proposal
    batch = generator.send(scores)        # scores of the last batch,
                                          # aligned with batch.combos
                                          # (lower is better)

Samplers never simulate and never see budget spend — the campaign owns
both; ``budget`` is advisory sizing information only.  Randomness comes
exclusively through the ``rng`` argument (a seeded
:class:`random.Random`), so a campaign's proposals are a pure function
of (space, budget, seed).

Sampler classes register under a name with :func:`register_sampler` —
one instance of the shared :class:`~repro.registry.Registry`, like
workloads, variants and telemetry probes — and the CLI looks them up
for ``repro explore --sampler <name>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.errors import ConfigError
from ..registry import Registry

#: Evaluation fidelities a batch may request.  ``smoke`` applies the
#: workload's tiny smoke overrides underneath the axis combination —
#: the cheap low-rung measurement successive halving promotes from.
FIDELITIES = ("full", "smoke")


class UnknownSamplerError(ConfigError):
    """A campaign named a sampler that is not registered."""


@dataclass
class Batch:
    """One prioritized batch of proposals.

    ``combos`` are evaluated in list order — samplers put their most
    promising candidates first, so budget exhaustion truncates the
    least interesting tail.  ``rung`` counts adaptive rounds (0 for
    one-shot samplers).
    """

    combos: list
    fidelity: str = "full"
    rung: int = 0

    def __post_init__(self) -> None:
        if self.fidelity not in FIDELITIES:
            raise ConfigError(
                f"batch fidelity must be one of {FIDELITIES}, "
                f"got {self.fidelity!r}")


class Sampler:
    """Base class: subclasses implement :meth:`batches`."""

    #: Registry name, filled by :func:`register_sampler`.
    name: str = ""
    description: str = ""

    def batches(self, space, budget: int, rng):
        """Yield :class:`Batch` proposals; receives score lists back."""
        raise NotImplementedError(
            f"sampler {type(self).__name__} does not implement batches()")


#: name -> sampler class.
_SAMPLERS = Registry("sampler", UnknownSamplerError)
register_sampler = _SAMPLERS.register
unregister_sampler = _SAMPLERS.unregister
get_sampler = _SAMPLERS.get
create_sampler = _SAMPLERS.create
list_samplers = _SAMPLERS.items


# -- built-in samplers --------------------------------------------------------


@register_sampler("grid")
class GridSampler(Sampler):
    """Exhaustive: every admitted point, in grid order, full fidelity.

    The reference strategy — with enough budget it *is* ground truth,
    and the halving golden test compares against it.  Points are
    proposed in chunks of ``batch_size`` so the campaign journal
    checkpoints between chunks: a killed 500-point grid loses at most
    one chunk, not everything.
    """

    description = "exhaustive cartesian grid, full fidelity"

    def __init__(self, batch_size: int = 8) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size

    def batches(self, space, budget, rng):
        points = space.points()
        for rung, start in enumerate(range(0, len(points),
                                           self.batch_size)):
            yield Batch(points[start:start + self.batch_size],
                        fidelity="full", rung=rung)


@register_sampler("random")
class RandomSampler(Sampler):
    """Uniform search without replacement, in seeded-shuffle order.

    Proposes ``batch_size`` points at a time until the space (or the
    campaign's budget) runs out.  All randomness flows through the
    campaign's seeded ``rng``, so the proposal order is reproducible.
    """

    description = "uniform random without replacement (seeded)"

    def __init__(self, batch_size: int = 8) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size

    def batches(self, space, budget, rng):
        points = space.points()
        rng.shuffle(points)
        for rung, start in enumerate(range(0, len(points),
                                           self.batch_size)):
            yield Batch(points[start:start + self.batch_size],
                        fidelity="full", rung=rung)


@register_sampler("halving")
class HalvingSampler(Sampler):
    """Successive halving: smoke rungs prune, survivors run full.

    Every candidate is first measured at *smoke* fidelity (the
    workload's tiny smoke overrides under the axis combination — cheap,
    but rank-informative).  Each rung keeps the best ``1/eta`` of its
    candidates (never fewer than ``finalists``), and once the field is
    down to ``finalists`` the survivors run at full fidelity, best
    smoke score first.  The campaign ranks only full-fidelity results,
    so smoke rungs steer the search without contaminating the answer.
    """

    description = ("successive halving: smoke-fidelity rungs prune, "
                   "finalists run full")

    def __init__(self, eta: int = 2, finalists: int = 2) -> None:
        if eta < 2:
            raise ValueError(f"eta must be >= 2, got {eta}")
        if finalists < 1:
            raise ValueError(f"finalists must be >= 1, got {finalists}")
        self.eta = eta
        self.finalists = finalists

    def batches(self, space, budget, rng):
        candidates = space.points()
        rung = 0
        while len(candidates) > self.finalists:
            scores = yield Batch(list(candidates), fidelity="smoke",
                                 rung=rung)
            ranked = sorted(range(len(candidates)),
                            key=lambda i: (scores[i], i))
            keep = max(self.finalists,
                       -(-len(candidates) // self.eta))
            # Always shrink, or a too-large ``finalists`` floor loops.
            keep = min(keep, len(candidates) - 1)
            candidates = [candidates[i] for i in ranked[:keep]]
            rung += 1
        yield Batch(list(candidates), fidelity="full", rung=rung)
