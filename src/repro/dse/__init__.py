"""Design-space exploration: search campaigns over scenario specs.

The repo's figures evaluate hand-picked points; this package searches
the paper's whole design space.  A :class:`SearchSpace` declares axes
(spec fields, workload parameters, memory variants) with constraints; a
registered *sampler* (``grid``, ``random``, ``halving``) proposes
prioritized batches; :class:`Objective`\\ s score each evaluated point
from run metrics or telemetry summaries; and a :class:`Campaign` runs
the whole thing through the sharded scenario runner and result cache —
cache hits cost zero budget — journaling every evaluation into a
resumable, schema-validated JSON document::

    from repro.dse import Campaign, SearchSpace, parse_objectives
    from repro.scenarios import default_spec

    campaign = Campaign(
        base=default_spec("histogram", num_cores=8),
        space=SearchSpace.from_axes({"bins": [1, 4, 16],
                                     "variant": ["lrsc", "colibri"]}),
        sampler="halving",
        objectives=parse_objectives(["min:cycles", "min:energy"]),
        budget=12)
    result = campaign.run()
    print(result.best().overrides, [e.overrides for e in result.frontier()])

The ``repro explore`` / ``repro frontier`` CLI drives it directly, and
``python -m repro.obs journal.json`` schema-validates journals in CI.
"""

from .campaign import Campaign, CampaignResult, Evaluation
from .journal import (
    JOURNAL_NAME,
    JOURNAL_VERSION,
    JournalWriter,
    journal_path,
    load_journal,
    write_journal,
)
from .objectives import (
    Objective,
    parse_objective,
    parse_objectives,
    pareto_front,
    probe_summaries,
)
from .report import journal_frontier, journal_ranking, render_journal
from .samplers import (
    Batch,
    Sampler,
    UnknownSamplerError,
    create_sampler,
    get_sampler,
    list_samplers,
    register_sampler,
    unregister_sampler,
)
from .schema import validate_journal
from .space import SearchSpace

__all__ = [
    "Batch",
    "Campaign",
    "CampaignResult",
    "Evaluation",
    "JOURNAL_NAME",
    "JOURNAL_VERSION",
    "JournalWriter",
    "Objective",
    "Sampler",
    "SearchSpace",
    "UnknownSamplerError",
    "create_sampler",
    "get_sampler",
    "journal_frontier",
    "journal_path",
    "journal_ranking",
    "list_samplers",
    "load_journal",
    "pareto_front",
    "parse_objective",
    "parse_objectives",
    "probe_summaries",
    "register_sampler",
    "render_journal",
    "unregister_sampler",
    "validate_journal",
    "write_journal",
]
