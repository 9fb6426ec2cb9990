#!/usr/bin/env python3
"""Platform-observability walkthrough: trace a campaign, prove the
cache pays on the second run.

PR 3 gave the *simulator* telemetry (what the cores and banks did
inside one run); this example exercises the *platform* observability
around it (what the harness did across many runs).  Every nested span
(campaign → schedule-batch → point → build/run/collect-stats), cache
hit and campaign batch is one record in the harness's event log; the
Chrome trace and ``OBS.metrics`` (cache hits, campaign progress) are
folds over those records.  The payoff shown here: a re-run of the
same campaign against a warm result cache is answered entirely from
cache — and the counters prove it, instead of asking you to trust a
faster wall clock.

Run:  python examples/observe_campaign.py

Equivalent CLI:
  repro explore histogram --smoke --axis bins=1,4 \\
      --axis variant=lrsc,colibri --objective min:cycles --budget 4 \\
      --cache-dir cache --out camp --obs-trace trace.json
  python -m repro.obs trace.json          # schema gate (CI runs this)
  repro obs summary trace.json            # wall clock, hit rate, lanes
  repro obs summary camp/journal.json     # per-evaluation wall_ms view
  repro cache stats --cache-dir cache     # lifetime hit/miss rates
"""

import json
import os
import tempfile

from repro.dse import Campaign, SearchSpace, parse_objectives
from repro.eval.runner import ResultCache
from repro.obs import OBS, render_summary, validate_trace
from repro.scenarios import default_spec

AXES = {"bins": [1, 4], "variant": ["lrsc", "colibri"]}
BUDGET = 4


def run_campaign(cache, journal_file):
    campaign = Campaign(
        base=default_spec("histogram", num_cores=8).with_params(
            updates_per_core=2),
        space=SearchSpace.from_axes(AXES),
        sampler="grid",
        objectives=parse_objectives(["min:cycles"]),
        budget=BUDGET,
        cache=cache,
        journal_file=journal_file)
    return campaign.run()


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        cache = ResultCache(os.path.join(workdir, "cache"))
        trace_file = os.path.join(workdir, "trace.json")

        # -- cold run: every point simulates fresh, spans recorded ----
        OBS.enable()
        try:
            run_campaign(cache, os.path.join(workdir, "journal.json"))
            OBS.export_chrome_trace(trace_file)
            cold = dict(OBS.metrics.counters)
        finally:
            OBS.disable()
        with open(trace_file) as stream:
            document = json.load(stream)
        validate_trace(document)          # what `python -m repro.obs` runs
        cats = {event["cat"] for event in document["traceEvents"]
                if event["ph"] == "X"}
        assert {"campaign", "schedule", "point", "phase"} <= cats
        assert cold["campaign.paid"] == BUDGET
        assert cold.get("cache.hit", 0) == 0     # nothing to hit yet
        print(render_summary(trace_file))
        print()

        # -- warm run: same campaign, warm cache -> zero simulations --
        warm_journal = os.path.join(workdir, "journal-warm.json")
        OBS.enable()
        try:
            result = run_campaign(ResultCache(cache.path), warm_journal)
            warm = dict(OBS.metrics.counters)
        finally:
            OBS.disable()
        assert warm["cache.hit"] == BUDGET, warm
        assert "cache.miss" not in warm, warm
        assert warm["campaign.paid"] == 0
        assert warm["campaign.free"] == BUDGET
        assert all(e.cache_hit for e in result.evaluations)
        print(f"warm re-run: {warm['cache.hit']}/{BUDGET} points "
              f"answered from cache, 0 fresh simulations")
        print()
        print(render_summary(warm_journal))


if __name__ == "__main__":
    main()
