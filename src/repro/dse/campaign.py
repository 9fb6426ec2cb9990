"""The campaign engine: budgeted, journaled design-space search.

A :class:`Campaign` drives one sampler over one
:class:`~repro.dse.space.SearchSpace`, evaluating proposals through the
standard scenario machinery (the :class:`~repro.eval.runner.ResultCache`
lookup and :func:`~repro.scenarios.run.simulate`'s worker pool) and
journaling every evaluation as it lands.

The contract that makes campaigns practical:

* **Budget counts simulations, not proposals.**  A point served from
  the result cache — or already present in the journal, or proposed
  twice within one campaign — costs zero budget; only fresh simulation
  spends it.  Exhausting the budget truncates the in-flight batch at a
  deterministic point and marks the journal ``status="budget"``.
* **Determinism.**  Proposals are a pure function of (space, sampler,
  budget, seed); evaluations are pure functions of their specs; results
  are reassembled in proposal order.  The journal is therefore
  byte-identical for any ``--jobs`` value.
* **Resume by replay.**  A resumed campaign re-drives the sampler from
  scratch and satisfies the first N proposals positionally from the
  journal's N records — zero re-simulation — then continues where the
  killed run stopped.  Replayed paid evaluations still count against
  the budget (they were paid for), so an interrupted-and-resumed
  campaign converges to exactly the journal an uninterrupted one
  writes.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Optional

from ..engine.errors import ConfigError
from ..obs import OBS
from ..scenarios.registry import get_workload
from ..scenarios.run import (
    METRICS,
    MISS,
    apply_settings,
    run_scenario,
    scenario_cache_key,
    simulate,
)
from ..scenarios.spec import ScenarioSpec
from .journal import (
    JournalWriter,
    check_resumable,
    new_journal,
    write_journal,
)
from .objectives import _BASE_SCALARS, pareto_front
from .samplers import Sampler, create_sampler
from .space import SearchSpace

@dataclass
class Evaluation:
    """One journaled evaluation: a proposal and its measured outcome."""

    index: int
    batch: int
    rung: int
    fidelity: str
    overrides: dict
    spec: dict
    spec_hash: str
    #: True when this record cost zero budget: a result-cache hit, a
    #: journal replay of one, or a repeat of a point already evaluated
    #: earlier in the same campaign.
    cached: bool
    objectives: dict
    scalars: dict
    #: Simulation wall-clock attributed to this record, in
    #: milliseconds: fresh points carry their batch's simulate time
    #: amortized evenly across the batch's fresh points (the runner
    #: reassembles results in proposal order, so per-point walls are
    #: not individually observable); free points carry 0.0.  The one
    #: journal field that is *not* deterministic — journal comparisons
    #: in tests strip it.
    wall_ms: float = 0.0
    #: True when the record was served by the :class:`ResultCache`
    #: (``cached`` is broader: it also covers repeats and replays).
    cache_hit: bool = False

    def to_record(self) -> dict:
        return {
            "index": self.index,
            "batch": self.batch,
            "rung": self.rung,
            "fidelity": self.fidelity,
            "overrides": dict(self.overrides),
            "spec": self.spec,
            "spec_hash": self.spec_hash,
            "cached": self.cached,
            "objectives": dict(self.objectives),
            "scalars": dict(self.scalars),
            "wall_ms": self.wall_ms,
            "cache_hit": self.cache_hit,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Evaluation":
        # Tolerate records missing post-v1 fields (wall_ms, cache_hit):
        # old journals replay with the fields' defaults.
        return cls(**{f.name: record[f.name]
                      for f in dataclasses.fields(cls)
                      if f.name in record})


@dataclass
class CampaignResult:
    """A finished (or budget/interrupt-stopped) campaign."""

    journal: dict
    evaluations: list
    paid: int
    status: str
    objectives: list
    journal_file: Optional[str] = None

    def _by_records(self, select) -> list:
        """Map a record-level selection back onto the evaluations.

        Comparability and ranking are defined once, on journal
        records (:mod:`repro.dse.report`), so the live campaign and
        ``repro frontier`` can never disagree about the same journal.
        The journal's records are the ones the campaign built as each
        evaluation landed, one per evaluation, in order.
        """
        return [self.evaluations[record["index"]]
                for record in select(self.journal["evaluations"])]

    def comparable(self) -> list:
        """The evaluations rankings compare (see
        :func:`repro.dse.report.comparable_records`)."""
        from .report import comparable_records
        return self._by_records(comparable_records)

    def ranking(self) -> list:
        """Comparable evaluations, best first by the primary objective
        (ties broken by evaluation order)."""
        from .report import rank_records
        return self._by_records(
            lambda records: rank_records(records, self.objectives))

    def best(self) -> Optional[Evaluation]:
        ranked = self.ranking()
        return ranked[0] if ranked else None

    def frontier(self) -> list:
        """Non-dominated comparable evaluations, in evaluation order."""
        pool = self.comparable()
        rows = [e.objectives for e in pool]
        return [pool[i] for i in pareto_front(rows, self.objectives)]


class Campaign:
    """One configured design-space search (see the module docstring).

    ``sampler`` is a registered name (options via ``sampler_options``)
    or a ready :class:`~repro.dse.samplers.Sampler` instance.  When
    ``journal_file`` is set the journal is rewritten atomically after
    every batch; ``resume`` (a loaded journal dict) replays its records
    before anything simulates.  ``cache``/``jobs`` flow to the cache
    lookup and :func:`~repro.scenarios.run.simulate` unchanged — except
    for telemetry objectives, which force probed, serial, cache-less
    evaluation.  ``batch`` is accepted for compatibility and has no
    effect.
    """

    def __init__(self, base: ScenarioSpec, space: SearchSpace, sampler,
                 objectives, budget: int, seed: int = 0, jobs: int = 1,
                 cache=None, journal_file: Optional[str] = None,
                 resume: Optional[dict] = None,
                 sampler_options: Optional[dict] = None,
                 batch: bool = False) -> None:
        if not isinstance(budget, int) or budget < 1:
            raise ConfigError(
                f"campaign budget must be a positive int, got {budget!r}")
        if not objectives:
            raise ConfigError("a campaign needs at least one objective")
        self.base = base
        self.space = space
        if isinstance(sampler, str):
            sampler = create_sampler(sampler, **(sampler_options or {}))
        elif sampler_options:
            raise ConfigError(
                "sampler_options only apply when sampler is a name")
        if not isinstance(sampler, Sampler):
            raise ConfigError(
                f"sampler must be a registered name or Sampler instance, "
                f"got {sampler!r}")
        self.sampler = sampler
        self.objectives = list(objectives)
        self.budget = budget
        self.seed = seed
        self.jobs = jobs
        self.cache = cache
        self.journal_file = journal_file
        self.probes = sorted({o.probe for o in self.objectives
                              if o.probe is not None})
        # Telemetry objectives must name registered probes — catch the
        # typo now, not after the first batch has simulated.
        for probe in self.probes:
            from ..telemetry import get_probe
            get_probe(probe)
        self._metric_names = {name for name in
                              (o.required_metric() for o in self.objectives)
                              if name is not None}
        workload = get_workload(base.workload)
        self.smoke_overrides = dict(workload.smoke)
        # Plain-metric objectives must name something a result will
        # actually carry — the universal scalars, a METRICS extractor,
        # or an extra the workload declares.  A typo must fail here,
        # before a single (possibly expensive) simulation is paid for.
        known = (set(METRICS) | set(_BASE_SCALARS)
                 | set(getattr(workload, "extra_metrics", ())))
        for objective in self.objectives:
            if objective.probe is None and objective.metric not in known:
                raise ConfigError(
                    f"unknown objective metric {objective.metric!r} for "
                    f"workload {base.workload!r}; known: {sorted(known)}")
        header = self._header()
        if resume is not None:
            check_resumable(resume, header)
        self.resume = resume
        #: Journal-write guard: while this run's evaluation list is
        #: still shorter than the journal being resumed, writing would
        #: *shrink* the on-disk journal — an interrupt mid-resume (or a
        #: resume under a smaller budget) must never destroy paid
        #: records, so :meth:`_write` skips the file until the replay
        #: has fully caught up.
        self._resume_count = (len(resume["evaluations"])
                              if resume is not None else 0)
        self.header = header
        #: Built at the first journal write, not here: constructing a
        #: campaign stays free of journal work.
        self._writer: Optional[JournalWriter] = None
        # Fail fast on an invalid base/axes combination without paying
        # O(grid) spec validations up front (a 100k-point space with a
        # 20-point budget must not validate 100k specs): check the
        # first admitted point here; every *proposed* point is still
        # validated by _spec_for before its batch simulates.
        self._spec_for(space.points()[0], "full")

    def _header(self) -> dict:
        """The campaign-identity block of the journal."""
        options = {key: value for key, value in vars(self.sampler).items()
                   if isinstance(value, (int, float, str, bool))}
        return {
            "workload": self.base.workload,
            "base_spec": self.base.to_dict(),
            "space": self.space.to_dict(),
            "sampler": {"name": self.sampler.name, "options": options},
            "objectives": [o.name for o in self.objectives],
            "budget": self.budget,
            "seed": self.seed,
        }

    def _spec_for(self, combo: dict, fidelity: str) -> ScenarioSpec:
        """The concrete spec of one proposal at one fidelity."""
        spec = self.base
        if fidelity == "smoke" and self.smoke_overrides:
            # Smoke underneath, axes on top: the combination under test
            # must survive the shrink.
            spec = apply_settings(spec, self.smoke_overrides)
        spec = apply_settings(spec, combo)
        if self._metric_names:
            metrics = tuple(sorted(set(spec.metrics) | self._metric_names))
            spec = dataclasses.replace(spec, metrics=metrics)
        spec.validate()
        return spec

    # -- execution ------------------------------------------------------------

    def run(self) -> CampaignResult:
        """Drive the sampler to completion, budget, or space exhaustion."""
        journal = new_journal(self.header)
        replay = list(self.resume["evaluations"]) if self.resume else []
        evaluations: list = []
        seen: dict = {}              # spec_hash -> Evaluation (this run)
        paid = 0
        status = "complete"
        rng = random.Random(self.seed)
        generator = self.sampler.batches(self.space, self.budget, rng)
        scores = None
        batch_index = 0
        events = OBS.events
        if events is not None:
            events.emit("campaign_started", workload=self.base.workload,
                        sampler=self.sampler.name, budget=self.budget,
                        seed=self.seed, jobs=self.jobs,
                        resumed=len(replay))
        with OBS.span("campaign", cat="campaign",
                      workload=self.base.workload, budget=self.budget,
                      sampler=self.sampler.name):
            try:
                while True:
                    try:
                        batch = generator.send(scores)
                    except StopIteration:
                        break
                    outcome = self._run_batch(batch, batch_index, replay,
                                              evaluations, seen, paid)
                    paid, truncated = outcome
                    self._write(journal, evaluations, paid, "partial")
                    OBS.points = len(evaluations)
                    if truncated:
                        status = "budget"
                        break
                    primary = self.objectives[0]
                    start = len(evaluations) - len(batch.combos)
                    scores = [primary.canonical(
                        evaluations[start + offset]
                        .objectives[primary.metric])
                        for offset in range(len(batch.combos))]
                    batch_index += 1
            except BaseException:
                # A failing objective extraction (or a Ctrl-C) must not
                # discard the simulations that already finished: flush
                # what landed so --resume can replay it after the fix.
                # ``paid`` is recomputed from the records themselves —
                # the local is stale when the failing batch already
                # appended paid ones.
                flushed_paid = sum(1 for e in evaluations if not e.cached)
                self._write(journal, evaluations, flushed_paid, "partial")
                if OBS.events is not None:
                    OBS.events.emit("campaign_finished", status="partial",
                                    points=len(evaluations),
                                    paid=flushed_paid)
                raise
            finally:
                generator.close()
            journal = self._finalize(journal, evaluations, paid, status)
        return CampaignResult(journal=journal, evaluations=evaluations,
                              paid=paid, status=status,
                              objectives=list(self.objectives),
                              journal_file=self.journal_file)

    def _run_batch(self, batch, batch_index: int, replay: list,
                   evaluations: list, seen: dict, paid: int):
        """Evaluate one batch up to the budget; returns (paid, truncated).

        Proposals resolve, in priority order, against (1) the journal
        being resumed (positional replay), (2) points already evaluated
        this campaign, (3) the result cache, and only then (4) fresh
        simulation — the single path that costs budget.
        """
        with OBS.span("schedule-batch", cat="schedule", batch=batch_index,
                      rung=batch.rung, fidelity=batch.fidelity):
            return self._schedule_batch(batch, batch_index, replay,
                                        evaluations, seen, paid)

    def _schedule_batch(self, batch, batch_index: int, replay: list,
                        evaluations: list, seen: dict, paid: int):
        planned = []    # (combo, spec, spec_hash, source, payload)
        fresh_specs = []
        batch_hashes = set()         # planned earlier in *this* batch
        truncated = False
        for combo in batch.combos:
            spec = self._spec_for(combo, batch.fidelity)
            spec_hash = spec.stable_hash()
            position = len(evaluations) + len(planned)
            if position < len(replay):
                record = replay[position]
                if record["spec_hash"] != spec_hash \
                        or record["fidelity"] != batch.fidelity:
                    raise ConfigError(
                        f"journal evaluation {position} does not match "
                        f"this campaign's proposal (journal spec "
                        f"{record['spec_hash'][:12]}, proposed "
                        f"{spec_hash[:12]}) — the resumed journal was "
                        f"written by a different campaign")
                cost = 0 if record["cached"] else 1
                if paid + cost > self.budget:
                    truncated = True
                    break
                paid += cost
                batch_hashes.add(spec_hash)
                planned.append((combo, spec, spec_hash, "replay", record))
                continue
            if spec_hash in seen or spec_hash in batch_hashes:
                # Already evaluated this campaign — or earlier in this
                # very batch; either way the result is known (or about
                # to be) and the repeat costs nothing.  The payload is
                # resolved from ``seen`` at record-build time, after
                # the first occurrence has landed there.
                planned.append((combo, spec, spec_hash, "repeat", None))
                continue
            cached = False
            hit = None
            if self.cache is not None and not self.probes:
                hit = self.cache.lookup_hash(
                    scenario_cache_key(spec, spec_hash), MISS)
                cached = hit is not MISS
            batch_hashes.add(spec_hash)
            if not cached:
                if paid + 1 > self.budget:
                    truncated = True
                    break
                paid += 1
                fresh_specs.append(spec)
                planned.append((combo, spec, spec_hash, "fresh", None))
            else:
                planned.append((combo, spec, spec_hash, "cache", hit))
        events = OBS.events
        if events is not None:
            events.emit("batch_scheduled", batch=batch_index,
                        rung=batch.rung, fidelity=batch.fidelity,
                        points=len(planned), fresh=len(fresh_specs),
                        truncated=truncated,
                        budget_remaining=self.budget - paid)
        sim_start = time.perf_counter()
        computed = self._simulate(fresh_specs)
        sim_ms = (time.perf_counter() - sim_start) * 1000.0
        # Per-point simulate walls are not individually observable (the
        # runner reassembles results in proposal order), so the batch's
        # simulate time amortizes evenly across its fresh points.
        fresh_wall = round(sim_ms / len(computed), 3) if computed else 0.0
        fresh_iter = iter(computed)
        for combo, spec, spec_hash, source, payload in planned:
            index = len(evaluations)
            if source == "replay":
                evaluation = Evaluation.from_record(payload)
                evaluation.index = index
                evaluation.batch = batch_index
            elif source == "repeat":
                # The repeat itself simulates nothing and hits no
                # cache, whatever its first occurrence did.
                evaluation = dataclasses.replace(
                    seen[spec_hash], index=index,
                    batch=batch_index, rung=batch.rung,
                    fidelity=batch.fidelity, overrides=dict(combo),
                    cached=True, wall_ms=0.0, cache_hit=False)
            else:
                result = payload if source == "cache" else next(fresh_iter)
                values = {
                    objective.metric: objective.value(
                        result.scalars(), result.telemetry)
                    for objective in self.objectives}
                evaluation = Evaluation(
                    index=index, batch=batch_index, rung=batch.rung,
                    fidelity=batch.fidelity, overrides=dict(combo),
                    spec=spec.to_dict(), spec_hash=spec_hash,
                    cached=(source == "cache"),
                    objectives=values,
                    scalars=_json_scalars(result.scalars()),
                    wall_ms=0.0 if source == "cache" else fresh_wall,
                    cache_hit=(source == "cache"))
            seen.setdefault(evaluation.spec_hash, evaluation)
            evaluations.append(evaluation)
            if events is not None:
                # The single source of point_finished records for every
                # resolution path, so event-log totals reconcile exactly
                # against the journal (replays included — a resumed
                # campaign's log re-reports the replayed records).
                events.emit("point_finished", index=evaluation.index,
                            spec_hash=evaluation.spec_hash,
                            cache_hit=evaluation.cache_hit,
                            paid=not evaluation.cached,
                            wall_ms=evaluation.wall_ms, source=source)
        return paid, truncated

    def _simulate(self, specs: list) -> list:
        """Fresh simulations of the specs the batch found missing,
        sharded and stored — or probed and serial when the objectives
        read telemetry (probe data is per-execution and never cached,
        so those runs stay in-process)."""
        if not specs:
            return []
        if self.probes:
            return [run_scenario(spec, probes=list(self.probes))
                    for spec in specs]
        return simulate(specs, jobs=self.jobs, cache=self.cache)

    # -- journal --------------------------------------------------------------

    def _write(self, journal: dict, evaluations: list, paid: int,
               status: str) -> None:
        # Evaluations only ever append, so each record is built once,
        # when it lands; the writer then encodes it once as well.
        records = journal["evaluations"]
        records.extend(e.to_record() for e in evaluations[len(records):])
        journal["paid"] = paid
        journal["status"] = status
        if self.journal_file is not None \
                and len(evaluations) >= self._resume_count:
            if self._writer is None:
                self._writer = JournalWriter(self.journal_file)
            write_journal(self._writer, journal)
            if OBS.events is not None:
                OBS.events.emit("journal_written",
                                evaluations=len(evaluations),
                                status=status)

    def _finalize(self, journal: dict, evaluations: list, paid: int,
                  status: str) -> dict:
        result = CampaignResult(journal=journal, evaluations=evaluations,
                                paid=paid, status=status,
                                objectives=list(self.objectives))
        best = result.best()
        journal["best"] = best.index if best is not None else None
        journal["frontier"] = [e.index for e in result.frontier()]
        self._write(journal, evaluations, paid, status)
        if OBS.events is not None:
            OBS.events.emit("campaign_finished", status=status,
                            points=len(evaluations), paid=paid)
        if self.cache is not None:
            # A batch served entirely from the cache never reaches
            # simulate's flush; settle the sidecar totals here.
            self.cache.flush_counters()
        return journal


def _json_scalars(scalars: dict) -> dict:
    """Keep only the JSON-scalar entries of a result's scalars dict."""
    return {key: value for key, value in scalars.items()
            if isinstance(value, (int, float, str, bool))
            or value is None}
