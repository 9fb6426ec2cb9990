"""The benchmark's workloads: fixed units, each timed as a whole.

A *unit* is the smallest piece of work the benchmark times.  Every run
repeats its workload's units round-robin (see ``run.measure``) and
reports each unit's median calibrated time, so one slow phase of a
shared host inflates one sample of a unit rather than the reported
figure.

* ``paper256`` — single 256-core points built by ``repro reproduce
  --full``'s own spec factories, one unit per point.
* ``campaign_cold`` — one unit: a grid ``Campaign(batch=True)`` of
  16-core histogram points against an empty ``ResultCache``.
* ``campaign_warm`` — one unit: the same campaign against the filled
  cache, through a new ``ResultCache`` instance (every lookup reads
  disk; nothing simulates).

Every unit returns a *signature*: the deterministic outputs the
correctness gate compares against the goldens and across repeats.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

from repro.arch.config import SystemConfig
from repro.dse import Campaign, SearchSpace, parse_objectives
from repro.eval import fig3, fig4, fig6
from repro.eval.runner import ResultCache
from repro.memory.variants import VariantSpec
from repro.scenarios import build_machine, default_spec, get_workload
from repro.scenarios import run as scenario_run
from repro.scenarios.registry import Workload
from repro.scenarios.workloads import interference_spec

PAPER_CORES = 256

#: Campaign grid (axis order = grid order; seeds are added per run).
CAMPAIGN_CORES = 16
CAMPAIGN_VARIANTS = ["lrsc", "lrscwait:1", "lrscwait:ideal", "colibri",
                     "amo"]
CAMPAIGN_BINS = [1, 2, 4, 8, 16, 64]
CAMPAIGN_UPDATES = [2, 4, 8]
CAMPAIGN_SEEDS_PER_RUN = 4
CAMPAIGN_OBJECTIVES = ["min:cycles", "max:throughput"]


def _fingerprint(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def is_composite(workload) -> bool:
    """True for workloads that measure across their own machines."""
    return type(workload).run is not Workload.run


# -- paper256 -------------------------------------------------------------


def paper256_specs(seed: int) -> list:
    """``[(unit name, ScenarioSpec)]`` of the paper-scale units."""
    units = []
    for label in ("LRSC", "Colibri", "Atomic Add", "LRSCwait_ideal"):
        for bins in (1, 64):
            units.append((f"fig3/{label}/{bins}",
                          fig3.point_spec(label, bins,
                                          num_cores=PAPER_CORES,
                                          seed=seed)))
    units.append(("fig3/LRSCwait_1/64",
                  fig3.point_spec("LRSCwait_1", 64, num_cores=PAPER_CORES,
                                  seed=seed)))
    for label in ("Colibri lock", "Mwait lock", "LRSC lock"):
        units.append((f"fig4/{label}/64",
                      fig4.point_spec(label, 64, num_cores=PAPER_CORES,
                                      seed=seed)))
    for label, active in (("Colibri", 256), ("LRSC", 64),
                          ("Atomic Add lock", 64)):
        units.append((f"fig6/{label}/{active}",
                      fig6.queue_spec(label, PAPER_CORES, active, 16,
                                      seed=seed)))
    config = SystemConfig.scaled(PAPER_CORES)
    for label, variant, method, workers in (
            ("Colibri 252:4", VariantSpec.colibri(), "wait", 4),
            ("LRSC 192:64", VariantSpec.lrsc(), "lrsc", 64)):
        units.append((f"fig5/{label}/1",
                      interference_spec(config, variant, method, workers,
                                        1, matmul_dim=12, seed=seed)))
    return units


class Paper256:
    """Paper-scale points through ``build_machine`` + ``execute``."""

    name = "paper256"
    golden_key = "paper256"
    points_per_unit = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.specs = dict(paper256_specs(seed))
        self.units = list(self.specs)

    def prepare_setup(self, unit: str) -> None:
        pass

    def setup_once(self, unit: str) -> None:
        """The timed set-up: build the unit's machine and load its
        kernels (composites, which build their own machines: one
        build)."""
        spec = self.specs[unit]
        workload = get_workload(spec.workload)
        machine = build_machine(spec)
        if not is_composite(workload):
            workload.load(machine, spec)

    def start(self, unit: str):
        """The unit's timed call: build, load, run and collect."""
        spec = self.specs[unit]
        workload = get_workload(spec.workload)
        if is_composite(workload):
            return lambda: workload.run(spec)
        # Attribute lookup at call time, so a traced pass sees the
        # wrapped ``execute``.
        return lambda: scenario_run.execute(workload, spec)

    def check(self, unit: str, result):
        """``(signature, simulated messages)`` of a finished unit."""
        spec = self.specs[unit]
        stats = result.stats
        if spec.workload == "queue":
            params = spec.params_dict()
            done = sum(core.ops_completed for core in stats.cores)
            expected = params["active_cores"] * params["ops_per_core"]
            if done != expected:
                raise AssertionError(
                    f"queue completed {done} ops, expected {expected}")
        signature = [result.cycles, result.messages,
                     stats.total_sc_failures, result.active_cycles,
                     result.sleep_cycles]
        if spec.workload == "interference":
            signature.append(result.metrics["baseline_cycles"])
        return signature, result.messages

    def close(self) -> None:
        pass


# -- campaigns ------------------------------------------------------------


def campaign_axes(seed: int) -> dict:
    return {
        "variant": list(CAMPAIGN_VARIANTS),
        "bins": list(CAMPAIGN_BINS),
        "updates_per_core": list(CAMPAIGN_UPDATES),
        "seed": [seed * CAMPAIGN_SEEDS_PER_RUN + k
                 for k in range(CAMPAIGN_SEEDS_PER_RUN)],
    }


def normalized_journal(journal: dict, warm_view: bool = False) -> dict:
    """The journal minus its one nondeterministic field (``wall_ms``);
    ``warm_view`` also drops what legitimately differs between a cold
    run and a cache-served re-run (cache flags, paid budget)."""
    document = dict(journal)
    dropped = {"wall_ms"}
    if warm_view:
        dropped |= {"cached", "cache_hit"}
        document.pop("paid", None)
    document["evaluations"] = [
        {key: value for key, value in record.items() if key not in dropped}
        for record in journal["evaluations"]]
    return document


class CampaignBench:
    """One grid campaign of 16-core histogram points per unit."""

    name = "campaign_cold"
    golden_key = "campaign"
    units = ["campaign"]

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.base = default_spec("histogram", num_cores=CAMPAIGN_CORES)
        self.space = SearchSpace.from_axes(campaign_axes(seed))
        self.budget = self.space.grid_size()
        self.points_per_unit = self.budget
        self.cache_dir = os.path.join(workdir, "cache")
        self.journal_file = os.path.join(workdir, "journal.json")
        #: The cache of the unit in flight (its counters are checked).
        self.cache = None

    def build(self):
        """Construct the cache and the campaign (the timed set-up)."""
        cache = ResultCache(self.cache_dir)
        campaign = Campaign(
            base=self.base, space=self.space, sampler="grid",
            objectives=parse_objectives(CAMPAIGN_OBJECTIVES),
            budget=self.budget, seed=self.seed, cache=cache,
            journal_file=self.journal_file, batch=True)
        return cache, campaign

    def prepare(self) -> None:
        """Reset the on-disk state a unit starts from (untimed)."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def prepare_setup(self, unit: str) -> None:
        self.prepare()

    def setup_once(self, unit: str) -> None:
        self.build()

    def start(self, unit: str):
        """Prepare and construct (untimed); the timed call is the run."""
        self.prepare()
        self.cache, campaign = self.build()
        return campaign.run

    def finished_journal(self, result) -> tuple:
        """``(journal on disk, simulated messages)`` of a complete run."""
        if result.status != "complete" or len(result.evaluations) \
                != self.budget:
            raise AssertionError(
                f"campaign ended {result.status!r} after "
                f"{len(result.evaluations)}/{self.budget} points")
        with open(self.journal_file) as stream:
            on_disk = json.load(stream)
        messages = sum(record["scalars"]["messages"]
                       for record in on_disk["evaluations"])
        return on_disk, messages

    def check(self, unit: str, result):
        on_disk, messages = self.finished_journal(result)
        if result.paid != self.budget or self.cache.stores != self.budget:
            raise AssertionError(
                f"cold campaign paid {result.paid} and stored "
                f"{self.cache.stores} of {self.budget} points")
        return [_fingerprint(normalized_journal(on_disk))], messages

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def fill_cache(seed: int, workdir: str) -> None:
    """Run the cold campaign once: the warm workload's filled cache."""
    bench = CampaignBench(seed, workdir)
    bench.prepare()
    _cache, campaign = bench.build()
    campaign.run()


class CampaignWarm(CampaignBench):
    """The cold campaign re-run against its filled cache."""

    name = "campaign_warm"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        # Fill the cache once, untimed, in a child process, so the cold
        # run's memory stays out of this process's peak RSS.  Its
        # journal is the reference every warm re-run must reproduce.
        # ``subprocess.run`` waits for the child (and kills it on a
        # timeout); a multiprocessing child would leave its resource
        # tracker running after this process exits.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), str(seed), workdir],
            env={**os.environ, "PYTHONPATH": src}, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(
                f"filling the cache failed: exit code {done.returncode}")
        with open(self.journal_file) as stream:
            cold = json.load(stream)
        if len(cold["evaluations"]) != self.budget:
            raise RuntimeError(
                f"filling the cache evaluated {len(cold['evaluations'])} "
                f"of {self.budget} points")
        self.cold_view = _fingerprint(normalized_journal(cold,
                                                         warm_view=True))
        self.cold_signature = _fingerprint(normalized_journal(cold))

    def prepare(self) -> None:
        """The warm unit starts from the filled cache; only the journal
        of the previous unit goes."""
        try:
            os.unlink(self.journal_file)
        except OSError:
            pass

    def check(self, unit: str, result):
        on_disk, messages = self.finished_journal(result)
        cache = self.cache
        if result.paid != 0 or cache.hits != self.budget \
                or cache.misses != 0 or cache.stores != 0 \
                or not all(e.cache_hit for e in result.evaluations):
            raise AssertionError(
                f"warm campaign was not served from the cache: paid "
                f"{result.paid}, hits {cache.hits}, misses {cache.misses}, "
                f"stores {cache.stores} of {self.budget} points")
        if _fingerprint(normalized_journal(on_disk, warm_view=True)) \
                != self.cold_view:
            raise AssertionError("warm journal differs from the cold one")
        # The cold journal is the golden-checked output; the warm one
        # must match it, so both share one signature.
        return [self.cold_signature], messages


WORKLOADS = {cls.name: cls for cls in (Paper256, CampaignBench,
                                       CampaignWarm)}


if __name__ == "__main__":
    fill_cache(int(sys.argv[1]), sys.argv[2])
