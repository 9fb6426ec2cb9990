#!/usr/bin/env bash
# End-to-end smoke of every user-facing surface at tiny scale: the
# scenario and variant registries, telemetry, campaigns and their
# journals, the --batch no-op, platform observability, the on-disk
# control plane, the examples and the paper-scale benchmark's goldens.
# CI runs it as one job; locally run
#
#     bash scripts/ci_smoke.sh
#
# from any directory (an installed `repro` is used if present, else
# `python -m repro` on this checkout's src/).  Artifacts and caches are
# written to the current directory: telemetry-artifacts/,
# explore-artifacts/, obs-artifacts/, status-artifacts/, explore-plain/,
# explore-batch/, sweep-*.txt, colibri_trace.vcd and .ci-*-cache/.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
command -v repro >/dev/null || repro() { python -m repro "$@"; }

step() { printf '\n== %s\n' "$*"; }

# -- scenario registry --------------------------------------------------------

step "registry lists and every registered scenario runs tiny"
# A registry entry that cannot build a machine (or whose tiny spec
# cannot complete and verify) fails here.
repro list
for scenario in $(repro list --names); do
  step "repro run $scenario --smoke"
  repro run "$scenario" --smoke
done

step "spec-driven sweep (cache round trip)"
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --axis bins=1,4 --jobs 2 --cache-dir .ci-scenario-cache
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --axis bins=1,4 --jobs 2 --cache-dir .ci-scenario-cache

step "custom workload registration example"
python "$ROOT/examples/custom_scenario.py"

# -- variant registry ---------------------------------------------------------

step "variant registry with its area cost model"
repro list --variants

step "every registered variant runs the histogram smoke"
# A variant whose adapter cannot build, whose native method the
# workload rejects, or whose tiny run cannot complete fails here.
for variant in $(repro list --variants --names); do
  step "repro run histogram --smoke --variant $variant"
  repro run histogram --smoke --set variant="$variant"
done

step "variant-parameter axes sweep and explore"
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --variant lrscwait:1 --axis variant.queue_slots=1,4,ideal
repro explore histogram --smoke \
  --axis variant=lrsc,lrsc_backoff,ticket,colibri \
  --objective min:cycles --objective min:energy \
  --sampler grid --budget 8

step "area tables include the registry (exit 2 on bad input)"
repro area
if repro run histogram --variant warp; then
  echo "unknown variant should exit 2"; exit 1
fi

step "custom variant registration example"
python "$ROOT/examples/custom_variant.py"

# -- telemetry ----------------------------------------------------------------

step "trace two scenarios at smoke scale and validate the reports"
repro trace histogram --smoke \
  --probe bank_contention --probe core_timeline \
  --out telemetry-artifacts/histogram --format json
repro trace queue --smoke \
  --out telemetry-artifacts/queue --format json
python -m repro.obs \
  telemetry-artifacts/histogram/telemetry.json \
  telemetry-artifacts/queue/telemetry.json

step "CSV and VCD export paths stay alive"
repro trace histogram --smoke --format csv \
  --out telemetry-artifacts/histogram-csv
repro trace histogram --smoke --probe core_timeline \
  --format vcd --out telemetry-artifacts/histogram-vcd

step "contention-heatmap example"
python "$ROOT/examples/trace_contention.py"

step "protocol-log example (Fig. 2 record stream and bank-signal VCD)"
python "$ROOT/examples/protocol_trace.py"
test -s colibri_trace.vcd

# -- design-space exploration -------------------------------------------------

step "tiny random campaign with a validated journal and a shared cache"
repro explore histogram --smoke \
  --axis bins=1,4 --axis variant=lrsc,colibri \
  --objective min:cycles --objective min:energy \
  --sampler random --budget 6 \
  --out explore-artifacts/random --cache-dir .ci-dse-cache
python -m repro.obs explore-artifacts/random/journal.json

step "resume replays the journal without re-simulating"
# Same campaign, larger budget: every journaled point must come back as
# a replay (the cache would catch a regression as a re-simulation, but
# the journal must satisfy it first).
repro explore histogram --smoke \
  --axis bins=1,4 --axis variant=lrsc,colibri \
  --objective min:cycles --objective min:energy \
  --sampler random --budget 8 \
  --resume explore-artifacts/random --cache-dir .ci-dse-cache
python -m repro.obs explore-artifacts/random/journal.json

step "halving campaign and frontier rendering from the journal"
repro explore histogram --smoke \
  --axis bins=1,4 --axis variant=lrsc,colibri \
  --sampler halving --budget 12 \
  --out explore-artifacts/halving
python -m repro.obs explore-artifacts/halving/journal.json
repro frontier explore-artifacts/halving

step "sweep export and cache maintenance stay alive"
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --axis bins=1,4 --out explore-artifacts/sweep --format csv
repro cache stats --cache-dir .ci-dse-cache
repro cache prune --cache-dir .ci-dse-cache --max-entries 2

step "trade-off exploration example"
python "$ROOT/examples/explore_tradeoff.py"

# -- --batch (accepted, no effect) --------------------------------------------

step "--batch sweep output is identical to the plain sweep"
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --axis bins=1,4 --axis method=amo,wait > sweep-plain.txt
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --axis bins=1,4 --axis method=amo,wait --batch > sweep-batch.txt
diff sweep-plain.txt sweep-batch.txt

step "--batch explore journal is identical for the same seed"
# wall_ms is real measured time, the one journal field allowed to
# differ between the two runs; everything else must match byte for byte.
repro explore histogram --smoke \
  --axis bins=1,4 --axis variant=lrsc,colibri \
  --objective min:cycles --objective min:energy \
  --sampler random --budget 6 --out explore-plain
repro explore histogram --smoke \
  --axis bins=1,4 --axis variant=lrsc,colibri \
  --objective min:cycles --objective min:energy \
  --sampler random --budget 6 --out explore-batch --batch
python - <<'EOF'
import json


def load(path):
    with open(path) as stream:
        document = json.load(stream)
    for record in document["evaluations"]:
        assert record.pop("wall_ms") >= 0, record
    return document


plain = load("explore-plain/journal.json")
batch = load("explore-batch/journal.json")
assert batch == plain, "--batch journal differs beyond wall_ms"
print("journals identical (wall_ms stripped)")
EOF

step "batch + parallel jobs output is identical to parallel jobs"
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --axis bins=1,4 --jobs 2 > sweep-jobs.txt
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --axis bins=1,4 --batch --jobs 2 > sweep-batch-jobs.txt
diff sweep-jobs.txt sweep-batch-jobs.txt

# -- platform observability ---------------------------------------------------

step "sweep and campaign record validated Chrome traces"
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --axis bins=1,4 --jobs 2 \
  --obs-trace obs-artifacts/sweep-trace.json
repro explore histogram --smoke \
  --axis bins=1,4 --axis variant=lrsc,colibri \
  --objective min:cycles --budget 4 \
  --out obs-artifacts/campaign --cache-dir .ci-obs-cache \
  --obs-trace obs-artifacts/campaign-trace.json
python -m repro.obs obs-artifacts/sweep-trace.json \
  obs-artifacts/campaign-trace.json

step "summaries render from trace, journal and cache sidecar"
repro obs summary obs-artifacts/sweep-trace.json
repro obs summary obs-artifacts/campaign-trace.json
repro obs summary obs-artifacts/campaign/journal.json
repro cache stats --cache-dir .ci-obs-cache

step "spans and events are one record stream under --jobs 2 --events"
# With the control plane open, the trace is a fold over the campaign's
# own events.jsonl: one point span per point_started record.
repro explore histogram --smoke \
  --axis bins=1,4 --axis variant=lrsc,colibri \
  --objective min:cycles --budget 4 --jobs 2 \
  --events --out obs-artifacts/recorded \
  --obs-trace obs-artifacts/recorded/trace.json
python -m repro.obs obs-artifacts/recorded/trace.json \
  obs-artifacts/recorded/events.jsonl
python - <<'EOF'
import json

with open("obs-artifacts/recorded/trace.json") as stream:
    trace = json.load(stream)
with open("obs-artifacts/recorded/events.jsonl") as stream:
    records = [json.loads(line) for line in stream if line.strip()]
spans = sum(1 for event in trace["traceEvents"]
            if event["ph"] == "X" and event["cat"] == "point")
started = sum(1 for record in records
              if record["event"] == "point_started")
assert spans == started > 0, (spans, started)
print("point spans match point_started records:", spans)
EOF
repro status obs-artifacts/recorded --json | python -c "
import json, sys
status = json.load(sys.stdin)
assert status['state'] == 'finished (complete)', status['state']
print('status:', status['state'])
"

step "profile dumps loadable pstats (and refuses --jobs 2)"
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --axis bins=1,4 --profile obs-artifacts/sweep.pstats
python -c "import pstats; pstats.Stats('obs-artifacts/sweep.pstats')"
if repro sweep histogram --cores 8 --set updates_per_core=2 \
    --axis bins=1,4 --profile nope.pstats --jobs 2; then
  echo "--profile --jobs 2 should exit 2"; exit 1
fi

step "observability walkthrough example"
python "$ROOT/examples/observe_campaign.py"

# -- control plane ------------------------------------------------------------

step "status reads a live campaign from disk mid-run"
# The campaign runs in the background with a worker pool; `repro
# status` must answer from events.jsonl + the journal alone while it is
# still going, then again after it finishes.  Liveness rides in the
# event log: every writer beats there, and no heartbeats/ directory
# appears.
repro explore histogram \
  --axis bins=1,2,4,8,16 --axis variant=lrsc,colibri \
  --set updates_per_core=128 --seed 0 --budget 10 --jobs 2 \
  --events --out status-artifacts/campaign &
CAMPAIGN_PID=$!
while [ ! -f status-artifacts/campaign/journal.json ]; do
  sleep 0.1
  kill -0 "$CAMPAIGN_PID" || { echo "campaign died"; exit 1; }
done
repro status status-artifacts/campaign
wait "$CAMPAIGN_PID"
if [ -e status-artifacts/campaign/heartbeats ]; then
  echo "a heartbeats/ directory was created"; exit 1
fi
python -c "
import sys
from repro.obs import read_events
records, _ = read_events('status-artifacts/campaign/events.jsonl')
writers = {record['pid'] for record in records}
beating = {record['pid'] for record in records
           if record['event'] == 'heartbeat'}
assert writers == beating, sorted(writers - beating)
print('every writer beats:', len(writers), 'writers')
"

step "finished campaign reports 100% and reconciled totals"
repro status status-artifacts/campaign
repro status status-artifacts/campaign --follow --timeout 5
repro status status-artifacts/campaign --json | python -c "
import json, sys
status = json.load(sys.stdin)
assert status['state'] == 'finished (complete)', status['state']
assert status['fraction'] == 1.0, status['fraction']
assert status['journal']['evaluations'] == status['points']
print('status reconciles:', status['points'], 'points')
"

step "event log validates against the schema"
python -m repro.obs status-artifacts/campaign/events.jsonl

step "cache stats emit machine-readable JSON"
repro sweep histogram --cores 8 --set updates_per_core=2 \
  --axis bins=1,4 --cache-dir .ci-status-cache
repro cache stats --json --cache-dir .ci-status-cache \
  | python -c "import json,sys; json.load(sys.stdin)"

step "a cold then a warm campaign look each point up once"
# Lifetime misses and hits each equal the budget; a second lookup per
# fresh point would double the misses.
budget=4
for run in cold warm; do
  repro explore histogram --smoke --axis bins=1,2,4,8 \
    --objective min:cycles --sampler grid --budget "$budget" \
    --cache-dir .ci-lookup-cache
done
repro cache stats --json --cache-dir .ci-lookup-cache | python -c "
import json, sys
lifetime = json.load(sys.stdin)['lifetime']
assert lifetime['misses'] == $budget, lifetime
assert lifetime['hits'] == $budget, lifetime
print('one lookup per point:', lifetime)
"

step "live-monitoring walkthrough example"
python "$ROOT/examples/monitor_campaign.py"

# -- quickstart ---------------------------------------------------------------

step "quickstart runs and shows the paper's headline"
python "$ROOT/examples/quickstart.py"

# -- paper-scale goldens ------------------------------------------------------

# Correctness only, no timing bound: each perfbench workload must
# reproduce its recorded event-stream goldens (perfbench/goldens.json)
# with no failed point.  Its last output line is one JSON result.
# paper256 also runs at a second seed: bank controllers are built on
# first touch, mid-run, and that must not perturb the event stream at
# any seed.
for run in paper256:0 paper256:7 campaign_cold:0 campaign_warm:0; do
  workload="${run%:*}" seed="${run#*:}"
  step "perfbench $workload (seed $seed) reproduces its goldens"
  result="$(python3 "$ROOT/perfbench/run.py" --workload "$workload" \
    --seed "$seed" --seconds 1)"
  printf '%s\n' "$result"
  printf '%s\n' "$result" | tail -n 1 | python -c "
import json, sys
result = json.load(sys.stdin)
assert result['correct'] is True, result
assert result['failed'] == 0, result
print('goldens reproduced:', result['attempted'], 'points')
"
done

step "smoke passed"
