#!/usr/bin/env python3
"""Watch the Colibri protocol work, message by message.

Reproduces the paper's Fig. 2 walkthrough on a live simulation: three
cores contend for one address; the trace shows core B and C enqueuing
behind A (SuccessorUpdate), A's SCwait dispatching the WakeUpRequest,
and the controller releasing the withheld responses in FIFO order.

Also demonstrates the analysis/report tooling:

* a filtered protocol trace printed to the terminal,
* a post-run summary (time split, hot banks, protocol share),
* a VCD waveform (``colibri_trace.vcd``) viewable in GTKWave.

Run:  python examples/protocol_trace.py
"""

from repro import Machine, SystemConfig, Tracer, VariantSpec, write_vcd
from repro.eval.analysis import summarize

CORES = 4
UPDATES = 2


def kernel(api):
    """Staggered LRwait/SCwait increments on one shared word."""
    for _ in range(UPDATES):
        yield from api.compute(1 + api.core_id * 7)  # stagger arrivals
        resp = yield from api.lrwait(COUNTER)
        yield from api.compute(3)  # hold the head briefly
        yield from api.scwait(COUNTER, resp.value + 1)
        yield from api.retire()


def main():
    global COUNTER
    tracer = Tracer(enabled=True)
    machine = Machine(SystemConfig.scaled(CORES), VariantSpec.colibri(),
                      seed=0, tracer=tracer)
    COUNTER = machine.allocator.alloc_interleaved(1)
    machine.load_range(range(3), kernel)  # three contenders, like Fig. 2
    stats = machine.run()
    assert machine.peek(COUNTER) == 3 * UPDATES

    print("Protocol trace (bank-side view of the Fig. 2 sequence):\n")
    interesting = ("lrwait", "scwait", "wakeup_request",
                   "colibri_alloc", "colibri_free")
    shown = 0
    for record in tracer.records:
        if record.kind in interesting:
            print(f"  {record}")
            shown += 1
            if shown >= 24:
                print("  ...")
                break

    print()
    print(summarize(stats, title="three-core Colibri contention"))

    vcd_path = "colibri_trace.vcd"
    changes = write_vcd(tracer, machine.config, vcd_path)
    print(f"\nWrote {changes} waveform changes to {vcd_path} "
          f"(open with GTKWave).")


if __name__ == "__main__":
    main()
