"""The top-level simulated system.

:class:`Machine` instantiates and wires a complete MemPool-like
platform: the event kernel, the hierarchical network, one
:class:`~repro.memory.controller.BankController` per SPM bank (with the
configured atomic variant), and one :class:`~repro.cores.core.Core` (+
Qnode) per hart.  It is the main entry point of the library::

    from repro import Machine, SystemConfig, VariantSpec

    machine = Machine(SystemConfig.scaled(16), VariantSpec.colibri())
    counter = machine.allocator.alloc_interleaved(1)

    def kernel(api):
        for _ in range(10):
            resp = yield from api.lrwait(counter)
            yield from api.compute(1)
            yield from api.scwait(counter, resp.value + 1)
            yield from api.retire()

    machine.load_all(kernel)
    stats = machine.run()
    assert machine.peek(counter) == 10 * machine.config.num_cores
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from .arch.address_map import AddressMap
from .arch.allocator import Allocator
from .arch.config import SystemConfig
from .arch.topology import Topology
from .cores.api import CoreApi
from .cores.core import Core
from .engine.simulator import Simulator
from .engine.stats import BankStats, CoreStats, NetworkStats, SimStats
from .engine.trace import Tracer
from .interconnect.network import Network
from .memory.controller import BankController
from .memory.variants import VariantSpec
from .telemetry.hub import Telemetry
from .telemetry.probes import create_probe

#: Type of a kernel factory: gets the core's API, returns the coroutine.
KernelFactory = Callable[[CoreApi], Generator]


class Machine:
    """A fully wired simulated manycore system."""

    def __init__(self, config: SystemConfig, variant: VariantSpec,
                 seed: int = 0, strict: bool = True,
                 max_cycles: int = 100_000_000,
                 tracer: Optional[Tracer] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        config.validate()
        #: The constructor arguments, for :meth:`reset`.
        self._build_args = (config, variant, seed, strict, max_cycles,
                            tracer, telemetry)
        self.config = config
        self.variant = variant
        self.seed = seed
        self.strict = strict
        self.sim = Simulator(max_cycles=max_cycles, tracer=tracer,
                             telemetry=telemetry)
        #: The telemetry hook hub every component of this machine
        #: reports into; probes subscribe here (see ``attach_probes``).
        self.telemetry = self.sim.telemetry
        #: Probes attached via :meth:`attach_probes`, install order.
        self.probes: list = []
        self.topology = Topology(config)
        self.address_map = AddressMap(config)
        self.allocator = Allocator(config)
        self.stats = SimStats(
            cores=[CoreStats(core_id=i) for i in range(config.num_cores)],
            banks=[BankStats(bank_id=i) for i in range(config.num_banks)],
            network=NetworkStats(),
            variant=variant)
        self.network = Network(self.sim, self.topology, self.stats.network)
        self.banks = [
            BankController(bank_id, self.sim, self.network, self.address_map,
                           variant, config.num_cores,
                           self.stats.banks[bank_id], strict=strict)
            for bank_id in range(config.num_banks)
        ]
        self.cores = [
            Core(core_id, self.sim, self.network, self.address_map,
                 self.stats.cores[core_id])
            for core_id in range(config.num_cores)
        ]
        self.apis = [
            CoreApi(core_id, config.num_cores, seed=seed)
            for core_id in range(config.num_cores)
        ]
        self._loaded: list = []
        self.sim.add_blocked_reporter(self._blocked_cores)

    def reset(self) -> None:
        """Rebuild this machine in place from its constructor arguments.

        Afterwards it is a fresh ``Machine(config, variant, seed=seed,
        ...)``: clock at zero, memory zeroed, adapters empty, allocator
        rewound, per-core RNG streams rewound, all counters zero.

        Raises :class:`~repro.engine.errors.SimulationError` when the
        machine has attached probes (probe state is per-run; probed runs
        must use a fresh machine).
        """
        from .engine.errors import SimulationError
        if self.probes:
            raise SimulationError(
                "cannot reset a machine with attached probes")
        self.__init__(*self._build_args)

    # -- kernel loading -----------------------------------------------------

    def load(self, core_id: int, factory: KernelFactory) -> None:
        """Attach ``factory(api)`` as the kernel of one core."""
        core = self.cores[core_id]
        core.load(factory(self.apis[core_id]))
        self._loaded.append(core)

    def load_all(self, factory: KernelFactory) -> None:
        """Attach the same kernel factory to every core."""
        for core_id in range(self.config.num_cores):
            self.load(core_id, factory)

    def load_range(self, core_ids, factory: KernelFactory) -> None:
        """Attach a kernel factory to a subset of cores."""
        for core_id in core_ids:
            self.load(core_id, factory)

    # -- telemetry probes ---------------------------------------------------

    def attach_probes(self, probes) -> list:
        """Install telemetry probes; call before the simulation starts.

        ``probes`` mixes registered probe names (``"bank_contention"``)
        and ready-made :class:`~repro.telemetry.probes.Probe`
        instances.  Returns the installed instances in order; they are
        also kept on :attr:`probes` and finalized automatically when a
        run ends (``TelemetryReport.collect(machine)`` then assembles
        the report).
        """
        installed = []
        for probe in probes or ():
            if isinstance(probe, str):
                probe = create_probe(probe)
            probe.install(self)
            self.probes.append(probe)
            installed.append(probe)
        return installed

    def telemetry_report(self, spec=None):
        """The :class:`~repro.telemetry.report.TelemetryReport` of the
        attached probes (run the machine first)."""
        from .telemetry.report import TelemetryReport
        return TelemetryReport.collect(self, spec=spec)

    def _finalize_probes(self) -> None:
        for probe in self.probes:
            probe.finalize(self, self.stats)

    # -- running ----------------------------------------------------------------

    def run(self, until: Optional[Callable[[], bool]] = None) -> SimStats:
        """Start all loaded kernels and run to completion (or ``until``).

        Raises :class:`~repro.engine.errors.DeadlockError` if progress
        stops while cores are still blocked — the observable form of a
        violated LRSCwait progress constraint.
        """
        for core in self._loaded:
            core.start()
        self.sim.run(until=until)
        self.stats.cycles = self._makespan()
        self._finalize_probes()
        return self.stats

    def run_for(self, cycles: int) -> SimStats:
        """Start all loaded kernels and run for a fixed horizon.

        For open-loop measurements of workloads that never terminate
        (endless kernels) or would take pathologically long (e.g. a
        retry storm with a too-small backoff — the regime the backoff
        ablation quantifies).  Kernels are frozen mid-flight at the
        horizon; counters reflect work retired within it.
        """
        for core in self._loaded:
            core.start()
        self.sim.run_for(cycles)
        self.stats.cycles = self.sim.now
        self._finalize_probes()
        return self.stats

    def run_until_finished(self, core_ids) -> SimStats:
        """Run until the given cores finish (others may run forever).

        Used by the interference experiment (Fig. 5), where poller
        kernels loop endlessly and only the workers' completion matters.
        """
        watched = [self.cores[i] for i in core_ids]

        def done() -> bool:
            return all(core.finished for core in watched)

        return self.run(until=done)

    def _makespan(self) -> int:
        finish_cycles = [core.finish_cycle for core in self._loaded
                         if core.finish_cycle is not None]
        if not finish_cycles:
            return self.sim.now
        if len(finish_cycles) < len(self._loaded):
            # Some kernels run forever (pollers): use the stop time.
            return self.sim.now
        return max(finish_cycles)

    def _blocked_cores(self) -> list:
        blocked = []
        for core in self._loaded:
            description = core.blocked_description
            if description:
                blocked.append(description)
        return blocked

    # -- memory access for setup/verification ------------------------------------

    def peek(self, addr: int) -> int:
        """Read simulated memory without traffic (test/verify)."""
        bank = self.address_map.bank_of(addr)
        return self.banks[bank].peek(addr)

    def poke(self, addr: int, value: int) -> None:
        """Write simulated memory without traffic (setup)."""
        bank = self.address_map.bank_of(addr)
        self.banks[bank].poke(addr, value)

    def peek_array(self, base: int, count: int) -> list:
        """Read ``count`` consecutive words starting at ``base``."""
        word = self.config.word_bytes
        return [self.peek(base + i * word) for i in range(count)]

    def poke_array(self, base: int, values) -> None:
        """Write consecutive words starting at ``base``."""
        word = self.config.word_bytes
        for i, value in enumerate(values):
            self.poke(base + i * word, value)
