"""Hierarchical MemPool topology: tiles, groups, and distance model.

The interconnect is a three-level hierarchy.  A request from a core to
a bank is classified as *local* (same tile), *group* (same group,
different tile) or *global* (different group); each class has a fixed
one-way latency from :class:`~repro.arch.config.LatencyConfig` and a hop
count used by the energy model (longer routes toggle more wires).
"""

from __future__ import annotations

from .config import SystemConfig

#: Distance class names, ordered near to far.
DISTANCE_CLASSES = ("local", "group", "global")


class Topology:
    """Distance and placement queries over a :class:`SystemConfig`."""

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        self._cores_per_tile = config.cores_per_tile
        self._banks_per_tile = config.banks_per_tile
        self._tiles_per_group = config.tiles_per_group
        self._num_tiles = config.num_tiles
        #: ``(class, latency, hops)`` per tile pair, flat at index
        #: ``core_tile * num_tiles + bank_tile``.  Distance depends only
        #: on the tile pair, so this stays small (#tiles²); entries are
        #: filled on first use, so building a machine computes none.
        self.routes: list = [None] * (self._num_tiles * self._num_tiles)

    # -- placement ---------------------------------------------------------

    def tile_of_core(self, core_id: int) -> int:
        """Tile index holding a core."""
        return core_id // self._cores_per_tile

    def tile_of_bank(self, bank_id: int) -> int:
        """Tile index holding a bank."""
        return bank_id // self._banks_per_tile

    def group_of_tile(self, tile_id: int) -> int:
        """Group index holding a tile."""
        return tile_id // self._tiles_per_group

    def cores_in_tile(self, tile_id: int) -> range:
        """Core ids located in the given tile."""
        start = tile_id * self._cores_per_tile
        return range(start, start + self._cores_per_tile)

    def banks_in_tile(self, tile_id: int) -> range:
        """Bank ids located in the given tile."""
        start = tile_id * self._banks_per_tile
        return range(start, start + self._banks_per_tile)

    def local_banks_of_core(self, core_id: int) -> range:
        """Bank ids in the same tile as the given core."""
        return self.banks_in_tile(self.tile_of_core(core_id))

    # -- distances ----------------------------------------------------------

    def route(self, core_id: int, bank_id: int) -> tuple:
        """``(distance_class, one-way latency, hops)`` for a pair.

        All three values come from one memoized tile-pair lookup; the
        network's request and response sends read :attr:`routes`
        directly and call this only to fill a missing entry.  A network
        model with different geometry overrides :meth:`_compute_route`.
        Both ids must be in range (the address map guarantees it for
        banks); the flat table does not check.
        """
        core_tile = core_id // self._cores_per_tile
        bank_tile = bank_id // self._banks_per_tile
        index = core_tile * self._num_tiles + bank_tile
        cached = self.routes[index]
        if cached is None:
            cached = self.routes[index] = self._compute_route(core_tile,
                                                              bank_tile)
        return cached

    def _compute_route(self, core_tile: int, bank_tile: int) -> tuple:
        """Uncached ``(class, latency, hops)`` for a tile pair.

        In a hierarchical crossbar like MemPool's, each cycle of
        latency corresponds to one switch stage, so hops and latency
        coincide; a model where they differ overrides this method and
        every consumer (stats, energy) follows.
        """
        lat = self.config.latency
        if core_tile == bank_tile:
            return ("local", lat.local_tile, lat.local_tile)
        if (core_tile // self._tiles_per_group
                == bank_tile // self._tiles_per_group):
            return ("group", lat.same_group, lat.same_group)
        return ("global", lat.remote_group, lat.remote_group)

    def distance_class(self, core_id: int, bank_id: int) -> str:
        """``"local"``, ``"group"`` or ``"global"`` for a core-bank pair."""
        return self.route(core_id, bank_id)[0]

    def latency(self, core_id: int, bank_id: int) -> int:
        """One-way message latency between a core and a bank, in cycles."""
        return self.route(core_id, bank_id)[1]

    def hop_count(self, core_id: int, bank_id: int) -> int:
        """Router hops for the energy model (== one-way latency here).

        Hops live in the same memoized route tuple as latency; a model
        where they differ overrides :meth:`_compute_route` and every
        consumer (message stats, Table II energy) follows.
        """
        return self.route(core_id, bank_id)[2]
