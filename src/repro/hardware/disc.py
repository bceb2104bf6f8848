"""Disc drives, dual-ported I/O controllers, and mirrored volumes.

The paper's I/O fabric (Figure 1): each I/O controller is redundantly
powered and connected to two I/O channels (i.e. two CPUs); disc drives
may be connected to two controllers; and drives may be duplicated
("mirrored") so the data base stays accessible despite disc failures.

A :class:`MirroredVolume` bundles one or two drives with the controllers
that reach them, and answers the structural questions the upper layers
ask: *is the volume accessible from CPU n*, and *what are the physical
contents*.  Drive contents survive CPU failures (they are on disc) and
are lost only when the drive itself fails.

Each drive has its own arm, and the volume keeps the arms' schedule:
a read occupies the serviceable drive whose arm is free first, a write
occupies every serviceable drive.  So a mirrored pair serves two reads
at once, and one drive left serves at single-arm speed.  The schedule
belongs to the hardware, not to the process that books it, so it
outlives a DISCPROCESS takeover.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from ..sim import Environment
from .component import Component
from .processor import Cpu, IoChannel

__all__ = ["DiscDrive", "IoController", "MirroredVolume", "VolumeUnavailable"]


class VolumeUnavailable(Exception):
    """No functioning path (or no surviving drive) for a volume."""


class DiscDrive(Component):
    """One physical disc spindle holding a block map.

    ``blocks`` maps block identifiers to immutable block images.  When a
    failed drive is restored its contents are *stale*; a revive (copy
    from the mirror) is required before it may serve reads again.
    """

    kind = "drive"

    def __init__(self, env: Environment, name: str):
        super().__init__(env, name)
        self.blocks: Dict[Any, Any] = {}
        self.stale = False
        #: simulated time the arm ends the last access booked on it.
        self.free_at = 0.0

    def on_fail(self, reason: Any) -> None:
        # Media loss: a failed drive comes back empty and stale.
        self.blocks.clear()
        self.stale = True

    @property
    def serviceable(self) -> bool:
        return self.up and not self.stale


class IoController(Component):
    """A dual-ported disc controller connected to two I/O channels."""

    kind = "controller"

    def __init__(
        self,
        env: Environment,
        name: str,
        channels: Iterable[IoChannel],
    ):
        super().__init__(env, name)
        self.channels: List[IoChannel] = list(channels)
        if not 1 <= len(self.channels) <= 2:
            raise ValueError("a controller connects to one or two channels")

    def reaches_cpu(self, cpu: Cpu) -> bool:
        """True if this controller can move data to/from ``cpu`` now."""
        if not self.up:
            return False
        return any(
            channel.up and channel.cpu is cpu and cpu.up
            for channel in self.channels
        )


class MirroredVolume:
    """A logical disc volume: one or two drives behind shared controllers.

    All writes go to every serviceable drive.  A read's contents come
    from the first serviceable drive (the mirrors hold the same blocks),
    and its arm time from whichever serviceable drive is free first
    (:meth:`book`).  The volume is *accessible* from a CPU when at
    least one up controller reaches that CPU and at least one drive is
    serviceable.
    """

    def __init__(
        self,
        name: str,
        drives: Iterable[DiscDrive],
        controllers: Iterable[IoController],
    ):
        self.name = name
        self.drives: List[DiscDrive] = list(drives)
        self.controllers: List[IoController] = list(controllers)
        if not 1 <= len(self.drives) <= 2:
            raise ValueError("a volume has one or two drives")
        if not self.controllers:
            raise ValueError("a volume needs at least one controller")
        #: arm time booked, over the serviceable arms at each booking
        #: (ms); the XRAY sampler derives utilization from deltas of this.
        self.busy_ms = 0.0

    @property
    def mirrored(self) -> bool:
        return len(self.drives) == 2

    def serviceable_drives(self) -> List[DiscDrive]:
        return [drive for drive in self.drives if drive.serviceable]

    @property
    def any_drive_up(self) -> bool:
        return bool(self.serviceable_drives())

    def accessible_from(self, cpu: Cpu) -> bool:
        if not self.any_drive_up:
            return False
        return any(controller.reaches_cpu(cpu) for controller in self.controllers)

    def paths_from(self, cpu: Cpu) -> int:
        """Number of independent controller paths from ``cpu`` (Figure 1)."""
        return sum(1 for controller in self.controllers if controller.reaches_cpu(cpu))

    # ------------------------------------------------------------------
    # Physical block I/O.  These are *instantaneous state changes*; their
    # time is booked on the arms separately (:meth:`book`).
    # ------------------------------------------------------------------
    def write_block(self, block_id: Any, image: Any) -> None:
        drives = self.serviceable_drives()
        if not drives:
            raise VolumeUnavailable(f"no serviceable drive on {self.name}")
        for drive in drives:
            drive.blocks[block_id] = image

    def read_block(self, block_id: Any, default: Any = None) -> Any:
        drives = self.serviceable_drives()
        if not drives:
            raise VolumeUnavailable(f"no serviceable drive on {self.name}")
        return drives[0].blocks.get(block_id, default)

    def delete_block(self, block_id: Any) -> None:
        drives = self.serviceable_drives()
        if not drives:
            raise VolumeUnavailable(f"no serviceable drive on {self.name}")
        for drive in drives:
            drive.blocks.pop(block_id, None)

    def block_ids(self) -> List[Any]:
        drives = self.serviceable_drives()
        if not drives:
            raise VolumeUnavailable(f"no serviceable drive on {self.name}")
        return list(drives[0].blocks.keys())

    # ------------------------------------------------------------------
    # Arm time
    # ------------------------------------------------------------------
    def book(self, ready: float, reads: int = 0, read_ms: float = 0.0,
             writes: int = 0, write_ms: float = 0.0) -> float:
        """Book one operation's physical accesses; return when the last ends.

        The accesses run in order from ``ready``, each once the one
        before it has ended: the reads, each on the serviceable drive
        whose arm is free first (ties go to the first drive), then the
        writes, each on every serviceable drive as soon as that drive's
        arm is free.  A volume with no serviceable drive books nothing.
        """
        drives = self.serviceable_drives()
        if not drives:
            return ready
        end = ready
        for _ in range(reads):
            drive = drives[0]
            for other in drives[1:]:
                if other.free_at < drive.free_at:
                    drive = other
            end = drive.free_at = max(end, drive.free_at) + read_ms
        for _ in range(writes):
            start = end
            for drive in drives:
                drive.free_at = max(start, drive.free_at) + write_ms
                end = max(end, drive.free_at)
        self.busy_ms += reads * read_ms / len(drives) + writes * write_ms
        return end

    def revive(self) -> int:
        """Copy contents onto restored-but-stale drives from a good mirror.

        Returns the number of blocks copied.  Raises if there is no
        serviceable source drive.
        """
        sources = self.serviceable_drives()
        copied = 0
        for drive in self.drives:
            if drive.up and drive.stale:
                if not sources:
                    raise VolumeUnavailable(
                        f"cannot revive {drive.name}: no good mirror on {self.name}"
                    )
                drive.blocks = dict(sources[0].blocks)
                drive.stale = False
                copied += len(drive.blocks)
        return copied

    def __repr__(self) -> str:
        drives = ",".join(
            f"{d.name}({'ok' if d.serviceable else 'down'})" for d in self.drives
        )
        return f"<MirroredVolume {self.name} [{drives}]>"
