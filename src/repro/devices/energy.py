"""Per-round energy accounting structures.

The reward of AutoFL (paper Section 4.1) is built from the estimated local energy of each
device — computation plus communication energy for participants (Eq. 5) and idle energy for
non-participants — and the global energy summed over the whole population (Eq. 6).  The
containers here hold those quantities for one aggregation round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SimulationError


@dataclass(frozen=True, slots=True)
class DeviceEnergy:
    """Energy breakdown (Joules) of a single device over one aggregation round.

    Slotted: the scalar reference view of a round holds one per fleet device.
    """

    compute_j: float = 0.0
    communication_j: float = 0.0
    idle_j: float = 0.0

    def __post_init__(self) -> None:
        if min(self.compute_j, self.communication_j, self.idle_j) < 0:
            raise SimulationError("energy components must be non-negative")

    @property
    def total_j(self) -> float:
        """Total energy drawn by the device during the round."""
        return self.compute_j + self.communication_j + self.idle_j

    @property
    def active_j(self) -> float:
        """Energy attributable to FL work (compute + communication)."""
        return self.compute_j + self.communication_j


@dataclass
class RoundEnergyAccount:
    """Energy bookkeeping for all devices over one aggregation round."""

    per_device: dict[int, DeviceEnergy] = field(default_factory=dict)

    def record(self, device_id: int, energy: DeviceEnergy) -> None:
        """Record (or overwrite) the energy breakdown of one device."""
        self.per_device[device_id] = energy

    def device(self, device_id: int) -> DeviceEnergy:
        """Return the breakdown for a device, raising if it was never recorded."""
        try:
            return self.per_device[device_id]
        except KeyError as exc:
            raise SimulationError(f"no energy recorded for device {device_id}") from exc

    @property
    def global_j(self) -> float:
        """Total energy over the whole population (paper Eq. 6, ``R_energy_global``)."""
        return sum(energy.total_j for energy in self.per_device.values())

    @property
    def participant_j(self) -> float:
        """Total active (compute + communication) energy of the round's participants."""
        return sum(energy.active_j for energy in self.per_device.values())

    @property
    def idle_total_j(self) -> float:
        """Total idle energy of non-participants."""
        return sum(energy.idle_j for energy in self.per_device.values())

    def merge(self, other: "RoundEnergyAccount") -> "RoundEnergyAccount":
        """Combine two accounts (summing overlapping devices) into a new account."""
        merged = RoundEnergyAccount(per_device=dict(self.per_device))
        for device_id, energy in other.per_device.items():
            if device_id in merged.per_device:
                existing = merged.per_device[device_id]
                merged.per_device[device_id] = DeviceEnergy(
                    compute_j=existing.compute_j + energy.compute_j,
                    communication_j=existing.communication_j + energy.communication_j,
                    idle_j=existing.idle_j + energy.idle_j,
                )
            else:
                merged.per_device[device_id] = energy
        return merged
