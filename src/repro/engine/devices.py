"""Device-aware multi-backend routing: device specs, farms and routing policies.

The paper's premise is that a small device's *qubit width* is the binding
constraint: qubit reuse plus cutting let a circuit that is wider than any
available machine run as a family of narrow subcircuit variants.  Until this
module existed the engine executed every variant on one implicit,
infinitely-wide simulator, so that constraint was never actually modelled.

A :class:`DeviceSpec` describes one backend (its qubit capacity, a nominal
sampling throughput, an optional noise profile or executor factory, and how
many variant streams it can run concurrently).  A :class:`DeviceFarm` routes
each enumerated variant to a *feasible* device — one whose ``max_qubits`` is at
least the fragment's width **after reuse compaction** (``variant.num_wires``,
the same quantity :attr:`CutPlan.max_width <repro.core.pipeline.CutPlan.max_width>`
maximises over) — under one of three policies:

* ``round_robin`` — cycle through the feasible devices in declaration order;
* ``least_loaded`` — send the request where its simulated completion time is
  earliest (accounts for per-device throughput and lane occupancy);
* ``best_fit`` — narrowest feasible device first (keeps wide, scarce machines
  free for the variants that actually need them), ties broken least-loaded.

Routing is deterministic: it depends only on the request sequence and the farm
configuration, never on wall-clock time or worker identity, so the engine's
serial == parallel bit-identity guarantee holds *per device lane*.  When no
device fits a variant, :class:`~repro.exceptions.InfeasibleVariantError` is
raised naming the width shortfall against the widest (and narrowest) device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import DeviceError, InfeasibleVariantError
from ..simulator.noise import NoiseModel
from .allocation import ShotPlan

__all__ = [
    "ROUTING_POLICIES",
    "DEFAULT_SHOTS_PER_SECOND",
    "NOMINAL_VARIANT_SHOTS",
    "DeviceSpec",
    "DeviceUtilization",
    "DeviceFarm",
]

#: The routing policies a :class:`DeviceFarm` understands.
ROUTING_POLICIES: Tuple[str, ...] = ("round_robin", "least_loaded", "best_fit")

#: Default nominal sampling throughput of a device (shots per second).  Real
#: superconducting backends sustain on the order of a few thousand circuit
#: executions per second; the exact figure only matters *relatively*, for
#: ``least_loaded`` routing and the utilization/queue-time report.
DEFAULT_SHOTS_PER_SECOND = 4096.0

#: Shots charged to the load model for a variant with no explicit allocation
#: (exact executors have no shot count; the cost model still needs a weight).
NOMINAL_VARIANT_SHOTS = 1024


@dataclass(frozen=True)
class DeviceSpec:
    """One execution backend in a :class:`DeviceFarm`.

    Attributes:
        name: unique identifier, used in reports and error messages.
        max_qubits: qubit capacity — a variant is feasible here only when its
            post-reuse width (``variant.num_wires``) fits.
        shots_per_second: nominal sampling throughput, feeding the simulated
            queue model behind ``least_loaded`` routing and the per-device
            utilization / queue-time report.
        noise: optional :class:`~repro.simulator.noise.NoiseModel`; when given
            (and no ``executor_factory``), variants routed here execute on a
            :class:`~repro.cutting.executors.NoisyExecutor` over a linear-chain
            device of ``max_qubits`` qubits, seeded with ``seed``.
        executor_factory: optional zero-argument callable building the
            :class:`~repro.cutting.executors.VariantExecutor` this device runs
            variants on (built once, reused for the farm's lifetime).  Mutually
            exclusive with ``noise``.  When neither is given the device shares
            the engine's executor — routing then only models capacity and
            throughput and cannot change any numbers.
        lanes: concurrent variant streams this device sustains.  Lanes drive
            both the queue model and the engine's chunking: under automatic
            chunk sizing a device's batch is split into ``lanes`` worker tasks,
            so its parallelism never exceeds what the hardware could offer.
        seed: base seed for the ``noise``-profile executor (ignored otherwise);
            fixed by default so farm runs are reproducible.
    """

    name: str
    max_qubits: int
    shots_per_second: float = DEFAULT_SHOTS_PER_SECOND
    noise: Optional[NoiseModel] = None
    executor_factory: Optional[Callable[[], object]] = None
    lanes: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise DeviceError("device name must be non-empty")
        if self.max_qubits < 1:
            raise DeviceError(
                f"device {self.name!r} must have max_qubits >= 1, got {self.max_qubits}"
            )
        if not self.shots_per_second > 0:
            raise DeviceError(
                f"device {self.name!r} needs shots_per_second > 0, got {self.shots_per_second}"
            )
        if self.lanes < 1:
            raise DeviceError(f"device {self.name!r} needs lanes >= 1, got {self.lanes}")
        if self.noise is not None and self.executor_factory is not None:
            raise DeviceError(
                f"device {self.name!r}: noise and executor_factory are mutually "
                "exclusive (build the noisy executor inside the factory instead)"
            )

    def descriptor(self) -> str:
        """Stable string identifying everything that affects this device's results.

        Used in cache-scope strings: two devices with equal descriptors produce
        interchangeable results (factories are identified by qualified name, so
        keep distinct factories in distinct functions/classes).
        """
        parts = [f"{self.name}:{self.max_qubits}"]
        if self.noise is not None:
            noise = self.noise
            parts.append(
                f"noise={noise.two_qubit_error}:{noise.single_qubit_error}"
                f":{noise.readout_error};seed={self.seed}"
            )
        if self.executor_factory is not None:
            factory = self.executor_factory
            qualname = getattr(factory, "__qualname__", repr(factory))
            parts.append(f"factory={getattr(factory, '__module__', '?')}.{qualname}")
        return "|".join(parts)

    def build_executor(self) -> Optional[Any]:
        """Build this device's own executor, or return ``None`` to share the engine's.

        ``executor_factory`` wins when given; a ``noise`` profile builds a
        :class:`~repro.cutting.executors.NoisyExecutor` on a linear-chain
        :class:`~repro.simulator.noise.DeviceModel` of ``max_qubits`` qubits.
        """
        if self.executor_factory is not None:
            executor = self.executor_factory()
            if not hasattr(executor, "execute_variant"):
                raise DeviceError(
                    f"device {self.name!r}: executor_factory returned "
                    f"{type(executor).__name__}, which is not a VariantExecutor "
                    "(no execute_variant method)"
                )
            return executor
        if self.noise is not None:
            # Imported here: cutting.executors imports repro.engine, so a
            # module-level import would be circular.
            from ..cutting.executors import NoisyExecutor
            from ..simulator.noise import DeviceModel

            coupling = tuple((i, i + 1) for i in range(self.max_qubits - 1))
            device = DeviceModel(self.max_qubits, coupling, self.noise, name=self.name)
            return NoisyExecutor(device, seed=self.seed)
        return None


@dataclass(frozen=True)
class DeviceUtilization:
    """Lifetime routing counters for one device of a farm.

    ``busy_seconds`` and ``queue_seconds`` come from the farm's simulated
    throughput model (allocated shots / ``shots_per_second`` per request,
    ``lanes`` concurrent streams): they measure how the routing policy loaded
    the device, not host wall-clock.
    """

    name: str
    max_qubits: int
    assigned: int
    busy_seconds: float
    queue_seconds: float

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        return {
            "device": self.name,
            "max_qubits": self.max_qubits,
            "assigned": self.assigned,
            "busy_seconds": round(self.busy_seconds, 4),
            "queue_seconds": round(self.queue_seconds, 4),
        }


class DeviceFarm:
    """Routes variant requests onto a fleet of width-limited devices.

    Args:
        devices: the :class:`DeviceSpec` fleet (non-empty, unique names).
        routing: one of :data:`ROUTING_POLICIES` (default ``"best_fit"``).

    The farm is the engine's routing layer: :meth:`route` partitions a batch of
    pending requests into per-device lanes, maintaining a deterministic
    simulated queue (earliest-free lane per device, cost = shots / throughput)
    that feeds ``least_loaded`` decisions and the :meth:`utilization` report.
    Executors are resolved per device through :meth:`executor_for` and built at
    most once.
    """

    def __init__(self, devices: Sequence[DeviceSpec], routing: str = "best_fit") -> None:
        devices = tuple(devices)
        if not devices:
            raise DeviceError("a device farm needs at least one device")
        for device in devices:
            if not isinstance(device, DeviceSpec):
                raise DeviceError(
                    f"devices must be DeviceSpec instances, got {type(device).__name__}"
                )
        names = [device.name for device in devices]
        if len(set(names)) != len(names):
            raise DeviceError(f"device names must be unique, got {names}")
        if routing not in ROUTING_POLICIES:
            raise DeviceError(
                f"routing must be one of {ROUTING_POLICIES}, got {routing!r}"
            )
        self._devices = devices
        self._routing = routing
        self._order = {device.name: index for index, device in enumerate(devices)}
        self._cursor = 0  # round-robin position, persists across batches
        self._executors: Dict[str, object] = {}
        self._assigned: Dict[str, int] = {device.name: 0 for device in devices}
        self._busy: Dict[str, float] = {device.name: 0.0 for device in devices}
        self._queue: Dict[str, float] = {device.name: 0.0 for device in devices}

    # ------------------------------------------------------------------ accessors
    @property
    def devices(self) -> Tuple[DeviceSpec, ...]:
        return self._devices

    @property
    def routing(self) -> str:
        return self._routing

    @property
    def is_heterogeneous(self) -> bool:
        """True when any device brings its own backend (``noise``/``executor_factory``).

        Heterogeneous farms change the *numbers* depending on routing;
        homogeneous farms only model capacity and throughput.
        """
        return any(
            device.noise is not None or device.executor_factory is not None
            for device in self._devices
        )

    @property
    def widest(self) -> DeviceSpec:
        """The device with the largest qubit capacity (first among ties)."""
        return max(self._devices, key=lambda device: device.max_qubits)

    @property
    def narrowest(self) -> DeviceSpec:
        """The device with the smallest qubit capacity (first among ties)."""
        return min(self._devices, key=lambda device: device.max_qubits)

    def feasible(self, width: int) -> List[DeviceSpec]:
        """Devices that can host a ``width``-qubit variant, in declaration order."""
        return [device for device in self._devices if device.max_qubits >= width]

    def check_width(self, width: int, subcircuit: Optional[int] = None) -> None:
        """Raise :class:`InfeasibleVariantError` when no device fits ``width``."""
        if self.feasible(width):
            return
        fleet = ", ".join(
            f"{device.name}: {device.max_qubits} qubits" for device in self._devices
        )
        what = (
            f"variant of subcircuit {subcircuit}"
            if subcircuit is not None
            else "the cut plan's widest subcircuit"
        )
        widest = self.widest
        raise InfeasibleVariantError(
            f"{what} needs {width} qubits after reuse compaction, but no device "
            f"in the farm can host it ({fleet}; even the widest, {widest.name!r}, "
            f"is {width - widest.max_qubits} qubit(s) short) — cut deeper, enable "
            "qubit reuse, or add a wider device"
        )

    # ------------------------------------------------------------------ routing
    def route(
        self,
        pending: Sequence[Tuple],
        shots: Optional[ShotPlan] = None,
    ) -> Dict[str, List[Tuple]]:
        """Assign pending requests ``(fingerprint, variant, seed)`` to devices.

        Returns ``device name -> lane`` (sub-lists of ``pending``, order
        preserved within each lane).  ``shots`` — the batch's
        :class:`~repro.engine.allocation.ShotPlan`, for a sampling batch —
        weights each request's simulated execution cost by the shots it
        draws; without one, requests are charged a nominal
        :data:`NOMINAL_VARIANT_SHOTS`.

        Raises:
            InfeasibleVariantError: a request is wider than every device.  The
            check runs over the *whole* batch before anything is assigned, so
            a rejected batch never leaves partial routing state behind.
        """
        widths: List[int] = []
        for request in pending:
            variant = request[1]
            width = variant.num_wires
            if not self.feasible(width):
                self.check_width(width, subcircuit=variant.subcircuit_index)
            widths.append(width)
        lanes: Dict[str, List[Tuple]] = {}
        # Per-batch simulated clock: each device starts with all lanes free.
        lane_free: Dict[str, List[float]] = {
            device.name: [0.0] * device.lanes for device in self._devices
        }
        for request, width in zip(pending, widths):
            key = request[0]
            feasible = self.feasible(width)
            drawn = NOMINAL_VARIANT_SHOTS if shots is None else shots.shots_for(key)
            device = self._pick(feasible, lane_free, drawn)
            free = lane_free[device.name]
            lane_index = min(range(len(free)), key=free.__getitem__)
            wait = free[lane_index]
            cost = drawn / device.shots_per_second
            free[lane_index] = wait + cost
            lanes.setdefault(device.name, []).append(request)
            self._assigned[device.name] += 1
            self._busy[device.name] += cost
            self._queue[device.name] += wait
        return lanes

    def _pick(
        self,
        feasible: List[DeviceSpec],
        lane_free: Dict[str, List[float]],
        shots: int,
    ) -> DeviceSpec:
        if self._routing == "round_robin":
            device = feasible[self._cursor % len(feasible)]
            self._cursor += 1
            return device
        if self._routing == "least_loaded":
            return min(
                feasible,
                key=lambda device: (
                    min(lane_free[device.name]) + shots / device.shots_per_second,
                    self._order[device.name],
                ),
            )
        # best_fit: narrowest feasible capacity, ties broken least-loaded then
        # by declaration order (fully deterministic).
        narrowest = min(device.max_qubits for device in feasible)
        return min(
            (device for device in feasible if device.max_qubits == narrowest),
            key=lambda device: (min(lane_free[device.name]), self._order[device.name]),
        )

    # ------------------------------------------------------------------ executors
    def executor_for(self, spec: DeviceSpec, default: Any) -> Any:
        """The executor running ``spec``'s lane (built once; ``default`` shared).

        Heterogeneous farms (per-device ``noise`` / ``executor_factory``) share
        the engine's result cache under the engine executor's namespace: a
        fingerprint is executed by whichever device it routes to first, and
        later batches reuse that cached result regardless of where they would
        have routed.  Homogeneous farms (no per-device executors) cannot
        observe this — every device runs the same ``default`` backend.
        """
        executor = self._executors.get(spec.name)
        if executor is None:
            executor = spec.build_executor()
            if executor is None:
                executor = default
            self._executors[spec.name] = executor
        return executor

    def cache_scope(self) -> Optional[str]:
        """Cache-isolation prefix for heterogeneous farms (None when homogeneous).

        A farm whose devices bring their own executors (``noise`` /
        ``executor_factory``) changes which backend a fingerprint executes on,
        so its results must never alias those the same engine executor would
        store without the farm (or under a differently-composed farm) in a
        shared :class:`~repro.engine.cache.ResultCache`.  The scope therefore
        folds in the routing policy and every device's full result-affecting
        descriptor (name, width, noise parameters, seed, factory identity).
        Homogeneous farms only model capacity — they share keys with farm-less
        runs by design.
        """
        if not self.is_heterogeneous:
            return None
        fleet = ",".join(device.descriptor() for device in self._devices)
        return f"farm[{self._routing};{fleet}]"

    def snapshot(self) -> Dict[str, object]:
        """Copy of the mutable routing state (counters + round-robin cursor)."""
        return {
            "assigned": dict(self._assigned),
            "busy": dict(self._busy),
            "queue": dict(self._queue),
            "cursor": self._cursor,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Roll the routing state back to an earlier :meth:`snapshot`.

        The engine uses this when a routed batch fails to execute: utilization
        must only ever count work that actually ran, or ``assigned`` would
        drift from the executor's execution counters on retries.
        """
        self._assigned = dict(state["assigned"])
        self._busy = dict(state["busy"])
        self._queue = dict(state["queue"])
        self._cursor = state["cursor"]

    # ------------------------------------------------------------------ reporting
    def utilization(self) -> Tuple[DeviceUtilization, ...]:
        """Lifetime per-device routing counters, in declaration order."""
        return tuple(
            DeviceUtilization(
                name=device.name,
                max_qubits=device.max_qubits,
                assigned=self._assigned[device.name],
                busy_seconds=self._busy[device.name],
                queue_seconds=self._queue[device.name],
            )
            for device in self._devices
        )
