"""The PHY's inline energy charges against the validated ledger API.

:class:`~repro.sim.phy.Phy` charges idle, sleep and receive residencies by
adding to the :class:`~repro.core.energy_model.NodeEnergy` fields in place
instead of calling ``charge_*``.  The differential test drives radios
through random transmit / sleep / wake / finalize sequences, records every
residency the radios went through by watching their state between events,
replays those residencies into a fresh ledger through the public
``charge_*`` methods, and requires bit-for-bit equal ledgers.

The invariant test checks the energy-by-state identities on whole runs:
idle and sleep energy are their power times their state time, and the
state times cover the run.
"""

from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.energy_model import NodeEnergy
from repro.core.radio import CABLETRON, RadioState
from repro.experiments.scenarios import small_network
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.network import WirelessNetwork
from repro.sim.packet import BROADCAST, PacketKind, make_control_packet, make_data_packet
from repro.sim.phy import Phy

CARD = replace(CABLETRON, switch_energy=0.001)

#: A line: 0 and 2 both reach 1 but not each other, so their frames
#: collide at 1 (hidden terminal); 3 hears only 2.
POSITIONS = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0), 3: (600.0, 0.0)}
MAX_RANGE = 250.0
HORIZON = 0.02

ACTIONS = ("data", "data-pc", "control", "sleep", "wake", "finalize")

operations = st.lists(
    st.tuples(
        st.integers(0, 120),  # start time in units of 0.1 ms
        st.sampled_from(sorted(POSITIONS)),
        st.sampled_from(ACTIONS),
    ),
    max_size=40,
)


def _apply(phy: Phy, action: str) -> None:
    """Perform ``action`` on ``phy`` when the radio allows it."""
    node = phy.node_id
    state = phy.state
    if action == "sleep":
        if state is not RadioState.TRANSMIT:
            phy.sleep()
    elif action == "wake":
        phy.wake()
    elif action == "finalize":
        phy.finalize()
    elif state is RadioState.IDLE or state is RadioState.RECEIVE:
        peer = 1 if node != 1 else 0
        if action == "control":
            phy.transmit(make_control_packet(PacketKind.RTS, src=node, dst=BROADCAST))
        else:
            frame = make_data_packet(origin=node, final_dst=peer, src=node, dst=peer)
            phy.transmit(frame, distance=200.0 if action == "data-pc" else None)


def _snapshot(phy: Phy):
    """The state, its charge class and ``state_since`` between events."""
    state = phy.state
    kind = distance = None
    if state is RadioState.RECEIVE:
        kind = "data" if not phy._rx_packets[0].is_control else "control"
    elif state is RadioState.TRANSMIT:
        kind = "control" if phy._tx_packet.is_control else "data"
        distance = phy._tx_distance
    return state, kind, distance, phy.state_since


def _replay(residencies, wakes: int) -> NodeEnergy:
    """Charge recorded residencies through the public ``charge_*`` API."""
    ledger = NodeEnergy(card=CARD)
    for state, kind, distance, elapsed in residencies:
        if state is RadioState.IDLE:
            ledger.charge_idle(elapsed)
        elif state is RadioState.SLEEP:
            ledger.charge_sleep(elapsed)
        elif state is RadioState.RECEIVE:
            if kind == "data":
                ledger.charge_data_rx(elapsed)
            else:
                ledger.charge_control_rx(elapsed)
        elif kind == "data":
            ledger.charge_data_tx(elapsed, distance)
        else:
            ledger.charge_control_tx(elapsed)
    ledger.charge_switch(wakes)
    return ledger


def _drive(ops):
    """Run ``ops`` on a fresh channel; return the PHYs and their records."""
    sim = Simulator()
    channel = Channel(sim, POSITIONS, max_range=MAX_RANGE)
    phys = {
        node: Phy(sim, channel, node, CARD, NodeEnergy(card=CARD))
        for node in POSITIONS
    }
    for tick, node, action in ops:
        sim.schedule_at(tick * 1e-4, lambda p=phys[node], a=action: _apply(p, a))
    last = {node: _snapshot(phy) for node, phy in phys.items()}
    residencies = {node: [] for node in phys}
    wakes = dict.fromkeys(phys, 0)

    def observe() -> None:
        for node, phy in phys.items():
            # The inline charges rely on this: frames are in the reception
            # list exactly while the radio is in receive state.
            assert (phy.state is RadioState.RECEIVE) == bool(phy._rx_packets)
            state, kind, distance, since = last[node]
            now = _snapshot(phy)
            # Every charge moves ``state_since`` to the charge instant; the
            # residency it closed is the one seen after the previous event.
            elapsed = now[3] - since
            if state is RadioState.RECEIVE and (
                now[0] is RadioState.TRANSMIT or now[0] is RadioState.SLEEP
            ):
                # A reception cut short by our own transmission or by sleep
                # drops its frames before the charge, which then counts
                # as control receive.
                kind = "control"
            if elapsed > 0:
                residencies[node].append((state, kind, distance, elapsed))
            if state is RadioState.SLEEP and now[0] is not RadioState.SLEEP:
                wakes[node] += 1
            last[node] = now

    while sim.step():
        observe()
    sim.run(until=HORIZON)
    for phy in phys.values():
        phy.finalize()
    observe()
    return phys, residencies, wakes


def _assert_ledgers_equal(phys, residencies, wakes) -> None:
    for node, phy in phys.items():
        reference = _replay(residencies[node], wakes[node])
        for spec in fields(NodeEnergy):
            if spec.name == "card":
                continue
            assert getattr(phy.energy, spec.name) == getattr(reference, spec.name), (
                node,
                spec.name,
            )


#: Overlapping data frames from the hidden pair (0, 2) collide at node 1,
#: a control broadcast follows, and node 3 sleeps through a frame.
COLLISION_OPS = [
    (1, 0, "data"),
    (3, 2, "data"),
    (20, 3, "sleep"),
    (25, 1, "control"),
    (26, 2, "data-pc"),
    (40, 3, "wake"),
    (45, 0, "finalize"),
    (50, 2, "control"),
]


class TestInlineChargesMatchLedgerApi:
    @given(ops=operations)
    @example(ops=COLLISION_OPS)
    @settings(max_examples=150, deadline=None)
    def test_inline_ledger_equals_charge_api_replay(self, ops):
        _assert_ledgers_equal(*_drive(ops))

    def test_collision_sequence_is_exercised(self):
        phys, residencies, wakes = _drive(COLLISION_OPS)
        assert phys[1].frames_collided > 0
        kinds = {(state, kind) for node in phys for state, kind, _, _ in residencies[node]}
        assert (RadioState.RECEIVE, "data") in kinds
        assert (RadioState.RECEIVE, "control") in kinds
        assert (RadioState.TRANSMIT, "data") in kinds
        assert (RadioState.TRANSMIT, "control") in kinds
        assert wakes[3] == 1
        _assert_ledgers_equal(phys, residencies, wakes)


class TestEnergyByStateInvariant:
    """Idle and sleep energy equal power times state time; state times
    cover the run.

    The receive identity is deliberately absent: the PSM charges ATIM and
    ATIM-ACK exchanges out of band (``track_time=False``), so control
    receive energy exceeds ``p_rx`` times receive time by design (about
    4.6% under DSDVH-ODPM).
    """

    @pytest.mark.parametrize(
        "protocol", ["DSR-Active", "DSR-ODPM", "TITAN-PC", "DSDVH-ODPM"]
    )
    def test_idle_sleep_and_occupancy_identities(self, protocol):
        scenario = small_network("bench").scaled(duration=20.0, runs=1)
        network = WirelessNetwork(scenario.config(protocol, 4.0, 1))
        network.run()
        for node, ledger in network.energy:
            card = ledger.card
            state_time = ledger.state_time
            assert ledger.idle == pytest.approx(
                card.p_idle * state_time[RadioState.IDLE], rel=1e-12, abs=0.0
            ), node
            assert ledger.sleep == pytest.approx(
                card.p_sleep * state_time[RadioState.SLEEP], rel=1e-12, abs=0.0
            ), node
            assert ledger.busy_time == scenario.duration, node
