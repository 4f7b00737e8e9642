"""Differential + property-based harness for the channel-model registry.

Three layers of protection:

1. **Differential regression** — the disc channel built *through the
   registry* must replay every pre-registry pinned digest byte for byte
   (tiny, fig8, mobile), and a deliberately opaque disc (the filter path
   forced on) must produce the identical simulation modulo its counter
   block.  The registry refactor can never silently fork the default path.
2. **Per-model determinism contract** — each lossy model gets its own
   pinned digest, verified serial == parallel == cached == batched.
3. **Hypothesis properties** — reception probability monotone in
   distance, ``loss=0`` degenerates to the disc exactly, per-link channel
   streams cannot perturb traffic/mobility streams, and spatial-hash
   grid geometry equals the brute-force reference under lossy models.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.radio import CABLETRON
from repro.experiments.parallel import GridCell, grid_cells, run_grid
from repro.experiments.runner import run_single
from repro.experiments.scenarios import (
    Scenario,
    lossy_small,
    mobile_small,
    small_network,
)
from repro.experiments.store import (
    CACHE_FORMAT_VERSION,
    ResultStore,
    cell_key,
    scenario_fingerprint,
)
from repro.metrics.collectors import aggregate_channel
from repro.sim.channel import ChannelGeometry
from repro.sim.channel_models import (
    CHANNEL_MODELS,
    TECH_PROFILES,
    ChannelSpec,
    DiscChannelModel,
    ProbChannelModel,
    RssiMarginChannelModel,
    parse_channel_spec,
    parse_tech_assignments,
    resolve_cards,
)
from repro.sim.engine import Simulator
from repro.sim.network import WirelessNetwork
from repro.traffic.models import TrafficSpec


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.fixture
def tiny() -> Scenario:
    """The orchestration suite's 3x3 grid (flows never start: 10 s run)."""
    return Scenario(
        name="tiny-test",
        node_count=9,
        field_size=120.0,
        flow_count=3,
        rates_kbps=(2.0, 4.0),
        duration=10.0,
        runs=2,
        grid=True,
        protocols=("DSR-ODPM",),
    )


@pytest.fixture
def active() -> Scenario:
    """A 3x3 grid whose flows actually carry data inside the run.

    The ``tiny`` fixture keeps the paper's [20 s, 25 s] start window but
    only simulates 10 s, so no data frame is ever transmitted — useless
    for loss models.  This variant starts flows at 2–4 s into a 12 s run:
    hundreds of data transmissions, still well under a second of wall
    clock.
    """
    return Scenario(
        name="tiny-active",
        node_count=9,
        field_size=120.0,
        flow_count=3,
        rates_kbps=(2.0, 4.0),
        duration=12.0,
        runs=2,
        grid=True,
        start_window=(2.0, 4.0),
        protocols=("DSR-ODPM",),
    )


PROB_SPEC = ChannelSpec(
    "prob", (("loss", 0.5), ("gamma", 1.0), ("sigma", 3.0))
)
RSSI_SPEC = ChannelSpec("rssi-margin", (("margin", 20.0),))
TECH_SPEC = ChannelSpec(
    "prob", (("loss", 0.3),), tech=(("short", 0.4), ("sensor", 0.2))
)


class TestRegistryAndSpec:
    def test_registry_contents(self):
        assert set(CHANNEL_MODELS) == {"disc", "prob", "rssi-margin"}
        for name, cls in CHANNEL_MODELS.items():
            assert cls.name == name
            assert isinstance(cls.param_defaults, dict)

    def test_default_spec_is_disc(self):
        spec = ChannelSpec()
        assert spec.is_disc and spec.is_default
        assert isinstance(spec.build(), DiscChannelModel)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown channel model"):
            ChannelSpec("fso")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            ChannelSpec("prob", (("margin", 3.0),))
        with pytest.raises(ValueError, match="takes no parameter"):
            ChannelSpec("disc", (("loss", 0.1),))

    def test_duplicate_param_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ChannelSpec("prob", (("loss", 0.1), ("loss", 0.2)))

    def test_bad_values_surface_at_construction(self):
        with pytest.raises(ValueError):
            ChannelSpec("prob", (("loss", 1.5),))
        with pytest.raises(ValueError):
            ChannelSpec("prob", (("sigma", -1.0),))
        with pytest.raises(ValueError):
            ChannelSpec("rssi-margin", (("margin", -3.0),))
        with pytest.raises(ValueError):
            ChannelSpec("rssi-margin", (("exponent", 9.0),))

    def test_params_canonicalized(self):
        a = ChannelSpec("prob", (("sigma", 3.0), ("loss", 0.2)))
        b = ChannelSpec("prob", (("loss", 0.2), ("sigma", 3.0)))
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_tech_validation(self):
        with pytest.raises(ValueError, match="unknown tech profile"):
            ChannelSpec(tech=(("quantum", 0.5),))
        with pytest.raises(ValueError, match="must be in"):
            ChannelSpec(tech=(("short", 0.0),))
        with pytest.raises(ValueError, match="duplicate tech"):
            ChannelSpec(tech=(("short", 0.3), ("short", 0.2)))
        with pytest.raises(ValueError, match="sum to at most 1"):
            ChannelSpec(tech=(("short", 0.7), ("sensor", 0.6)))

    def test_parse_round_trips(self):
        spec = parse_channel_spec("prob:loss=0.3,sigma=4")
        assert spec == ChannelSpec("prob", (("loss", 0.3), ("sigma", 4.0)))
        assert parse_channel_spec("disc") == ChannelSpec()
        assert parse_channel_spec("rssi-margin:margin=6") == ChannelSpec(
            "rssi-margin", (("margin", 6.0),)
        )

    def test_parse_errors_name_the_token(self):
        with pytest.raises(ValueError, match="loss"):
            parse_channel_spec("prob:loss")
        with pytest.raises(ValueError, match="abc"):
            parse_channel_spec("prob:loss=abc")

    def test_parse_tech_assignments(self):
        assert parse_tech_assignments("short=0.3,sensor=0.2") == (
            ("short", 0.3),
            ("sensor", 0.2),
        )
        with pytest.raises(ValueError, match="NAME=FRACTION"):
            parse_tech_assignments("short")
        with pytest.raises(ValueError, match="lots"):
            parse_tech_assignments("short=lots")

    def test_fingerprint_payload_round_trip(self):
        for spec in (ChannelSpec(), PROB_SPEC, RSSI_SPEC, TECH_SPEC):
            assert ChannelSpec.from_payload(spec.fingerprint()) == spec

    @given(
        loss=st.floats(0.0, 1.0),
        gamma=st.floats(0.1, 8.0),
        sigma=st.floats(0.0, 12.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_spec_round_trip_property(self, loss, gamma, sigma):
        spec = ChannelSpec(
            "prob", (("loss", loss), ("gamma", gamma), ("sigma", sigma))
        )
        clone = ChannelSpec.from_payload(
            json.loads(json.dumps(spec.fingerprint()))
        )
        assert clone == spec


class TestDiscDifferential:
    """Disc-via-registry must replay every pre-registry pinned digest."""

    # Recorded before the registry existed; see tests/test_orchestration.py
    # and tests/test_mobility.py for the original pins.
    TINY_CELL_DIGEST = (
        "d038f4c678d5f4e86895ea42fa481e55b91603ff1abe311a95bff03765dfc914"
    )
    FIG8_CELL_DIGEST = (
        "e7f78a1e177bf4fa28276f333aedf61afe16c8e0c6c2ef3d84136795be3a86bc"
    )
    MOBILE_CELL_DIGEST = (
        "4d7a549348f59eca66dbfb66e6bbbe3e82e8a9b21cfebdc929348c330c202b6d"
    )

    def test_tiny_digest_via_explicit_disc_spec(self, tiny):
        scenario = tiny.with_channel(ChannelSpec("disc"))
        result = run_single(scenario, "DSR-ODPM", 2.0, seed=1)
        assert result.channel is None  # default spec: no payload block
        assert _digest(result.to_payload()) == self.TINY_CELL_DIGEST

    def test_fig8_digest_via_explicit_disc_spec(self):
        scenario = small_network(scale="smoke").with_channel(ChannelSpec())
        result = run_single(scenario, "DSR-ODPM", 8.0, seed=1)
        assert _digest(result.to_payload()) == self.FIG8_CELL_DIGEST

    def test_mobile_digest_via_explicit_disc_spec(self):
        scenario = mobile_small(scale="smoke").with_channel(
            ChannelSpec("disc")
        )
        result = run_single(scenario, "DSR-ODPM", 4.0, seed=1)
        assert _digest(result.to_payload()) == self.MOBILE_CELL_DIGEST

    def test_opaque_disc_forces_filter_path_and_matches(self, active):
        """The per-reception filter itself must not perturb a run.

        A disc subclass with ``transparent = False`` routes every
        reception through the model-filter loop; the simulation must be
        byte-identical to the fast path modulo the counter block.
        """

        class OpaqueDisc(DiscChannelModel):
            name = "opaque-disc"
            transparent = False

        reference = run_single(active, "DSR-ODPM", 2.0, seed=1).to_payload()
        CHANNEL_MODELS["opaque-disc"] = OpaqueDisc
        try:
            forced = run_single(
                active.with_channel(ChannelSpec("opaque-disc")),
                "DSR-ODPM",
                2.0,
                seed=1,
            ).to_payload()
        finally:
            del CHANNEL_MODELS["opaque-disc"]
        block = forced.pop("channel")
        assert forced == reference
        assert block["model_checks"] > 0
        assert block["model_drops"] == 0.0

    def test_default_spec_leaves_fingerprint_and_keys_unchanged(self, tiny):
        """Pre-registry cache entries must stay addressable."""
        assert CACHE_FORMAT_VERSION == 3
        fingerprint = scenario_fingerprint(tiny)
        assert "channel" not in fingerprint
        explicit = tiny.with_channel(ChannelSpec("disc"))
        assert cell_key(explicit, "DSR-ODPM", 2.0, 1) == cell_key(
            tiny, "DSR-ODPM", 2.0, 1
        )

    def test_lossy_spec_changes_the_cell_key(self, tiny):
        lossy = tiny.with_channel(PROB_SPEC)
        assert scenario_fingerprint(lossy)["channel"] == PROB_SPEC.fingerprint()
        assert cell_key(lossy, "DSR-ODPM", 2.0, 1) != cell_key(
            tiny, "DSR-ODPM", 2.0, 1
        )
        techy = tiny.with_channel(ChannelSpec(tech=(("short", 0.5),)))
        assert cell_key(techy, "DSR-ODPM", 2.0, 1) != cell_key(
            tiny, "DSR-ODPM", 2.0, 1
        )


class TestLossyDeterminismContract:
    """Each lossy model is pinned serial, parallel, batched and cached."""

    #: sha256 of the (DSR-ODPM, 2 Kbit/s, seed 1) payload of the active
    #: 3x3 fixture under each non-default channel spec.  Recorded on the
    #: channel-registry PR; any dispatch-mode or model drift breaks them.
    PINNED = {
        "prob": (
            PROB_SPEC,
            "e300d5c936a3b96b6a8a2aec711e1bb35919023175f91d8790e107609e758cda",
        ),
        "rssi-margin": (
            RSSI_SPEC,
            "0a26138cbcedcae564c3a8ccb7c1ebd7ccd2921d47bd5f39c7bf81570891ab65",
        ),
        "tech-mix": (
            TECH_SPEC,
            "399887a0b67c9294b71ccb912938244b129facbf24691a17add5a3910634db76",
        ),
    }

    @pytest.mark.parametrize("label", sorted(PINNED))
    def test_four_way_contract_pinned(self, label, active, tmp_path):
        spec, expected = self.PINNED[label]
        scenario = active.with_channel(spec)
        cells = grid_cells(scenario, ("DSR-ODPM",), (2.0,), seeds=(1, 2))
        pinned = GridCell("DSR-ODPM", 2.0, 1)
        # One single-cell batch per seed, then both seeds as one batch.
        serial = {
            cell: run_grid(scenario, [cell], jobs=1)[cell] for cell in cells
        }
        parallel = run_grid(scenario, cells, jobs=2)
        batched = run_grid(scenario, cells, jobs=1)
        store = ResultStore(tmp_path)
        run_grid(scenario, cells, jobs=1, store=store)
        cached = run_grid(scenario, cells, jobs=1, store=store)
        assert store.hits == len(cells)  # second pass was pure cache
        for cell in cells:
            reference = serial[cell].to_payload()
            assert parallel[cell].to_payload() == reference
            assert batched[cell].to_payload() == reference
            assert cached[cell].to_payload() == reference
        assert _digest(serial[pinned].to_payload()) == expected

    def test_prob_actually_drops_frames(self, active):
        result = run_single(
            active.with_channel(PROB_SPEC), "DSR-ODPM", 2.0, seed=1
        )
        assert result.channel is not None
        assert result.channel["model_drops"] > 0
        assert 0.0 < result.channel["loss_rate"] < 1.0
        # Dropped frames trigger MAC retransmissions: more transmissions,
        # imperfect delivery — the trade-off the disc could never show.
        reference = run_single(active, "DSR-ODPM", 2.0, seed=1)
        assert result.events_processed != reference.events_processed
        assert result.delivery_ratio <= reference.delivery_ratio

    def test_channel_block_survives_payload_round_trip(self, active):
        from repro.metrics.collectors import RunResult

        result = run_single(
            active.with_channel(PROB_SPEC), "DSR-ODPM", 2.0, seed=1
        )
        clone = RunResult.from_payload(result.to_payload())
        assert clone.channel == result.channel
        assert _digest(clone.to_payload()) == _digest(result.to_payload())

    def test_aggregate_channel_folds_recorded_runs(self, active):
        lossy = active.with_channel(PROB_SPEC)
        results = [
            run_single(lossy, "DSR-ODPM", 2.0, seed=seed) for seed in (1, 2)
        ]
        folded = aggregate_channel(results)
        assert set(folded) == {"model_checks", "model_drops", "loss_rate"}
        assert folded["model_drops"].n == 2
        # Disc runs contribute nothing.
        disc = run_single(active, "DSR-ODPM", 2.0, seed=1)
        assert aggregate_channel([disc]) == {}

    def test_lossy_small_preset_round_trips_the_spec(self):
        scenario = lossy_small(scale="smoke")
        assert scenario.channel.model == "prob"
        assert not scenario.channel.is_default
        assert "channel" in scenario_fingerprint(scenario)


class _StubChannel:
    """Just enough channel for a model's ``bind``: a sim with named RNGs."""

    def __init__(self, seed: int = 1) -> None:
        self.sim = Simulator(seed=seed)


class TestChannelProperties:
    @given(
        loss=st.floats(0.0, 1.0),
        gamma=st.floats(0.1, 6.0),
        d1=st.floats(0.0, 250.0),
        d2=st.floats(0.0, 250.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_prob_reception_monotone_in_distance(self, loss, gamma, d1, d2):
        model = ProbChannelModel(loss=loss, gamma=gamma)
        near, far = sorted((d1, d2))
        p_near = model.reception_probability(near, 250.0)
        p_far = model.reception_probability(far, 250.0)
        assert 0.0 <= p_far <= p_near <= 1.0

    @given(
        margin=st.floats(0.0, 40.0),
        d1=st.floats(0.0, 250.0),
        d2=st.floats(0.0, 250.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rssi_margin_monotone_step(self, margin, d1, d2):
        model = RssiMarginChannelModel(margin=margin)
        near, far = sorted((d1, d2))
        assert model.reception_probability(
            far, 250.0
        ) <= model.reception_probability(near, 250.0)
        # The step sits exactly at the contracted reach.
        edge = 250.0 * model.reach_factor
        assert model.delivers(0, 1, edge, 250.0)
        assert not model.delivers(0, 1, edge * 1.0001, 250.0)

    def test_rssi_zero_margin_admits_the_full_disc(self):
        model = RssiMarginChannelModel(margin=0.0)
        assert model.reach_factor == 1.0
        assert model.delivers(0, 1, 250.0, 250.0)

    @given(
        sigma=st.floats(0.0, 10.0),
        distance=st.floats(0.0, 250.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_zero_never_draws(self, sigma, distance, seed):
        """``loss=0`` must degenerate to the disc without touching RNG."""
        model = ProbChannelModel(loss=0.0, sigma=sigma)
        stub = _StubChannel(seed=seed)
        model.bind(stub)
        assert model.delivers(0, 1, distance, 250.0)
        assert stub.sim._rngs == {}  # no channel stream was even created

    def test_loss_zero_run_equals_disc_byte_for_byte(self, active):
        """Full-run event streams coincide when loss is forced to 0.

        Shadowing alone cannot drop a frame (p == 1 regardless of the
        perturbed distance), so the whole simulation — event counts, flow
        counters, energy — must serialize identically to the disc run,
        modulo the counter block.
        """
        reference = run_single(active, "DSR-ODPM", 2.0, seed=1).to_payload()
        lossless = active.with_channel(
            ChannelSpec("prob", (("loss", 0.0), ("sigma", 5.0)))
        )
        payload = run_single(lossless, "DSR-ODPM", 2.0, seed=1).to_payload()
        payload.pop("channel")
        assert payload == reference

    @given(
        seed=st.integers(0, 2**16),
        links=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
            max_size=12,
        ),
        draws=st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_channel_streams_isolated_from_named_streams(
        self, seed, links, draws
    ):
        """Draining channel/<rx>/<tx> streams never shifts other streams."""
        reference = Simulator(seed=seed)
        expected_traffic = [
            reference.rng("traffic/0").random() for _ in range(draws)
        ]
        expected_mobility = [
            reference.rng("mobility/3").random() for _ in range(draws)
        ]
        mixed = Simulator(seed=seed)
        traffic, mobility = [], []
        for _ in range(draws):
            for rx, tx in links:
                mixed.rng("channel/%d/%d" % (rx, tx)).random()
            traffic.append(mixed.rng("traffic/0").random())
            mobility.append(mixed.rng("mobility/3").random())
        assert traffic == expected_traffic
        assert mobility == expected_mobility

    def test_lossy_run_does_not_perturb_traffic_schedules(self, active):
        """Per-flow generation counts are a pure traffic-stream function.

        A Poisson workload draws every gap from ``traffic/<flow>``; heavy
        channel loss consumes thousands of ``channel/*`` draws but must
        not move a single generation instant.
        """
        poisson = active.with_traffic(TrafficSpec("poisson"))
        reference = run_single(poisson, "DSR-ODPM", 2.0, seed=1)
        lossy = run_single(
            poisson.with_channel(PROB_SPEC), "DSR-ODPM", 2.0, seed=1
        )
        assert lossy.channel is not None and lossy.channel["model_drops"] > 0
        assert [f.sent for f in lossy.flows] == [
            f.sent for f in reference.flows
        ]
        assert [f.sent_bytes for f in lossy.flows] == [
            f.sent_bytes for f in reference.flows
        ]

    def test_lossy_run_does_not_perturb_mobility_paths(self):
        """Node trajectories draw only from ``mobility/<id>`` streams."""
        scenario = mobile_small(scale="smoke")
        reference = WirelessNetwork(scenario.config("DSR-ODPM", 4.0, 1))
        reference.run()
        lossy = WirelessNetwork(
            scenario.with_channel(PROB_SPEC).config("DSR-ODPM", 4.0, 1)
        )
        lossy.run()
        assert lossy.channel.model_drops > 0
        assert lossy.channel.positions == reference.channel.positions
        assert (
            lossy.channel.position_updates
            == reference.channel.position_updates
        )

    @pytest.mark.parametrize("spec", [PROB_SPEC, RSSI_SPEC])
    def test_grid_geometry_equals_brute_under_lossy_models(
        self, active, spec
    ):
        """Candidate-finding method is invisible to lossy channels.

        The model filters among in-reach candidates only; grid-bucket and
        brute-force geometry produce byte-identical neighbor tables, so
        the full lossy run must serialize identically whichever found the
        candidates.
        """
        scenario = active.with_channel(spec)
        config = scenario.config("DSR-ODPM", 2.0, 1)
        payloads = []
        for method in ("bruteforce", "grid"):
            geometry = ChannelGeometry.from_positions(
                config.placement.positions,
                config.card.max_range,
                method=method,
            )
            network = WirelessNetwork(
                scenario.config("DSR-ODPM", 2.0, 1), geometry=geometry
            )
            result = network.run()
            assert network.channel.geometry_mismatches == 0
            payloads.append(result.to_payload())
        assert payloads[0] == payloads[1]


class TestTechProfiles:
    def test_profiles_only_shrink_range(self):
        for profile in TECH_PROFILES.values():
            assert 0.0 < profile.range_scale <= 1.0
        with pytest.raises(ValueError, match="range_scale"):
            from repro.sim.channel_models import TechProfile

            TechProfile("boosted", range_scale=1.5)

    def test_apply_scales_the_card(self):
        profile = TECH_PROFILES["sensor"]
        card = profile.apply(CABLETRON)
        assert card.max_range == CABLETRON.max_range * profile.range_scale
        assert card.bandwidth == CABLETRON.bandwidth * profile.rate_scale
        assert card.p_idle == CABLETRON.p_idle * profile.power_scale
        assert card.alpha2 == CABLETRON.alpha2 * profile.power_scale
        assert "sensor" in card.name

    def test_resolve_cards_homogeneous_fast_path(self):
        assert resolve_cards(ChannelSpec(), CABLETRON, range(10)) is None

    def test_resolve_cards_deterministic_and_seed_independent(self):
        spec = ChannelSpec(tech=(("short", 0.4), ("sensor", 0.2)))
        node_ids = list(range(64))
        first = resolve_cards(spec, CABLETRON, node_ids)
        second = resolve_cards(spec, CABLETRON, node_ids)
        assert first == second  # no global RNG state involved
        names = {card.name for card in first.values()}
        assert len(names) >= 2  # mix actually materialized
        # The per-node draw is a pure function of the node id: node 0's
        # bucket never depends on how many other nodes exist.
        subset = resolve_cards(spec, CABLETRON, [0])
        assert subset[0] == first[0]

    def test_heterogeneous_network_wires_per_node_cards(self, active):
        scenario = active.with_channel(
            ChannelSpec(tech=(("short", 0.5),))
        )
        network = WirelessNetwork(scenario.config("DSR-ODPM", 2.0, 1))
        cards = {node.card.name for node in network.nodes.values()}
        assert len(cards) == 2  # base + short
        for node in network.nodes.values():
            assert node.phy.card is node.card
            assert node.card.max_range <= network.channel.max_range
        result = network.run()
        assert result.channel is not None
        assert result.channel["tech_nodes"] > 0

    def test_tech_mix_changes_outcomes_deterministically(self, active):
        scenario = active.with_channel(ChannelSpec(tech=(("sensor", 0.5),)))
        first = run_single(scenario, "DSR-ODPM", 2.0, seed=1)
        second = run_single(scenario, "DSR-ODPM", 2.0, seed=1)
        assert first.to_payload() == second.to_payload()
        reference = run_single(active, "DSR-ODPM", 2.0, seed=1)
        # Quarter-rate radios quadruple airtime: the runs must diverge.
        assert first.to_payload() != reference.to_payload()


class TestModelMechanics:
    """Direct unit checks of the delivery decisions."""

    def test_disc_always_delivers(self):
        model = DiscChannelModel()
        assert model.delivers(0, 1, 250.0, 250.0)
        assert model.reception_probability(251.0, 250.0) == 0.0

    def test_prob_edge_loss_rate_matches_parameter(self):
        """At d == reach, the empirical loss rate converges to ``loss``."""
        model = ProbChannelModel(loss=0.4, gamma=1.0)
        stub = _StubChannel(seed=7)
        model.bind(stub)
        drops = sum(
            0 if model.delivers(0, 1, 250.0, 250.0) else 1
            for _ in range(4000)
        )
        assert abs(drops / 4000 - 0.4) < 0.03

    def test_prob_draws_come_from_dedicated_streams(self):
        model = ProbChannelModel(loss=0.5, sigma=2.0)
        stub = _StubChannel(seed=3)
        model.bind(stub)
        model.delivers(4, 9, 100.0, 250.0)
        model.delivers(2, 9, 100.0, 250.0)
        assert set(stub.sim._rngs) == {"channel/9/4", "channel/9/2"}

    def test_prob_shadowing_perturbs_effective_distance(self):
        """With sigma > 0 some short links fail and some long links pass."""
        model = ProbChannelModel(loss=1.0, gamma=8.0, sigma=8.0)
        stub = _StubChannel(seed=11)
        model.bind(stub)
        outcomes = {
            model.delivers(0, 1, 200.0, 250.0) for _ in range(200)
        }
        assert outcomes == {True, False}

    def test_bind_resets_cached_streams(self):
        model = ProbChannelModel(loss=0.5)
        first = _StubChannel(seed=1)
        model.bind(first)
        model.delivers(0, 1, 100.0, 250.0)
        second = _StubChannel(seed=1)
        model.bind(second)
        assert model._rngs == {}

    def test_expected_loss_math(self):
        model = ProbChannelModel(loss=0.5, gamma=2.0)
        assert model.reception_probability(0.0, 250.0) == 1.0
        assert model.reception_probability(250.0, 250.0) == 0.5
        mid = model.reception_probability(125.0, 250.0)
        assert math.isclose(mid, 1.0 - 0.5 * 0.25)
