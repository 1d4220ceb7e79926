"""Chaos suite: the full pipeline under seeded fault storms.

The headline invariants, asserted for every storm:

1. the campaign completes without an exception — a hostile network can
   degrade a round, never crash it;
2. the per-IP budgets survive: once per round, at most 3 probes and at
   most 2 GETs (§7);
3. rounds that blow the error budget are flagged ``degraded`` and the
   flag round-trips through the store;
4. every stored failure is attributed to a typed error class;
5. feature extraction never sees injected garbage as a valid page.

The quick acceptance test runs in tier-1; the full fault matrix is
behind ``-m chaos`` (see README: "running the chaos suite").
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.core.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    FaultyTransport,
    chaos_plan,
)
from repro.core.records import FetchStatus
from repro.core.transport import (
    BodyTruncated,
    ConnectionRefused,
    ConnectTimeout,
    ProtocolError,
    TransportError,
)
from repro.core.guard import StageDeadlineExceeded
from repro.workloads import Campaign, ec2_scenario
from repro.workloads.campaign import simulation_config

KNOWN_CLASSES = {
    TransportError.kind, ConnectTimeout.kind, ConnectionRefused.kind,
    ProtocolError.kind, BodyTruncated.kind, StageDeadlineExceeded.kind,
}


class GetCountingFaulty(FaultyTransport):
    """A ``FaultyTransport`` that also counts GETs per ``(round, IP)``,
    faulted or not."""

    def __init__(self, inner, plan):
        super().__init__(inner, plan)
        self.get_calls: Counter[tuple[int, int]] = Counter()

    async def get(self, ip, scheme, path, **kwargs):
        self.get_calls[(self.round_id, ip)] += 1
        return await super().get(ip, scheme, path, **kwargs)


def storm_campaign(
    *,
    plan: FaultPlan,
    total_ips: int = 256,
    rounds: int = 3,
    seed: int = 11,
    error_budget: float = 0.5,
):
    """Run a small simulated campaign behind a FaultyTransport."""
    scenario = ec2_scenario(
        total_ips=total_ips,
        seed=seed,
        duration_days=3 * rounds,
        malicious_embedders=0,
        malicious_hosters=0,
        linchpin_services=0,
        with_giants=False,
    )
    faulty = GetCountingFaulty(scenario.transport, plan)
    scenario.transport = faulty
    config = dataclasses.replace(
        simulation_config(), round_error_budget=error_budget)
    campaign = Campaign(scenario, config=config)
    result = campaign.run(scan_days=scenario.scan_days[:rounds])
    return result, faulty


def assert_chaos_invariants(result, faulty) -> None:
    """The invariants every fault storm must preserve."""
    store = result.store
    infos = store.rounds()
    assert len(infos) == len(result.summaries)

    # Per-IP budgets: once per round, at most 3 ports and 2 GETs
    # (robots.txt and the page), no retries.
    for (round_id, ip), calls in faulty.probe_calls.items():
        assert calls <= 3, (round_id, ip, calls)
    for (round_id, ip), calls in faulty.get_calls.items():
        assert calls <= 2, (round_id, ip, calls)

    for summary, info in zip(result.summaries, infos):
        # The degraded flag round-trips through the store.
        assert info.degraded == summary.degraded
        assert info.error_count == summary.errors
        records = list(store.records(info.round_id))
        ips = [record.ip for record in records]
        assert len(ips) == len(set(ips)), "duplicate IP within a round"
        for record in records:
            if record.fetch.status is FetchStatus.ERROR:
                # Failures are attributed to a typed error class...
                assert record.fetch.error_class in KNOWN_CLASSES
                # ...and injected garbage never reaches the features.
                assert record.fetch.body is None
                assert record.features is None
            else:
                assert record.fetch.error_class is None
            if record.probe.error_class is not None:
                assert record.probe.error_class in KNOWN_CLASSES


class TestAcceptance:
    """The ISSUE acceptance scenario — runs in tier-1."""

    def test_five_fault_classes_three_rounds(self):
        plan = chaos_plan(seed=42, rate=0.3, delay=0.0)
        result, faulty = storm_campaign(plan=plan, rounds=3)

        # The storm actually injected ≥ 5 distinct fault classes.
        fired = {kind for kind, count in faulty.injected.items() if count}
        assert len(fired) >= 5, fired

        assert_chaos_invariants(result, faulty)
        # ...with GETs to budget: responsive IPs were fetched.
        assert max(faulty.get_calls.values()) == 2

        # A 30%-per-kind storm overwhelms the 50% budget: every round
        # both completes and is flagged degraded, in summary and store.
        assert all(s.degraded for s in result.summaries)
        assert all(info.degraded for info in result.store.rounds())
        assert all(s.errors > 0 for s in result.summaries)

        # Stored records carry the typed attribution for ≥ 2 distinct
        # fetch-level classes (connection + response level faults).
        stored_classes = set()
        for info in result.store.rounds():
            for record in result.store.records(info.round_id):
                if record.fetch.error_class:
                    stored_classes.add(record.fetch.error_class)
        assert len(stored_classes) >= 2, stored_classes

    def test_clean_campaign_not_degraded(self):
        result, faulty = storm_campaign(plan=FaultPlan(seed=0), rounds=2)
        assert not any(s.degraded for s in result.summaries)
        assert sum(faulty.injected.values()) == 0
        assert_chaos_invariants(result, faulty)

    def test_round_scoped_storm_degrades_only_that_round(self):
        plan = chaos_plan(seed=5, rate=0.9, delay=0.0, rounds={2})
        result, faulty = storm_campaign(plan=plan, rounds=3)
        assert_chaos_invariants(result, faulty)
        degraded = [s.info.round_id for s in result.summaries if s.degraded]
        assert degraded == [2]

    def test_budget_of_one_never_degrades(self):
        plan = chaos_plan(seed=9, rate=0.9, delay=0.0)
        result, _ = storm_campaign(plan=plan, rounds=2, error_budget=1.0)
        assert not any(s.degraded for s in result.summaries)
        assert all(s.errors > 0 for s in result.summaries)


@pytest.mark.chaos
class TestFaultMatrix:
    """Dozens of seeded fault plans over full mini-campaigns."""

    @pytest.mark.parametrize("plan_seed", range(8))
    @pytest.mark.parametrize("rate", [0.15, 0.5, 0.9])
    def test_storm(self, plan_seed: int, rate: float):
        plan = chaos_plan(seed=plan_seed, rate=rate, delay=0.0)
        result, faulty = storm_campaign(
            plan=plan, total_ips=128, rounds=3, seed=23 + plan_seed
        )
        assert_chaos_invariants(result, faulty)
        assert sum(faulty.injected.values()) > 0

    @pytest.mark.parametrize("kind", list(FaultKind))
    def test_single_kind_storm(self, kind: FaultKind):
        """Each fault class alone: pipeline survives a pure storm."""
        plan = FaultPlan(seed=31, rules=(
            FaultRule(kind, probability=0.7, delay=0.0),
        ))
        result, faulty = storm_campaign(plan=plan, total_ips=128, rounds=2)
        assert_chaos_invariants(result, faulty)

    def test_total_blackout_still_completes(self):
        """100% connect timeouts: zero responsive IPs, three degraded
        rounds, no exception."""
        plan = FaultPlan(seed=1, rules=(
            FaultRule(FaultKind.CONNECT_TIMEOUT, probability=1.0),
        ))
        result, faulty = storm_campaign(plan=plan, total_ips=128, rounds=3)
        assert_chaos_invariants(result, faulty)
        assert all(s.responsive == 0 for s in result.summaries)
        assert all(s.degraded for s in result.summaries)

    def test_storm_database_loads_like_any_other(self):
        """A chaos-era database is a normal database: history lookups
        and per-round reads work on degraded rounds."""
        plan = chaos_plan(seed=3, rate=0.5, delay=0.0)
        result, _ = storm_campaign(plan=plan, total_ips=128, rounds=3)
        store = result.store
        seen = 0
        for info in store.rounds():
            for record in store.records(info.round_id):
                history = store.history(record.ip)
                assert history, record.ip
                seen += 1
                if seen >= 25:
                    return
