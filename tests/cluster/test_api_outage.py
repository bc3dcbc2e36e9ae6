"""API-server outages, watch-stream drops, and informer resync."""

from __future__ import annotations

import pytest

from repro.cluster.api import KubeApiServer
from repro.cluster.images import ContainerImage
from repro.cluster.informer import Informer
from repro.cluster.pod import Pod, PodSpec
from repro.cluster.resources import ResourceVector


@pytest.fixture
def api(engine):
    return KubeApiServer(engine)


def make_pod(name="p"):
    return Pod(name, PodSpec(ContainerImage("i", 1), ResourceVector(1, 1, 1)))


class TestResourceVersions:
    def test_every_write_bumps_the_kind_version(self, engine, api):
        v0 = api.kind_version("Pod")
        pod = make_pod("a")
        api.create(pod)
        api.mark_modified(pod)
        api.delete("Pod", "a")
        assert api.kind_version("Pod") == v0 + 3

    def test_objects_carry_their_stamped_version(self, engine, api):
        pod = make_pod("a")
        api.create(pod)
        v1 = pod.meta.resource_version
        api.mark_modified(pod)
        assert pod.meta.resource_version == v1 + 1


class TestOutage:
    def test_outage_drops_notifications_but_not_store_writes(self, engine, api):
        informer = Informer(api, "Pod")
        api.begin_outage()
        api.create(make_pod("a"))
        engine.run()
        assert informer.get("a") is None  # notification lost
        assert [o.name for o in api.list("Pod")] == ["a"]  # write persisted
        assert api.dropped_events == 1

    def test_outage_counters_and_idempotence(self, engine, api):
        api.begin_outage()
        api.begin_outage()
        assert api.counts.outages == 1
        assert not api.available
        api.end_outage()
        assert api.available

    def test_staleness_counts_missed_writes(self, engine, api):
        informer = Informer(api, "Pod")
        engine.run()
        api.begin_outage()
        api.create(make_pod("a"))
        api.create(make_pod("b"))
        engine.run()
        assert informer.staleness() == 2
        api.end_outage()
        api.create(make_pod("c"))
        engine.run()
        # The live event fast-forwarded last_version to the head.
        assert informer.staleness() == 0
        assert informer.get("a") is None  # still missing until a resync

    def test_resync_reconciles_cache_exactly_to_store(self, engine, api):
        informer = Informer(api, "Pod")
        kept = make_pod("kept")
        doomed = make_pod("doomed")
        api.create(kept)
        api.create(doomed)
        engine.run()
        api.begin_outage()
        api.mark_modified(kept)          # missed MODIFIED
        api.delete("Pod", "doomed")      # missed DELETED
        api.create(make_pod("late"))     # missed ADDED
        engine.run()
        api.end_outage()
        synthesized = informer.resync()
        assert synthesized == 3
        # Acceptance: the cache now equals the API store exactly.
        store = {o.name: o for o in api.list("Pod")}
        assert {n: o for n, o in informer.cache.items()} == store
        assert informer.staleness() == 0
        assert informer.resyncs == 1

    def test_resync_synthesizes_handler_events(self, engine, api):
        informer = Informer(api, "Pod")
        doomed = make_pod("doomed")
        api.create(doomed)
        engine.run()
        added, deleted = [], []
        informer.on_add(lambda o: added.append(o.name))
        informer.on_delete(lambda o: deleted.append(o.name))
        api.begin_outage()
        api.delete("Pod", "doomed")
        api.create(make_pod("late"))
        engine.run()
        api.end_outage()
        informer.resync()
        assert added == ["late"]
        assert deleted == ["doomed"]

    def test_resync_noop_while_api_down(self, engine, api):
        informer = Informer(api, "Pod")
        api.begin_outage()
        api.create(make_pod("a"))
        engine.run()
        assert informer.resync() == 0
        assert informer.get("a") is None

    def test_periodic_resync_heals_after_outage(self, engine, api):
        informer = Informer(api, "Pod", resync_period_s=10.0)
        api.begin_outage()
        api.create(make_pod("a"))
        engine.run(until=5.0)
        api.end_outage()
        engine.run(until=25.0)
        assert informer.get("a") is not None
        informer.close()

    def test_resync_is_idempotent(self, engine, api):
        informer = Informer(api, "Pod")
        api.begin_outage()
        api.create(make_pod("a"))
        engine.run()
        api.end_outage()
        assert informer.resync() == 1
        assert informer.resync() == 0  # nothing left to reconcile


class TestWatchDrop:
    def test_drop_window_loses_events_for_one_kind(self, engine, api):
        informer = Informer(api, "Pod")
        api.begin_watch_drop("Pod")
        api.create(make_pod("a"))
        engine.run()
        assert informer.get("a") is None
        assert api.dropped_events == 1
        api.end_watch_drop("Pod")
        api.create(make_pod("b"))
        engine.run()
        assert informer.get("b") is not None
        # A resync back-fills what the dropped stream missed.
        informer.resync()
        assert informer.get("a") is not None

    def test_end_watch_drop_none_clears_all_kinds(self, engine, api):
        api.begin_watch_drop("Pod")
        api.begin_watch_drop("Node")
        api.end_watch_drop()
        api.create(make_pod("a"))
        informer = Informer(api, "Pod")
        engine.run()
        assert informer.get("a") is not None
