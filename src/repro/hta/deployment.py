"""Deploying the Work Queue master on the cluster (§V-A).

HTA "sets up the Work Queue framework on Kubernetes": the master runs in
a pod wrapped in a single-replica StatefulSet (sticky identity +
persistent volume for intermediate data), with two Services — a
LoadBalancer for Makeflow/HTA connecting from outside the cluster and a
ClusterIP for worker-pods inside it.

:class:`MasterDeployment` creates those objects and binds the
:class:`~repro.wq.master.Master` process to the pod's lifecycle:

* pod Running → ``master.resume()`` (queue state restored from the
  persistent volume; buffered worker completions delivered);
* pod killed (node crash, eviction) → ``master.pause()`` — dispatch
  stops and workers hold results until the StatefulSet controller's
  sticky replacement comes up.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.api import KubeApiServer, WatchEvent, WatchEventType
from repro.cluster.images import ContainerImage
from repro.cluster.objects import Service, StatefulSet
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.cluster.resources import ResourceVector
from repro.cluster.statefulset import StatefulSetController
from repro.sim.engine import Engine
from repro.wq.master import Master

#: Default resource request of the master pod (it mostly moves data).
DEFAULT_MASTER_REQUEST = ResourceVector(cores=1, memory_mb=4 * 1024, disk_mb=50 * 1024)


class MasterDeployment:
    """Hosts a Work Queue master in a StatefulSet on the cluster."""

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        master: Master,
        *,
        controller: Optional[StatefulSetController] = None,
        image: Optional[ContainerImage] = None,
        request: ResourceVector = DEFAULT_MASTER_REQUEST,
        port: int = 9123,
    ) -> None:
        self.engine = engine
        self.api = api
        self.master = master
        self.controller = (
            controller if controller is not None else StatefulSetController(engine, api)
        )
        self.image = image if image is not None else ContainerImage("wq-master", 300.0)
        self.restarts_observed = 0
        # The master is down until its pod starts.
        if master.available:
            master.pause()

        template = PodSpec(self.image, request, labels={"app": master.name})
        self.statefulset = StatefulSet(
            master.name,
            replicas=1,
            selector={"app": master.name},
            template=template,
            volume_gb=100.0,
        )
        api.create(self.statefulset)
        # "Dedicated services for HTA and worker-pods to access the
        # master pod from outside and inside of the cluster" (§V-A).
        self.external_service = Service(
            f"{master.name}-external",
            {"app": master.name},
            service_type="LoadBalancer",
            port=port,
        )
        self.internal_service = Service(
            f"{master.name}-internal",
            {"app": master.name},
            service_type="ClusterIP",
            port=port,
        )
        api.create(self.external_service)
        api.create(self.internal_service)
        api.watch("Pod", self._on_pod_event, replay_existing=True)

    def close(self) -> None:
        """Unsubscribe from the API server (end of an experiment run)."""
        self.api.unwatch("Pod", self._on_pod_event)

    def __enter__(self) -> "MasterDeployment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --------------------------------------------------------------- events
    def _on_pod_event(self, event: WatchEvent) -> None:
        pod = event.obj
        if not isinstance(pod, Pod):
            return
        if pod.meta.labels.get("statefulset") != self.statefulset.name:
            return
        if event.type is WatchEventType.DELETED:
            if not self.master.available:
                return
            self.master.pause()
            return
        if pod.phase is PodPhase.RUNNING and not self.master.available:
            if self.master.counts.outages > 0 or self.restarts_observed > 0:
                self.restarts_observed += 1
            self.master.resume()
        elif pod.phase.terminal and self.master.available:
            self.master.pause()

    # ---------------------------------------------------------------- reads
    @property
    def master_pod(self) -> Optional[Pod]:
        pods = self.controller.pods_of(self.statefulset)
        return pods[0] if pods else None

    def describe(self) -> dict:
        pod = self.master_pod
        return {
            "statefulset": self.statefulset.name,
            "pod": pod.name if pod else None,
            "phase": pod.phase.value if pod else None,
            "master_available": self.master.available,
            "outages": self.master.counts.outages,
        }
