"""Simulated Kubernetes substrate: resources, objects, etcd, API server,
nodes, and a pod scheduler.

The paper deploys Couler on a production Kubernetes cluster; this package
is the laptop-scale stand-in.  It preserves the behaviours the paper's
algorithms depend on: CRD size limits (Algorithm 3's trigger), resource-
bounded pod scheduling (utilization figures), etcd quota / API-server
overload errors (the failure handler's retry patterns), and watch-event
delivery (the workflow operator's reconcile loop).
"""

from .apiserver import (
    APIServer,
    APIServerError,
    AlreadyExistsError,
    CRDTooLargeError,
    EventType,
    NotFoundError,
    TooManyRequestsErr,
    WatchEvent,
    DEFAULT_CRD_SIZE_LIMIT,
)
from .cluster import Cluster, Node, Scheduler, SchedulingError
from .etcd import EtcdStore, ExceededQuotaErr, KeyNotFoundError, RevisionConflictError
from .objects import (
    APIObject,
    ObjectMeta,
    Pod,
    PodPhase,
    crd_yaml_size,
    make_crd,
    manifest_yaml,
)
from .resources import ResourceQuantity, ResourceError, parse_cpu, parse_memory

__all__ = [
    "APIServer",
    "APIServerError",
    "APIObject",
    "AlreadyExistsError",
    "CRDTooLargeError",
    "Cluster",
    "DEFAULT_CRD_SIZE_LIMIT",
    "EtcdStore",
    "EventType",
    "ExceededQuotaErr",
    "KeyNotFoundError",
    "Node",
    "NotFoundError",
    "ObjectMeta",
    "Pod",
    "PodPhase",
    "ResourceError",
    "ResourceQuantity",
    "RevisionConflictError",
    "Scheduler",
    "SchedulingError",
    "TooManyRequestsErr",
    "WatchEvent",
    "crd_yaml_size",
    "make_crd",
    "manifest_yaml",
    "parse_cpu",
    "parse_memory",
]
