"""Simulated cluster resources and batch scheduler.

The paper runs on Jean-Zay with Slurm: a CPU partition for the solver clients
and a GPU partition for the training server, plus a "schedule-in-schedule"
mode where a large allocation is requested once and client jobs are packed
into it.  This package models those mechanisms with a virtual clock so that
scheduling phenomena (client series, server idleness while waiting for
resources, elasticity) can be reproduced deterministically on one node.
"""

from repro.cluster.resources import ClusterSpec, NodeSpec, Partition
from repro.cluster.job import Job, JobState
from repro.cluster.scheduler import AllocationPolicy, BatchScheduler

__all__ = [
    "NodeSpec",
    "Partition",
    "ClusterSpec",
    "Job",
    "JobState",
    "BatchScheduler",
    "AllocationPolicy",
]
