"""Sharded deployments: Theorem 3 promoted to the architecture.

A :class:`~repro.shard.keymap.Keymap` partitions the keyspace across N
independent :class:`~repro.engine.kv.KVDatabase` shards — per-shard
WALs, per-shard group-commit pipelines, per-shard restart — with a
``DEPLOY.json`` manifest making the deployment root
self-describing.  See :mod:`repro.shard.sharded` for the argument.
"""

from repro.shard.keymap import Keymap, ShardRoutingError
from repro.shard.sharded import (
    MANIFEST_NAME,
    DeploymentError,
    ShardedDatabase,
    ShardedSession,
    is_deployment_root,
    log_directories,
    read_manifest,
    shard_dirname,
)

__all__ = [
    "MANIFEST_NAME",
    "DeploymentError",
    "Keymap",
    "ShardRoutingError",
    "ShardedDatabase",
    "ShardedSession",
    "is_deployment_root",
    "log_directories",
    "read_manifest",
    "shard_dirname",
]
