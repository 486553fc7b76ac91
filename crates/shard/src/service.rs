//! The sharded concurrent front-end: one combining-commit service per shard,
//! with cross-shard submit routing.
//!
//! Combines the two orthogonal scaling levers this crate and `onll` provide:
//!
//! * **Sharding** multiplies fence *bandwidth* — N independent pools drain N
//!   persist stalls in parallel;
//! * **Combining** ([`onll::DurableService`]) divides fence *count* — each
//!   shard's live clients share single fences.
//!
//! A [`ShardedService`] owns one [`DurableService`] per shard (one combiner
//! election per shard, so distinct shards commit concurrently), and a
//! [`ShardedServiceClient`] owns one client slot on every shard, routing each
//! submitted update to its key's shard. Identities are per shard: an [`OpId`]
//! returned by a submit is meaningful to the shard that served it (which
//! [`ShardedServiceClient::submit_routed`] reports, and
//! [`ShardedService::resolve_on`] takes explicitly).
//!
//! Reads go through each shard's published snapshot only. Keyed reads are
//! linearizable (each shard is one object whose service owns its updates);
//! broadcast reads merge per-shard snapshots loaded one after another, so
//! they are not a cut across shards.

use crate::router::ShardRouter;
use crate::sharded::ShardedDurable;
use onll::{DurableService, KeyedSpec, OnllError, OpId, ResolveOutcome, ServiceClient};
use std::sync::Arc;

/// A combining-commit session layer over every shard of a
/// [`ShardedDurable`] — see the `service` module documentation.
///
/// Cloning is cheap; clones refer to the same per-shard services.
pub struct ShardedService<S: KeyedSpec> {
    services: Arc<Vec<DurableService<S>>>,
    router: Arc<dyn ShardRouter<S::Key>>,
}

impl<S: KeyedSpec> Clone for ShardedService<S> {
    fn clone(&self) -> Self {
        ShardedService {
            services: self.services.clone(),
            router: self.router.clone(),
        }
    }
}

impl<S: KeyedSpec + Clone> ShardedDurable<S> {
    /// Opens a combining-commit service over every shard, each sized for up to
    /// `clients` concurrent client threads. Claims one process slot per shard
    /// for that shard's combiner; each [`ShardedService::client`] claims one
    /// more on every shard — size `max_processes >= clients + 1` (plus any
    /// plain handles registered besides the service). While the service is
    /// open it owns every shard's updates (see [`onll::Durable::service`]).
    pub fn service(&self, clients: usize) -> Result<ShardedService<S>, OnllError> {
        let services = (0..self.num_shards())
            .map(|i| self.shard(i).service(clients))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedService {
            services: Arc::new(services),
            router: self.router().clone(),
        })
    }
}

impl<S: KeyedSpec> ShardedService<S> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.services.len()
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: &S::Key) -> usize {
        self.router.route(key)
    }

    /// The per-shard combining service of shard `index`.
    pub fn shard_service(&self, index: usize) -> &DurableService<S> {
        &self.services[index]
    }

    /// Claims a client slot on **every** shard and returns the routing client.
    /// Fails if any shard's slots are exhausted.
    pub fn client(&self) -> Result<ShardedServiceClient<S>, OnllError> {
        let clients = self
            .services
            .iter()
            .map(|s| s.client())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedServiceClient {
            clients,
            router: self.router.clone(),
        })
    }

    /// Runs one combining pass on every shard from the calling thread and
    /// returns the total operations served (0 when nothing is pending).
    pub fn combine_now(&self) -> usize {
        self.services.iter().map(|s| s.combine_now()).sum()
    }

    /// Claims client slot `index` on **every** shard — the deterministic
    /// variant of [`ShardedService::client`] (see
    /// [`DurableService::client_for`]): across a restart, a reconnecting
    /// session that re-claims the same index resumes the same per-shard
    /// [`OpId`] identity spaces, which is what lets it replay
    /// unacknowledged operations exactly once.
    pub fn client_for(&self, index: usize) -> Result<ShardedServiceClient<S>, OnllError> {
        let clients = self
            .services
            .iter()
            .map(|s| s.client_for(index))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedServiceClient {
            clients,
            router: self.router.clone(),
        })
    }

    /// Exactly-once reply retrieval on a specific shard — identities are per
    /// shard, so the caller names the shard that served the operation (as
    /// returned by [`ShardedServiceClient::submit_routed`], or recomputed from
    /// the key via [`ShardedService::shard_of`]). The typed outcome
    /// distinguishes "never executed — safe to re-submit" from "compacted
    /// below a checkpoint floor — re-submitting could double-apply"; see
    /// [`onll::Durable::resolve`].
    pub fn resolve_on(&self, shard: usize, op_id: OpId) -> ResolveOutcome<S::Value> {
        self.services[shard].resolve(op_id)
    }

    /// Reads through the shards' published snapshots: no lock, no
    /// persistent fence, no wait for a writer. A **keyed** read goes to the
    /// owning shard's snapshot ([`DurableService::read_snapshot`]) and is
    /// linearizable. A **broadcast** read (`read_key(op) == None`) merges
    /// every shard's snapshot, loaded one after another, so it is *not* a
    /// consistent cut: shard `i`'s answer can predate updates that shard
    /// `j > i`'s answer already includes. There is no single linearization
    /// point across independent objects (updates spanning shards don't exist;
    /// cross-shard order is undefined). What *is* guaranteed: each per-shard
    /// answer includes every operation acknowledged before the read began.
    pub fn read_snapshot(&self, op: &S::ReadOp) -> S::Value {
        match S::read_key(op) {
            Some(key) => self.services[self.router.route(&key)].read_snapshot(op),
            None => {
                let answers = self.services.iter().map(|s| s.read_snapshot(op)).collect();
                S::merge_reads(op, answers)
            }
        }
    }

    /// Reads served so far, summed over all shards — see
    /// [`DurableService::snapshot_reads`].
    pub fn snapshot_reads(&self) -> u64 {
        self.services.iter().map(|s| s.snapshot_reads()).sum()
    }

    /// Summed `(batches, operations)` over all shards — the aggregate
    /// amortization factor (see [`DurableService::batch_stats`]).
    pub fn batch_stats(&self) -> (u64, u64) {
        self.services
            .iter()
            .map(|s| s.batch_stats())
            .fold((0, 0), |(b, o), (sb, so)| (b + sb, o + so))
    }
}

impl<S: KeyedSpec> std::fmt::Debug for ShardedService<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.num_shards())
            .finish()
    }
}

/// A per-thread client spanning every shard of a [`ShardedService`]: each
/// submitted update is routed to its key's shard and combined there with
/// other clients' operations for that shard.
pub struct ShardedServiceClient<S: KeyedSpec> {
    clients: Vec<ServiceClient<S>>,
    router: Arc<dyn ShardRouter<S::Key>>,
}

impl<S: KeyedSpec> ShardedServiceClient<S> {
    /// Submits an update to its key's shard, blocking until it is durable and
    /// linearized there. Returns the value and the per-shard [`OpId`].
    pub fn submit(&mut self, op: S::UpdateOp) -> Result<(S::Value, OpId), OnllError> {
        self.submit_routed(op)
            .map(|(value, _, op_id)| (value, op_id))
    }

    /// Like [`ShardedServiceClient::submit`], additionally reporting the shard
    /// that served the operation — the shard to hand back to
    /// [`ShardedService::resolve_on`] for post-crash reply retrieval.
    pub fn submit_routed(&mut self, op: S::UpdateOp) -> Result<(S::Value, usize, OpId), OnllError> {
        let shard = self.router.route(&S::update_key(&op));
        let (value, op_id) = self.clients[shard].submit(op)?;
        Ok((value, shard, op_id))
    }

    /// The per-shard client for `shard` (e.g. for `submit_async`-style use).
    pub fn shard_client(&mut self, shard: usize) -> &mut ServiceClient<S> {
        &mut self.clients[shard]
    }

    /// Replays an update under a **caller-supplied** per-shard identity on its
    /// key's shard — the routed variant of [`ServiceClient::submit_with_id`].
    /// The shard is recomputed from the operation's key, so a retry after a
    /// crash lands on the same shard the identity was minted for (routing is
    /// deterministic). The caller must have observed
    /// [`ResolveOutcome::Unknown`] for `op_id` on that shard first.
    pub fn submit_routed_with_id(
        &mut self,
        op_id: OpId,
        op: S::UpdateOp,
    ) -> Result<(S::Value, usize, OpId), OnllError> {
        let shard = self.router.route(&S::update_key(&op));
        let (value, op_id) = self.clients[shard].submit_with_id(op_id, op)?;
        Ok((value, shard, op_id))
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: &S::Key) -> usize {
        self.router.route(key)
    }

    /// Reads through this client's reserved per-shard hazard slots —
    /// semantics per [`ShardedService::read_snapshot`].
    pub fn read_snapshot(&mut self, op: &S::ReadOp) -> S::Value {
        match S::read_key(op) {
            Some(key) => self.clients[self.router.route(&key)].read_snapshot(op),
            None => {
                let answers = self
                    .clients
                    .iter_mut()
                    .map(|c| c.read_snapshot(op))
                    .collect();
                S::merge_reads(op, answers)
            }
        }
    }
}

impl<S: KeyedSpec> std::fmt::Debug for ShardedServiceClient<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServiceClient")
            .field("shards", &self.clients.len())
            .finish()
    }
}
