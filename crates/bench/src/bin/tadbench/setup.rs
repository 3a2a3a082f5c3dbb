//! Set-up shared by the serving workloads: the city, the trained model,
//! the sequential reference scores, and the pinned-configuration serving
//! stacks at each depth of the ladder.
//!
//! Nothing here depends on `available_parallelism`: shard and event-worker
//! counts are pinned, and queue, session and backlog caps are sized so a
//! correct run bounces, sheds, pauses and evicts nothing.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use causaltad::{CausalTad, CausalTadConfig};
use tad_eval::cities::{xian_s, Scale};
use tad_metrics::MetricsSnapshot;
use tad_net::{NetConfig, NetServer};
use tad_router::{RouterConfig, RouterServer};
use tad_serve::FleetConfig;
use tad_trajsim::City;

use crate::oracle::Reference;
use crate::stream::Pool;

/// Model of the routed workloads: `CausalTadConfig::default()` widths
/// (hidden 48), four epochs.
pub fn routed_model() -> CausalTadConfig {
    CausalTadConfig { epochs: 4, ..CausalTadConfig::default() }
}

/// Model of `engine_wide_sat`: the serving-realistic widths of
/// `benches/fleet.rs` (embed 64 / hidden 256 / latent 32), two epochs.
pub fn wide_model() -> CausalTadConfig {
    CausalTadConfig {
        embed_dim: 64,
        hidden_dim: 256,
        latent_dim: 32,
        epochs: 2,
        ..CausalTadConfig::test_scale()
    }
}

/// Seconds each part of one set-up took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `generate_city` (network, preference field, all five splits).
    pub city_s: f64,
    /// `CausalTad::fit`.
    pub fit_s: f64,
    /// Sequential reference scoring of the pool.
    pub reference_s: f64,
    /// Starting the serving stack (binds, thread spawns, step cache).
    pub servers_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.city_s + self.fit_s + self.reference_s + self.servers_s
    }
}

/// Everything a serving workload replays and checks against.
pub struct World {
    /// The labelled trip pool of `xian_s(Scale::Quick)`.
    pub pool: Arc<Pool>,
    /// The trained model.
    pub model: Arc<CausalTad>,
    /// Sequential reference scores of the pool under `model`.
    pub reference: Arc<Reference>,
    /// Loss of the last training epoch.
    pub final_loss: f64,
    /// How long each part took (`servers_s` still zero).
    pub times: SetupTimes,
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

impl World {
    /// Generates `xian_s(Scale::Quick)`, trains `cfg` on its training
    /// split, and scores the pool sequentially.
    pub fn build(cfg: CausalTadConfig) -> World {
        let (city_s, city) = timed(|| tad_trajsim::generate_city(&xian_s(Scale::Quick)));
        let mut world = World::from_city(&city, cfg);
        world.times.city_s = city_s;
        world
    }

    /// Trains `cfg` on `city`'s training split and scores its pool.
    pub fn from_city(city: &City, cfg: CausalTadConfig) -> World {
        let pool = Arc::new(Pool::from_city(city));
        let mut model = CausalTad::new(&city.net, cfg);
        let (fit_s, report) = timed(|| model.fit(&city.data.train));
        let (reference_s, reference) = timed(|| Reference::compute(&model, &pool));
        World {
            pool,
            model: Arc::new(model),
            reference: Arc::new(reference),
            final_loss: report.final_loss(),
            times: SetupTimes { city_s: 0.0, fit_s, reference_s, servers_s: 0.0 },
        }
    }
}

/// Fleet-engine configuration with a pinned shard count and caps far
/// above anything a workload reaches.
pub fn fleet_config(num_shards: usize) -> FleetConfig {
    FleetConfig {
        num_shards,
        queue_capacity: 65_536,
        session_ttl: Duration::from_secs(3_600),
        max_sessions_per_shard: 1 << 17,
        ..FleetConfig::default()
    }
}

fn net_config() -> NetConfig {
    NetConfig {
        event_workers: 1,
        // A closed-loop producer reads nothing until its round is written,
        // so a whole round of replies may queue behind its socket.
        write_highwater: 64 << 20,
        ..NetConfig::default()
    }
}

/// How much of the serving stack a run goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    /// L3: `RouterServer` over two one-shard `NetServer` backends.
    Router,
    /// L2: one two-shard `NetServer`, producers connect to it directly.
    Net,
}

/// A running serving stack at one [`Depth`].
pub struct Cluster {
    router: Option<RouterServer>,
    backends: Vec<NetServer>,
}

/// Counters that must all be zero for a run to count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Invalidating {
    /// `Backpressure` replies (events bounced off a full shard queue).
    pub backpressure_replies: u64,
    /// Responses dropped by a backend or the router.
    pub responses_dropped: u64,
    /// Slow-consumer read pauses.
    pub slow_consumer_pauses: u64,
    /// Sessions evicted by TTL or LRU.
    pub evictions: u64,
    /// `Throttled` replies and admission sheds.
    pub throttled: u64,
}

impl Invalidating {
    /// Whether every counter is zero.
    pub fn is_clean(&self) -> bool {
        *self == Invalidating::default()
    }
}

impl Cluster {
    /// Starts the stack on loopback ephemeral ports.
    pub fn start(model: &Arc<CausalTad>, depth: Depth) -> Cluster {
        let (backends, shards) = match depth {
            Depth::Router => (2, 1),
            Depth::Net => (1, 2),
        };
        let backends: Vec<NetServer> = (0..backends)
            .map(|_| {
                NetServer::builder(Arc::clone(model))
                    .fleet_config(fleet_config(shards))
                    .net_config(net_config())
                    .bind("127.0.0.1:0")
                    .expect("bind backend")
            })
            .collect();
        let router = (depth == Depth::Router).then(|| {
            RouterServer::builder()
                .backends(backends.iter().map(|b| b.local_addr()))
                .config(RouterConfig::default())
                .bind("127.0.0.1:0")
                .expect("bind router")
        });
        Cluster { router, backends }
    }

    /// The address producers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.router.as_ref().map_or_else(|| self.backends[0].local_addr(), |r| r.local_addr())
    }

    /// The router, when the stack has one.
    pub fn router(&self) -> Option<&RouterServer> {
        self.router.as_ref()
    }

    /// The backends' `serve.*` and `net.*` series, merged.
    pub fn backend_metrics(&self) -> MetricsSnapshot {
        let parts: Vec<MetricsSnapshot> = self.backends.iter().map(|b| b.metrics()).collect();
        MetricsSnapshot::merged(&parts)
    }

    /// The router's own `router.*` series.
    pub fn router_metrics(&self) -> Option<MetricsSnapshot> {
        self.router.as_ref().map(|r| r.metrics())
    }

    /// The counters that invalidate a run, summed over the stack.
    pub fn invalidating(&self) -> Invalidating {
        let mut inv = Invalidating::default();
        for b in &self.backends {
            let net = b.net_stats();
            let fleet = b.stats();
            inv.backpressure_replies += net.backpressure_replies;
            inv.responses_dropped += net.responses_dropped;
            inv.slow_consumer_pauses += net.slow_consumer_pauses;
            inv.throttled += net.throttled_replies;
            inv.evictions += fleet.evictions_ttl + fleet.evictions_lru;
        }
        if let Some(r) = &self.router {
            inv.responses_dropped += r.stats().responses_dropped;
        }
        inv
    }

    /// Stops the router, then the backends, joining every thread.
    pub fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for b in self.backends {
            b.shutdown();
        }
    }
}
