//! The sharded attack sweep: the §6 misuse model driven over shard
//! worlds, rolled into the Table-3-style [`AttackMatrix`] of per-component
//! amplification factors.
//!
//! Built on [`inetgen::run_sharded`] like the census and campaign sweeps.
//! Per shard world:
//!
//! 1. the sensors are deployed ([`install_sensors`]) and a
//!    [`VictimMeter`] is installed on the victim fixture; the attacker
//!    then replaces sensor 3 on the sensor network's third node — the one
//!    SAV-free fixture replicated identically into every shard world, so
//!    the attack plan structure is partition-invariant. (The
//!    exterior-forwarder sensor therefore sits out of this experiment: its
//!    node *is* the attacker box.)
//! 2. nine reflection passes — each [`AttackVector`] through each planted
//!    [`OdnsClass`] partition of the shard — fire spoofed-source queries
//!    with the victim's address, one pass per [`CAMPAIGN_EPOCH`] of
//!    simulated time. Every pass owns a distinct reply port, so the bytes
//!    converging on the victim attribute themselves per pass.
//! 3. the designated [`SENSOR_SHARD`] additionally floods the sensor
//!    addresses spoofing the same victim — the [`PrefixRateLimiter`]
//!    efficacy probe (the paper's sensors answer once per 5 minutes per
//!    source /24 precisely to be useless as amplifiers).
//!
//! Cells store only integer byte/packet counters and ordered source sets,
//! merged by summing and union — so the merged matrix is `Eq` and
//! bit-identical however many shards ran, and amplification *factors*
//! exist only in the renderer.
//!
//! [`PrefixRateLimiter`]: odns::PrefixRateLimiter

use crate::campaign_sweep::{install_sensors, CAMPAIGN_EPOCH, SENSOR_SHARD};
use crate::table::TextTable;
use inetgen::{Internet, PlantedClass, ShardSpec, ShardedRun, Worlds};
use scanner::{run_reflections, AttackVector, ReflectionPlan, VictimMeter, VictimTally};
use scanner::{HoneypotSensor, OdnsClass};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Base reply port: reflection pass `p` spoofs source port
/// `REFLECTION_BASE_PORT + p`, so the victim's per-port ledger separates
/// the passes.
const REFLECTION_BASE_PORT: u16 = 40_000;

/// Reply port of the sensor-flood pass.
const FLOOD_PORT: u16 = 40_100;

/// How many times the flood cycles the sensor address list. All cycles
/// land inside one 5-minute limiter window, so each sensor instance
/// answers exactly once per source /24 and sheds the rest.
const FLOOD_REPEATS: u32 = 25;

/// The matrix row/column grid: every vector through every component
/// class, in pass order (pass index = position in this list).
fn matrix_grid() -> Vec<(AttackVector, OdnsClass)> {
    let mut grid = Vec::with_capacity(9);
    for vector in AttackVector::all() {
        for class in OdnsClass::all() {
            grid.push((vector, class));
        }
    }
    grid
}

/// Which matrix column a planted host feeds, if any. Manipulated
/// forwarders are excluded: the strict census discards them, so the
/// matrix reports the three classes of Table 2.
fn matrix_class(class: PlantedClass) -> Option<OdnsClass> {
    match class {
        PlantedClass::TransparentForwarder => Some(OdnsClass::TransparentForwarder),
        PlantedClass::RecursiveForwarder => Some(OdnsClass::RecursiveForwarder),
        PlantedClass::RecursiveResolver => Some(OdnsClass::RecursiveResolver),
        PlantedClass::ManipulatedForwarder => None,
    }
}

/// One matrix cell: what a vector spent against a component class and
/// what the victim received for it. Integers and ordered sets only — the
/// amplification *factor* is derived in the renderer, keeping the cell
/// `Eq` and the shard merge exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AmpCell {
    /// Spoofed queries the attacker sent.
    pub queries: u64,
    /// Query bytes the attacker spent.
    pub bytes_sent: u64,
    /// Response datagrams that converged on the victim.
    pub responses: u64,
    /// Response bytes that converged on the victim.
    pub bytes_at_victim: u64,
    /// Distinct addresses the victim traffic arrived from — resolver
    /// addresses for transparent-forwarder passes (the diffusers stay
    /// invisible at the victim too), the components themselves otherwise.
    pub sources: std::collections::BTreeSet<Ipv4Addr>,
}

impl AmpCell {
    /// Merge another shard's cell: counters sum, sources union.
    pub fn absorb(&mut self, other: &AmpCell) {
        self.queries += other.queries;
        self.bytes_sent += other.bytes_sent;
        self.responses += other.responses;
        self.bytes_at_victim += other.bytes_at_victim;
        self.sources.extend(other.sources.iter().copied());
    }

    /// Bytes at victim per byte spent — §6's bandwidth amplification
    /// factor. Rendering only; never stored or compared.
    // detlint::allow(needless-pub): tests/amplification_misuse.rs asserts §6's factor per cell through it
    pub fn amplification(&self) -> f64 {
        if self.bytes_sent == 0 {
            0.0
        } else {
            self.bytes_at_victim as f64 / self.bytes_sent as f64
        }
    }
}

/// Sensor efficacy under the flood: what arrived, what the 5-minute /24
/// limiters shed, and what leaked through to the victim.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SensorEfficacy {
    /// Flood queries that reached sensors 1 and 2.
    pub queries: u64,
    /// Queries shed by the limiters.
    pub rate_limited: u64,
    /// Answers the sensors delivered (to the spoofed victim).
    pub answered: u64,
    /// Queries the flood cost the attacker.
    pub attack_queries: u64,
    /// Bytes the flood cost the attacker.
    pub attack_bytes: u64,
    /// What the victim actually received on the flood's reply port.
    pub victim: VictimTally,
}

impl SensorEfficacy {
    /// Merge another shard's contribution (zero everywhere except the
    /// designated sensor shard).
    pub fn absorb(&mut self, other: &SensorEfficacy) {
        self.queries += other.queries;
        self.rate_limited += other.rate_limited;
        self.answered += other.answered;
        self.attack_queries += other.attack_queries;
        self.attack_bytes += other.attack_bytes;
        self.victim.absorb(&other.victim);
    }

    /// Fraction of flood queries the limiters shed. Rendering only.
    pub fn shed_fraction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.rate_limited as f64 / self.queries as f64
        }
    }
}

/// The Table-3-style result of the attack sweep: per (vector, component
/// class) amplification cells plus the sensor-efficacy row. Bit-identical
/// for any shard count over the same configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttackMatrix {
    /// One cell per grid entry; `BTreeMap` so iteration, `Eq`, and the
    /// renderer are all deterministic.
    pub cells: BTreeMap<(AttackVector, OdnsClass), AmpCell>,
    /// The rate-limiter efficacy measurement.
    pub sensors: SensorEfficacy,
}

impl AttackMatrix {
    /// The cell for one vector/class pair.
    pub fn cell(&self, vector: AttackVector, class: OdnsClass) -> Option<&AmpCell> {
        self.cells.get(&(vector, class))
    }

    /// Render the amplification table plus the sensor row.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new([
            "Vector",
            "Component",
            "Queries",
            "Bytes sent",
            "Responses",
            "Bytes at victim",
            "Amp",
        ]);
        for ((vector, class), cell) in &self.cells {
            t.row([
                vector.name().to_string(),
                class.name().to_string(),
                cell.queries.to_string(),
                cell.bytes_sent.to_string(),
                cell.responses.to_string(),
                cell.bytes_at_victim.to_string(),
                format!("{:.2}", cell.amplification()),
            ]);
        }
        let s = &self.sensors;
        t.row([
            "flood".to_string(),
            "Sensors 1+2".to_string(),
            s.attack_queries.to_string(),
            s.attack_bytes.to_string(),
            s.victim.packets.to_string(),
            s.victim.bytes.to_string(),
            format!(
                "{:.2} (shed {:.0}%)",
                {
                    if s.attack_bytes == 0 {
                        0.0
                    } else {
                        s.victim.bytes as f64 / s.attack_bytes as f64
                    }
                },
                s.shed_fraction() * 100.0
            ),
        ]);
        t
    }
}

/// One shard's contribution, before the deterministic merge.
struct ShardAttackOutput {
    cells: Vec<((AttackVector, OdnsClass), AmpCell)>,
    sensors: SensorEfficacy,
}

fn shard_attack_pass(spec: ShardSpec, world: &mut Internet) -> ShardAttackOutput {
    let addrs = world.fixtures.sensor_addrs;
    let victim_ip = world.fixtures.victim_ip;

    // The attacker replaces sensor 3 when the passes run (see the module
    // docs).
    install_sensors(world);
    world.sim.install(world.fixtures.victim, VictimMeter::new());

    // Per-class diffuser lists from this shard's ground truth, in address
    // order so the pass structure is a pure function of the partition.
    let mut by_class: BTreeMap<OdnsClass, Vec<Ipv4Addr>> = BTreeMap::new();
    for host in &world.truth.hosts {
        if let Some(class) = matrix_class(host.class) {
            by_class.entry(class).or_default().push(host.ip);
        }
    }
    for targets in by_class.values_mut() {
        targets.sort_unstable();
    }

    let grid = matrix_grid();
    let mut plans: Vec<ReflectionPlan> = grid
        .iter()
        .enumerate()
        .map(|(p, (vector, class))| ReflectionPlan {
            start_after: CAMPAIGN_EPOCH.saturating_mul(p as u64),
            ..ReflectionPlan::new(
                *vector,
                by_class.get(class).cloned().unwrap_or_default(),
                victim_ip,
                REFLECTION_BASE_PORT + p as u16,
            )
        })
        .collect();

    // The limiter-efficacy flood runs in exactly one shard: each shard's
    // sensor instances keep their own per-/24 limiters, so flooding them
    // everywhere would grant the victim /24 one answer budget per shard
    // and make the merged counters scale with the shard count.
    let flood = spec.index == SENSOR_SHARD;
    if flood {
        plans.push(ReflectionPlan {
            start_after: CAMPAIGN_EPOCH.saturating_mul(grid.len() as u64),
            ..ReflectionPlan::flood(
                AttackVector::Any,
                &[addrs.ip1, addrs.ip2, addrs.ip3],
                FLOOD_REPEATS,
                victim_ip,
                FLOOD_PORT,
            )
        });
    }

    let spends = run_reflections(&mut world.sim, world.fixtures.sensor3, plans);

    let meter: &VictimMeter = world
        .sim
        .host_as(world.fixtures.victim)
        .expect("victim meter installed");
    let cells = grid
        .into_iter()
        .enumerate()
        .map(|(p, key)| {
            let tally = meter.tally(REFLECTION_BASE_PORT + p as u16);
            let cell = AmpCell {
                queries: spends[p].queries,
                bytes_sent: spends[p].bytes,
                responses: tally.packets,
                bytes_at_victim: tally.bytes,
                sources: tally.sources,
            };
            (key, cell)
        })
        .collect();

    let sensors = if flood {
        let stats = |node| {
            world
                .sim
                .host_as::<HoneypotSensor>(node)
                .expect("sensor installed")
                .stats()
        };
        let s1 = stats(world.fixtures.sensor1);
        let s2 = stats(world.fixtures.sensor2);
        let spend = spends.last().expect("flood plan ran");
        SensorEfficacy {
            queries: s1.queries + s2.queries,
            rate_limited: s1.rate_limited + s2.rate_limited,
            answered: s1.answered + s2.answered,
            attack_queries: spend.queries,
            attack_bytes: spend.bytes,
            victim: meter.tally(FLOOD_PORT),
        }
    } else {
        SensorEfficacy::default()
    };

    ShardAttackOutput { cells, sensors }
}

/// Run the §6 attack experiment sharded `shards` ways and merge into the
/// [`AttackMatrix`] — invariant in the shard count. `worlds` is a
/// `&GenConfig` or a `&mut ShardWorldCache` ([`inetgen::Worlds`]),
/// bit-identical either way: a cached world's reset uninstalls the
/// attacker, meter, and sensors along with all other host state.
pub fn run_attacks_sharded<'a>(worlds: impl Into<Worlds<'a>>, shards: u32) -> AttackMatrix {
    merge_attack_outputs(inetgen::run_sharded(worlds, shards, shard_attack_pass))
}

/// The deterministic merge: cells fold per grid key in ascending shard
/// order, the sensor row sums.
fn merge_attack_outputs(run: ShardedRun<ShardAttackOutput>) -> AttackMatrix {
    let mut matrix = AttackMatrix::default();
    for output in run.outputs {
        for (key, cell) in output.cells {
            matrix.cells.entry(key).or_default().absorb(&cell);
        }
        matrix.sensors.absorb(&output.sensors);
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_vector_class_pair_in_pass_order() {
        let grid = matrix_grid();
        assert_eq!(grid.len(), 9);
        assert_eq!(grid[0], (AttackVector::Any, OdnsClass::RecursiveResolver));
        assert_eq!(
            grid[8],
            (AttackVector::EdnsAny, OdnsClass::TransparentForwarder)
        );
        let mut uniq = grid.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 9);
    }

    #[test]
    fn manipulated_forwarders_sit_out_of_the_matrix() {
        assert_eq!(matrix_class(PlantedClass::ManipulatedForwarder), None);
        assert_eq!(
            matrix_class(PlantedClass::TransparentForwarder),
            Some(OdnsClass::TransparentForwarder)
        );
    }

    #[test]
    fn cell_absorb_sums_and_unions() {
        let a_src = Ipv4Addr::new(198, 51, 100, 1);
        let b_src = Ipv4Addr::new(198, 51, 100, 2);
        let mut a = AmpCell {
            queries: 2,
            bytes_sent: 60,
            responses: 2,
            bytes_at_victim: 200,
            sources: [a_src].into_iter().collect(),
        };
        let b = AmpCell {
            queries: 1,
            bytes_sent: 30,
            responses: 1,
            bytes_at_victim: 90,
            sources: [a_src, b_src].into_iter().collect(),
        };
        a.absorb(&b);
        assert_eq!(a.queries, 3);
        assert_eq!(a.bytes_sent, 90);
        assert_eq!(a.bytes_at_victim, 290);
        assert_eq!(a.sources.len(), 2, "shared reflector collapses");
        assert!((a.amplification() - 290.0 / 90.0).abs() < 1e-12);
        assert_eq!(AmpCell::default().amplification(), 0.0);
    }

    #[test]
    fn matrix_renders_cells_and_sensor_row() {
        let mut m = AttackMatrix::default();
        m.cells.insert(
            (AttackVector::Any, OdnsClass::TransparentForwarder),
            AmpCell {
                queries: 10,
                bytes_sent: 300,
                responses: 10,
                bytes_at_victim: 1200,
                sources: Default::default(),
            },
        );
        m.sensors = SensorEfficacy {
            queries: 75,
            rate_limited: 73,
            answered: 2,
            attack_queries: 75,
            attack_bytes: 2250,
            victim: VictimTally::default(),
        };
        let rendered = m.render().render();
        assert!(rendered.contains("ANY"));
        assert!(rendered.contains("4.00"), "amplification factor rendered");
        assert!(rendered.contains("shed 97%"), "limiter efficacy rendered");
        assert!((m.sensors.shed_fraction() - 73.0 / 75.0).abs() < 1e-12);
    }
}
