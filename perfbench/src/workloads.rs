//! The three workloads and their seeded inputs. README.md records why
//! each one exists and which layers it stresses.

use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig};
use ctk_crowd::GroundTruth;
use ctk_datagen::{generate, scenarios, DatasetSpec};
use ctk_prob::{ScoreDist, UncertainTable};
use ctk_rank::RankList;
use ctk_service::SessionSpec;
use ctk_tpo::build::{Engine, McConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 256 clients in a closed loop over one shared n=8 table.
    TenantStream,
    /// 4 clients in a closed loop on the paper's Fig. 1 instance.
    PaperDeep,
    /// Hundreds of tenants due at once, each on its own table.
    ColdBurst,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TenantStream,
        Workload::PaperDeep,
        Workload::ColdBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantStream => "tenant_stream",
            Workload::PaperDeep => "paper_deep",
            Workload::ColdBurst => "cold_burst",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One session a client submits.
pub struct Job {
    /// Index into [`Inputs::tables`].
    pub table: usize,
    pub spec: SessionSpec,
}

/// Everything a workload feeds the service, generated from the seed.
pub struct Inputs {
    pub tables: Vec<UncertainTable>,
    /// The crowd's hidden world; every crowd in the benchmark is perfect.
    pub truth: GroundTruth,
    /// `truth_topk[k]` is the true top-k list (index 0 unused).
    pub truth_topk: Vec<RankList>,
    /// Sessions in submission order.
    pub jobs: Vec<Job>,
    /// Sessions kept in flight (closed loop); `jobs.len()` means every
    /// session is due at once.
    pub clients: usize,
    /// Per-round scheduler fanout (`None` = unbounded).
    pub fanout: Option<usize>,
    /// The replay probe and correctness gate replay every job whose
    /// index is a multiple of this; odd, so that the sample covers every
    /// strategy of the four-way rotation.
    pub replay_every: usize,
}

/// Uniform score width of every generated table (the paper's default).
const WIDTH: f64 = 0.4;
/// Amplitude of the seeded jitter applied to a workload's base table, and
/// to each cold-burst tenant's copy of it.
const BASE_JITTER: f64 = 0.005;
const TENANT_JITTER: f64 = 0.05;
/// Fixed generator seeds of each workload's base instance: the run seed
/// perturbs these instances rather than replacing them, so figures from
/// different seeds describe the same workload.
const TENANT_STREAM_BASE: u64 = 7;
const PAPER_DEEP_BASE: u64 = 1;
const COLD_BURST_BASE: u64 = 11;
/// The crowd's hidden world is drawn from the unjittered base table, so
/// it is the same at every run seed.
const TRUTH_SEED: u64 = 4242;

/// Sizes of each workload.
const TENANT_STREAM_SESSIONS: usize = 12_000;
const PAPER_DEEP_SESSIONS: usize = 48;
const COLD_BURST_TENANTS: usize = 500;

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = SplitMix(seed ^ 0x5eed_0000_c7c0_0000);
        match workload {
            Workload::TenantStream => {
                let base = generate(&DatasetSpec::paper_default(8, WIDTH, TENANT_STREAM_BASE))
                    .expect("valid spec");
                let truth = GroundTruth::sample(&base, TRUTH_SEED);
                let mc_base = rng.next();
                let jobs = (0..TENANT_STREAM_SESSIONS)
                    .map(|j| {
                        // 1024 distinct configs (4 strategies x k in 3..=4 x 128
                        // sampler seeds): submits repeat (table, k, engine).
                        let c = j % 1024;
                        let config = session(
                            c,
                            3 + (c / 4) % 2,
                            2,
                            McConfig::fixed(256, mc_base.wrapping_add((c / 8) as u64)),
                        );
                        Job {
                            table: 0,
                            spec: SessionSpec::new(config),
                        }
                    })
                    .collect();
                Self::assemble(vec![base], truth, jobs, 256, Some(64), 61)
            }
            Workload::PaperDeep => {
                let base = scenarios::fig1(PAPER_DEEP_BASE);
                let table = jitter(&base.table, BASE_JITTER, &mut rng);
                let truth = GroundTruth::sample(&base.table, TRUTH_SEED);
                let jobs = (0..PAPER_DEEP_SESSIONS)
                    .map(|j| {
                        let config = session(j, base.k, 6, McConfig::fixed(1500, rng.next()));
                        Job {
                            table: 0,
                            spec: SessionSpec::new(config),
                        }
                    })
                    .collect();
                Self::assemble(vec![table], truth, jobs, 4, None, 1)
            }
            Workload::ColdBurst => {
                let base = generate(&DatasetSpec::paper_default(12, WIDTH, COLD_BURST_BASE))
                    .expect("valid spec");
                let truth = GroundTruth::sample(&base, TRUTH_SEED);
                let base = jitter(&base, BASE_JITTER, &mut rng);
                let mut tables = Vec::with_capacity(COLD_BURST_TENANTS);
                let jobs = (0..COLD_BURST_TENANTS)
                    .map(|j| {
                        tables.push(jitter(&base, TENANT_JITTER, &mut rng));
                        let config = session(
                            j,
                            3 + (j / 4) % 2,
                            6,
                            McConfig::adaptive(0.05, 0.05, rng.next()),
                        );
                        Job {
                            table: j,
                            spec: SessionSpec::new(config),
                        }
                    })
                    .collect();
                Self::assemble(tables, truth, jobs, COLD_BURST_TENANTS, Some(64), 7)
            }
        }
    }

    fn assemble(
        tables: Vec<UncertainTable>,
        truth: GroundTruth,
        jobs: Vec<Job>,
        clients: usize,
        fanout: Option<usize>,
        replay_every: usize,
    ) -> Self {
        let n = tables[0].len();
        let truth_topk = (0..=n).map(|k| truth.top_k(k)).collect();
        Self {
            tables,
            truth,
            truth_topk,
            jobs,
            clients,
            fanout,
            replay_every,
        }
    }

    /// Indices of the jobs the replay probe and the gate replay.
    pub fn replayed(&self) -> Vec<usize> {
        (0..self.jobs.len()).step_by(self.replay_every).collect()
    }

    /// FNV-1a digest of the generated inputs (table supports, truth,
    /// session configs), so the gate can tell that a seed changed them.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for t in &self.tables {
            for d in t.dists() {
                let (lo, hi) = d.support();
                h.add(lo.to_bits());
                h.add(hi.to_bits());
            }
        }
        for s in self.truth.scores() {
            h.add(s.to_bits());
        }
        for j in &self.jobs {
            h.add(j.table as u64);
            h.add(j.spec.config.k as u64);
            if let Engine::MonteCarlo(mc) = j.spec.config.engine {
                h.add(mc.seed);
            }
        }
        h.0
    }
}

/// The session of job `j`: the four selection strategies in rotation.
fn session(j: usize, k: usize, budget: usize, mc: McConfig) -> SessionConfig {
    let algorithm = match j % 4 {
        0 => Algorithm::T1On,
        1 => Algorithm::TbOff,
        2 => Algorithm::COff,
        _ => Algorithm::Incr {
            questions_per_round: 2,
        },
    };
    SessionConfig {
        k,
        budget,
        measure: MeasureKind::WeightedEntropy,
        algorithm,
        engine: Engine::MonteCarlo(mc),
        seed: j as u64,
        uncertainty_target: None,
    }
}

/// `table` with every uniform score moved by up to ±`amplitude`.
fn jitter(table: &UncertainTable, amplitude: f64, rng: &mut SplitMix) -> UncertainTable {
    let dists = table
        .dists()
        .map(|d| {
            let (lo, hi) = d.support();
            let center = (lo + hi) / 2.0 + amplitude * (2.0 * rng.unit() - 1.0);
            ScoreDist::uniform_centered(center, hi - lo).expect("positive width")
        })
        .collect();
    UncertainTable::new(dists).expect("non-empty table")
}

/// SplitMix64: a small, seedable generator for input generation.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 3).digest();
            assert_eq!(a, Inputs::generate(w, 3).digest(), "{w:?}");
            assert_ne!(a, Inputs::generate(w, 4).digest(), "{w:?}");
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
