//! A crowd behind a wire: the serving stack talks to its crowd through
//! the `ctk-wire` codec instead of a direct call, and ends up with
//! bit-identical per-tenant reports.
//!
//! Run with: `cargo run --release --example crowd_gateway`
//!
//! Topology: an in-memory duplex pair carries length-prefixed frames
//! between a service-side proxy ([`WireCrowd`], implementing [`Crowd`])
//! and a gateway that owns the real [`CrowdSimulator`]. Every question
//! and every graded answer is encoded to bytes and decoded back — the
//! exact byte stream a cross-process deployment would see.
//!
//! The example runs the same eight tenants twice:
//!
//! * **in-process reference** — `TopKService` over the crowd directly;
//! * **wire path** — `TopKService` over the `WireCrowd` proxy.
//!
//! It then asserts every tenant's [`UrReport`] is outcome-identical
//! across the two paths, and ships each final report as a
//! [`ReportSummary`] frame whose decoded form must `matches()` the
//! local report — proving the wire format round-trips outcomes bit for
//! bit.

use crowd_topk::core::measures::MeasureKind;
use crowd_topk::core::session::{Algorithm, SessionConfig};
use crowd_topk::crowd::{Answer, Crowd, Question, RouteHint};
use crowd_topk::datagen::{generate, DatasetSpec};
use crowd_topk::prelude::*;
use crowd_topk::tpo::build::{Engine, McConfig};
use crowd_topk::wire::{
    decode_frame_exact, encode_frame, AnswerBatch, Frame, GradedAnswer, QuestionBatch,
    ReportSummary,
};

const TENANTS: usize = 8;
const BUDGET: usize = 8;
const CROWD_BUDGET: usize = 100_000;

fn tenant_config(tenant: usize) -> SessionConfig {
    let algorithm = match tenant % 6 {
        0 => Algorithm::T1On,
        1 => Algorithm::TbOff,
        2 => Algorithm::Naive,
        3 => Algorithm::Random,
        4 => Algorithm::COff,
        _ => Algorithm::Incr {
            questions_per_round: 3,
        },
    };
    SessionConfig {
        k: 3,
        budget: BUDGET,
        measure: MeasureKind::WeightedEntropy,
        algorithm,
        engine: Engine::MonteCarlo(McConfig::fixed(2500, 17)),
        seed: (tenant % 6) as u64,
        uncertainty_target: None,
    }
}

/// The remote end of the duplex pair: owns the real crowd, consumes
/// [`Frame::Questions`], produces [`Frame::Answers`]. Answers a batch as
/// a prefix when the crowd budget runs dry — the same starvation
/// contract the in-process service observes.
struct Gateway {
    crowd: CrowdSimulator<PerfectWorker>,
    frames: usize,
    bytes_in: usize,
    bytes_out: usize,
}

impl Gateway {
    fn new(crowd: CrowdSimulator<PerfectWorker>) -> Self {
        Self {
            crowd,
            frames: 0,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// Handles one frame worth of bytes, returning the reply bytes.
    fn handle(&mut self, bytes: &[u8]) -> Vec<u8> {
        self.frames += 1;
        self.bytes_in += bytes.len();
        let frame = decode_frame_exact(bytes).expect("service sent a well-formed frame");
        let Frame::Questions(batch) = frame else {
            panic!("gateway only serves question batches");
        };
        let mut items = Vec::with_capacity(batch.items.len());
        for (q, hint) in batch.items {
            // Prefix semantics: the first unaffordable question ends the
            // batch, exactly like a direct `Crowd::ask_routed` miss.
            let Some(answer) = self.crowd.ask_routed(q, hint) else {
                break;
            };
            items.push(GradedAnswer {
                answer,
                accuracy: self.crowd.answer_accuracy(),
                cached: false,
            });
        }
        let reply = encode_frame(&Frame::Answers(AnswerBatch {
            session: batch.session,
            crowd_remaining: self.crowd.remaining() as u64,
            items,
        }));
        self.bytes_out += reply.len();
        reply
    }
}

/// Service-side proxy: a [`Crowd`] whose every interaction round-trips
/// through the codec to the [`Gateway`]. The proxy sits below session
/// granularity (the `Crowd` trait is the shared backend all tenants
/// multiplex over), so its question batches travel on lane `0`;
/// per-tenant attribution happens in the report frames instead.
struct WireCrowd {
    gateway: Gateway,
    remaining: u64,
    accuracy: f64,
    history: Vec<Answer>,
    bytes_out: usize,
}

impl WireCrowd {
    /// Wraps `gateway`. `accuracy` is deployment configuration shared by
    /// both endpoints; the per-answer grade on the wire re-confirms it.
    fn new(mut gateway: Gateway, accuracy: f64) -> Self {
        // Handshake: an empty batch synchronizes the budget snapshot so
        // `Crowd::remaining` is answerable before the first question.
        let hello = encode_frame(&Frame::Questions(QuestionBatch {
            session: 0,
            items: Vec::new(),
        }));
        let hello_len = hello.len();
        let reply = gateway.handle(&hello);
        let Frame::Answers(batch) = decode_frame_exact(&reply).expect("well-formed reply") else {
            panic!("gateway answered with a non-answer frame");
        };
        Self {
            remaining: batch.crowd_remaining,
            gateway,
            accuracy,
            history: Vec::new(),
            bytes_out: hello_len,
        }
    }
}

impl Crowd for WireCrowd {
    fn ask(&mut self, q: Question) -> Option<Answer> {
        self.ask_routed(q, RouteHint::Any)
    }

    fn ask_routed(&mut self, q: Question, hint: RouteHint) -> Option<Answer> {
        let frame = encode_frame(&Frame::Questions(QuestionBatch {
            session: 0,
            items: vec![(q, hint)],
        }));
        self.bytes_out += frame.len();
        let reply = self.gateway.handle(&frame);
        let Frame::Answers(batch) = decode_frame_exact(&reply).expect("well-formed reply") else {
            panic!("gateway answered with a non-answer frame");
        };
        self.remaining = batch.crowd_remaining;
        let graded = batch.items.first()?;
        assert_eq!(
            graded.accuracy.to_bits(),
            self.accuracy.to_bits(),
            "wire grade disagrees with the configured accuracy"
        );
        self.history.push(graded.answer);
        Some(graded.answer)
    }

    fn remaining(&self) -> usize {
        self.remaining as usize
    }

    fn answer_accuracy(&self) -> f64 {
        self.accuracy
    }

    fn history(&self) -> &[Answer] {
        &self.history
    }
}

fn main() {
    let table = generate(&DatasetSpec::paper_default(10, 0.35, 2024)).expect("valid spec");
    let truth = GroundTruth::sample(&table, 4242);
    let top = truth.top_k(3);
    let crowd = || {
        CrowdSimulator::new(
            truth.clone(),
            PerfectWorker,
            VotePolicy::Single,
            CROWD_BUDGET,
        )
        .expect("valid vote policy")
    };

    fn submit_all<C: Crowd>(
        service: &mut TopKService<C>,
        table: &crowd_topk::prob::UncertainTable,
        top: &RankList,
    ) -> Vec<crowd_topk::service::SessionId> {
        (0..TENANTS)
            .map(|t| {
                service
                    .submit_with_truth(
                        table,
                        SessionSpec::new(tenant_config(t)).with_priority((t % 4) as u8),
                        Some(top),
                    )
                    .expect("valid tenant config")
            })
            .collect()
    }

    // In-process reference: the crowd is a direct field of the service.
    let mut local = TopKService::new(crowd()).with_fanout(4);
    let local_ids = submit_all(&mut local, &table, &top);
    local.run_to_completion();

    // Wire path: same tenants, but every crowd interaction crosses the
    // codec.
    let gateway = Gateway::new(crowd());
    let mut remote = TopKService::new(WireCrowd::new(gateway, 1.0)).with_fanout(4);
    let remote_ids = submit_all(&mut remote, &table, &top);
    remote.run_to_completion();

    println!("Served {TENANTS} tenants twice: in-process and over the wire.\n");

    // Per-tenant outcome equality across the two paths, then a report
    // frame round-trip: encode the wire-path report, decode it, and
    // check the decoded summary against the in-process report.
    let mut report_bytes = 0usize;
    for (tenant, (lid, rid)) in local_ids.iter().zip(&remote_ids).enumerate() {
        let local_report = local.report(*lid).expect("local tenant completed");
        let remote_report = remote.report(*rid).expect("wire tenant completed");
        assert!(
            remote_report.same_outcome(local_report),
            "tenant {tenant} diverged between in-process and wire paths"
        );

        let frame = Frame::Report(ReportSummary::from_report(tenant as u64, remote_report));
        let bytes = encode_frame(&frame);
        report_bytes += bytes.len();
        let Frame::Report(decoded) = decode_frame_exact(&bytes).expect("well-formed report") else {
            panic!("report frame decoded to a different tag");
        };
        assert!(
            decoded.matches(local_report),
            "tenant {tenant}: decoded wire summary disagrees with the in-process report"
        );
    }
    println!("All {TENANTS} tenants outcome-identical across the process boundary.");
    println!("All {TENANTS} report summaries round-tripped bit-exact ({report_bytes} bytes).\n");

    let wire = remote.crowd();
    println!(
        "Wire traffic: {} frames, {} bytes service->gateway, {} bytes back.",
        wire.gateway.frames, wire.gateway.bytes_in, wire.gateway.bytes_out
    );
    println!(
        "Crowd answered {} questions; {} budget units left on the gateway side.",
        wire.history.len(),
        wire.remaining
    );
}
