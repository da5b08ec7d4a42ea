//! A stepped engine's completions are routed by the thread that drove
//! it, so a completion strands exactly where a driver forgets to look
//! in the channel afterwards. These tests sit on the drivers that have
//! no later request to cover for them: a replay's trailing `advance_us`
//! lines (alone and in a replay group) and the shutdown drain's pumps.
//! The third such driver, a pump that resolved work before it died, is
//! with the other watchdog tests in `robustness.rs`.

use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use pard_engine_api::{
    Backend, ClusterConfig, Completion, EdgeState, EngineBuilder, EngineHandle, SubmitSpec,
};
use pard_gateway::client::{CallSpec, Client};
use pard_gateway::{Gateway, GatewayConfig};
use pard_metrics::ServedTotals;
use pard_pipeline::{AppKind, PipelineSpec};
use pard_sim::{SimDuration, SimTime};

const WAIT: Duration = Duration::from_secs(20);

fn sim_engine(seed: u64) -> Box<dyn EngineHandle> {
    EngineBuilder::for_app(AppKind::Tm)
        .build(Backend::Sim(
            ClusterConfig::default()
                .with_seed(seed)
                .with_fixed_workers(vec![2; 3])
                .with_pard(pard_core::PardConfig::default().with_mc_draws(500)),
        ))
        .expect("builtin models resolve from the zoo")
}

fn gateway(engine: Box<dyn EngineHandle>) -> Gateway {
    let config = GatewayConfig {
        addr: "127.0.0.1:0".into(),
        metrics_addr: "127.0.0.1:0".into(),
        ..GatewayConfig::default()
    };
    Gateway::start(engine, config).expect("gateway binds ephemeral ports")
}

/// A request scheduled at `at_us` with a budget nothing sheds.
fn scheduled(at_us: u64) -> CallSpec {
    CallSpec::new("tm")
        .with_slo_ms(30_000)
        .with_payload_len(4)
        .with_at_us(at_us)
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + WAIT;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn trailing_advances_answer_a_single_connection_replay() {
    let gateway = gateway(sim_engine(3));
    let mut client = Client::connect(gateway.addr()).expect("connect");
    // Forty arrivals inside 40 ms of virtual time: the pipeline needs
    // longer than that for its first batch, so when the last request
    // line is served nothing has completed yet.
    let seqs: Vec<u64> = (0..40u64)
        .map(|i| client.send(&scheduled(i * 1_000)).expect("send"))
        .collect();
    wait_until("all forty to be admitted", || {
        gateway.counters().admitted == 40
    });
    assert!(
        client.try_recv().is_none(),
        "nothing resolves before time moves"
    );
    // From here on only the clock moves. Each advance resolves some of
    // the forty, on the shard thread that served the line.
    for step in 1..=50u64 {
        client.advance(40_000 + step * 20_000).expect("advance");
    }
    for seq in seqs {
        let answer = client.wait(seq, WAIT).expect("owed reply arrives");
        assert!(answer.outcome.is_ok(), "{answer:?}");
    }
    assert_eq!(gateway.pending_len(), 0);
    drop(client);
    let _ = gateway.shutdown(SimDuration::from_secs(1));
}

#[test]
fn trailing_advances_answer_a_replay_group_of_two() {
    let gateway = gateway(sim_engine(4));
    let mut parties: Vec<Client> = (0..2u64)
        .map(|party| {
            let mut client = Client::connect(gateway.addr()).expect("connect");
            client.set_seq_stride(party, 2);
            client.replay_join(2).expect("join");
            client
        })
        .collect();
    // The schedule striped over the two connections by seq.
    let mut seqs: Vec<Vec<u64>> = vec![Vec::new(), Vec::new()];
    for i in 0..40u64 {
        let party = (i % 2) as usize;
        seqs[party].push(parties[party].send(&scheduled(i * 1_000)).expect("send"));
    }
    // A parked advance drains once every party's watermark reaches it,
    // so the last of these lines — whichever shard serves it — is what
    // releases the tail, with no request behind it on either side.
    for client in &mut parties {
        client.advance(2_000_000).expect("advance");
    }
    for (client, seqs) in parties.iter_mut().zip(&seqs) {
        for &seq in seqs {
            let answer = client.wait(seq, WAIT).expect("owed reply arrives");
            assert!(answer.outcome.is_ok(), "{answer:?}");
        }
    }
    assert_eq!(gateway.pending_len(), 0);
    drop(parties);
    let _ = gateway.shutdown(SimDuration::from_secs(1));
}

/// A simulator that only the shutdown drain can pump: calls from the
/// gateway's own pump thread find nothing to do.
struct PumpedOnlyByShutdown(Box<dyn EngineHandle>);

impl EngineHandle for PumpedOnlyByShutdown {
    fn spec(&self) -> &PipelineSpec {
        self.0.spec()
    }
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn submit(&self, spec: SubmitSpec) -> u64 {
        self.0.submit(spec)
    }
    fn edge_state(&self) -> EdgeState {
        self.0.edge_state()
    }
    fn set_completion_sink(&self, sink: Sender<Completion>) {
        self.0.set_completion_sink(sink)
    }
    fn stepped(&self) -> bool {
        true
    }
    fn pump(&self) -> bool {
        let on_pump_thread = std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("pard-pump-"));
        !on_pump_thread && self.0.pump()
    }
    fn drain(&self, limit: SimDuration) -> ServedTotals {
        self.0.drain(limit)
    }
}

#[test]
fn the_shutdown_drain_answers_what_its_pumps_resolve() {
    let gateway = gateway(Box::new(PumpedOnlyByShutdown(sim_engine(5))));
    let mut client = Client::connect(gateway.addr()).expect("connect");
    let plain = CallSpec::new("tm").with_slo_ms(30_000).with_payload_len(4);
    let seqs: Vec<u64> = (0..12)
        .map(|_| client.send(&plain).expect("send"))
        .collect();
    wait_until("all twelve to be admitted", || {
        gateway.counters().admitted == 12
    });
    assert!(client.try_recv().is_none(), "nothing pumps before shutdown");
    // Shutdown pumps the engine itself. What that resolves is answered
    // with its real outcome, not flushed as a `shutdown` drop.
    let totals = gateway.shutdown(SimDuration::from_secs(10));
    for seq in seqs {
        let answer = client.wait(seq, WAIT).expect("owed reply arrives");
        assert!(answer.outcome.is_ok(), "{answer:?}");
    }
    assert_eq!((totals.requests, totals.goodput), (12, 12));
}
