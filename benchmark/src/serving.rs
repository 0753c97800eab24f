//! The two open-loop serving workloads and the benchmark's own trace
//! driver.
//!
//! `mtvc_loadgen::drive` drops every `Ticket` and the service stamps
//! latency from the moment of submission, which hides generator stalls.
//! The driver here keeps every ticket, times each request from the
//! instant it was *due* in the trace, and waits for all tickets before
//! it shuts the service down.

use crate::inputs::{self, Scale};
use mtvc_core::Task;
use mtvc_graph::Graph;
use mtvc_loadgen::{generate, ClassMix, Scenario, Trace};
use mtvc_serve::{
    Completion, RequestOutcome, SchedulerPolicy, ServiceConfig, ServiceReport, SloClass,
    SubmitError, TaskService, Ticket,
};
use mtvc_systems::SystemKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// 100 req/s: about a third of what one worker serves in the narrow
    /// batches such a load forms (one costs some 3.5 ms).
    Steady,
    /// 1 000 req/s: about one and a half times what it can serve.
    Overload,
}

impl ServeKind {
    /// Offered rate, requests per second. Absolute, never a share of
    /// measured capacity: a faster engine shows as lower latency or
    /// higher goodput, not as a moved workload.
    pub fn rate(self) -> f64 {
        match self {
            ServeKind::Steady => 100.0,
            ServeKind::Overload => 1000.0,
        }
    }
}

const TENANTS: u32 = 200;
const ZIPF_EXPONENT: f64 = 1.1;
const QUEUE_CAPACITY: usize = 512;
const QUANTUM: u64 = 16;
/// Widest batch the former may build. Uncapped, the widest batch of an
/// overloaded run is whatever the backlog happened to hold when the
/// worker came free (30 to 130 units from run to run), and the heap
/// high-water mark, a maximum, follows it; capped, peak memory repeats
/// to within a percent and mean width under overload is still 20.
const MAX_BATCH: u64 = 32;
/// Seconds of trace replayed, and waited for, before the measured one.
const WARMUP_SECS: f64 = 1.0;
/// A submission this long after its due time counts as late.
pub const LATE_AFTER: Duration = Duration::from_millis(5);

/// Deadline per SLO class (interactive, standard, batch).
const DEADLINES: [Option<Duration>; 3] = [
    Some(Duration::from_millis(250)),
    Some(Duration::from_secs(2)),
    None,
];

fn scenario(kind: ServeKind, name: &str, secs: f64) -> Scenario {
    Scenario::new(name, TENANTS, kind.rate(), Duration::from_secs_f64(secs))
        .with_zipf_exponent(ZIPF_EXPONENT)
        .with_shape(Task::mssp(1), 2.0, 1..=4)
        .with_shape(Task::bppr(1), 1.0, 1..=4)
        .with_shape(Task::bkhs(1), 1.0, 1..=4)
        .with_classes(ClassMix {
            weights: [0.2, 0.5, 0.3],
            deadlines: DEADLINES,
        })
}

/// SLO class of each tenant, by popularity rank modulo ten: two
/// interactive, five standard, three batch per decade. `mtvc_loadgen`
/// draws a tenant's class from the trace seed, and with Zipf 1.1 the
/// most popular tenant sends a fifth of all requests, so the class mix
/// of the *requests* would swing by that much from seed to seed. Who is
/// interactive belongs to the workload's definition; the seed draws
/// the arrivals.
const CLASS_BY_RANK: [SloClass; 10] = {
    use SloClass::{Batch as B, Interactive as I, Standard as S};
    [S, I, S, B, S, S, I, B, S, B]
};

/// Generate the trace for `seed` and pin each tenant's class.
pub fn trace(kind: ServeKind, name: &str, secs: f64, seed: u64) -> Trace {
    let mut trace = generate(&scenario(kind, name, secs), seed);
    for e in &mut trace.events {
        e.class = CLASS_BY_RANK[e.tenant.0 as usize % CLASS_BY_RANK.len()];
        e.deadline = DEADLINES[e.class.index()];
    }
    trace
}

/// Four seconds of the overload mix: input of the stand-alone queue
/// probe and of the generator's own events-per-second figure.
pub fn probe_trace(seed: u64) -> Trace {
    trace(ServeKind::Overload, "probe", 4.0, seed)
}

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig::new(SystemKind::PregelPlus, inputs::cluster())
        .with_workers(1)
        .with_quantum(QUANTUM)
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_seed(seed)
        .with_scheduler(SchedulerPolicy::SloAware)
        .with_shape(Task::mssp(1))
        .with_shape(Task::bppr(1))
        .with_shape(Task::bkhs(1))
        .with_max_batch(MAX_BATCH)
}

/// Everything a serving run needs, built once per set-up.
pub struct ServeInputs {
    pub graph: Arc<Graph>,
    pub warmup: Trace,
    pub trace: Trace,
    pub service: TaskService,
    pub generate_s: f64,
}

impl ServeInputs {
    /// Set-up: generate the graph and both traces, start the service
    /// (which trains its memory models).
    pub fn build(kind: ServeKind, scale: Scale, seed: u64, seconds: f64) -> ServeInputs {
        let t = Instant::now();
        let graph = Arc::new(inputs::graph(scale.small(), seed));
        let generate_s = t.elapsed().as_secs_f64();
        let warmup = trace(kind, "warm-up", WARMUP_SECS, seed ^ 0x57A2);
        let trace = trace(kind, "measured", seconds, seed);
        let service = TaskService::start(graph.clone(), service_config(seed))
            .expect("the three registered shapes fit the reference cluster");
        ServeInputs {
            graph,
            warmup,
            trace,
            service,
            generate_s,
        }
    }
}

/// How one offered request ended, from the driver's side.
#[derive(Debug, Clone)]
pub enum Fate {
    /// The queue was full; an open-loop driver never retries.
    Shed,
    /// Refused for any other reason (none is expected).
    Refused,
    Done(Completion),
}

/// One offered request.
#[derive(Debug, Clone)]
pub struct Offered {
    /// When the trace wanted it sent, since the replay started.
    pub due: Duration,
    /// How long after `due` the submit call was made.
    pub lateness: Duration,
    pub class: SloClass,
    pub workload: u64,
    pub deadline: Option<Duration>,
    pub fate: Fate,
}

impl Offered {
    /// Due instant to completion, for requests that were executed.
    pub fn served_latency(&self) -> Option<Duration> {
        match &self.fate {
            Fate::Done(c) if c.outcome.is_served() => Some(self.lateness + c.latency),
            _ => None,
        }
    }

    /// Executed, and finished within the class deadline counted from
    /// the due instant (no deadline: executed).
    pub fn in_time(&self) -> bool {
        self.served_latency()
            .is_some_and(|l| self.deadline.is_none_or(|d| l <= d))
    }

    /// Ended in an error this benchmark never provokes on purpose.
    pub fn errored(&self) -> bool {
        match &self.fate {
            Fate::Refused => true,
            Fate::Shed => false,
            Fate::Done(c) => matches!(
                c.outcome,
                RequestOutcome::Failed { .. } | RequestOutcome::Rejected
            ),
        }
    }
}

/// Replay `trace` open-loop and wait for every ticket. Returns one
/// record per event, in trace order.
pub fn replay(service: &TaskService, trace: &Trace) -> Vec<Offered> {
    enum Pending {
        Ticket(Ticket),
        Shed,
        Refused,
    }
    let start = Instant::now();
    let mut pending: Vec<(Duration, Pending)> = Vec::with_capacity(trace.len());
    for event in &trace.events {
        let now = start.elapsed();
        if event.at > now {
            std::thread::sleep(event.at - now);
        }
        let lateness = start.elapsed().saturating_sub(event.at);
        let sent = match service.try_submit(event.request()) {
            Ok(ticket) => Pending::Ticket(ticket),
            Err(SubmitError::Full) => Pending::Shed,
            Err(_) => Pending::Refused,
        };
        pending.push((lateness, sent));
    }
    trace
        .events
        .iter()
        .zip(pending)
        .map(|(event, (lateness, sent))| Offered {
            due: event.at,
            lateness,
            class: event.class,
            workload: event.task.workload(),
            deadline: event.deadline,
            fate: match sent {
                Pending::Ticket(t) => Fate::Done(t.wait()),
                Pending::Shed => Fate::Shed,
                Pending::Refused => Fate::Refused,
            },
        })
        .collect()
}

/// What a serving run produced.
pub struct ServeRun {
    pub warmup: Vec<Offered>,
    pub offered: Vec<Offered>,
    pub report: ServiceReport,
}

/// Warm the service up, replay the measured trace, shut down.
pub fn run(inputs: ServeInputs) -> ServeRun {
    let ServeInputs {
        warmup,
        trace,
        service,
        ..
    } = inputs;
    let warmup = replay(&service, &warmup);
    let offered = replay(&service, &trace);
    let report = service.shutdown();
    ServeRun {
        warmup,
        offered,
        report,
    }
}
