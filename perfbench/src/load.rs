//! The benchmark's own load generator, driving the engine only through
//! `Engine::submit` / `Engine::try_submit` / `Pending::wait`.
//!
//! Every request is stamped at four points, which are also the spans the
//! traced run writes out: when it was due, when `submit` was entered and
//! left, when `wait` was entered and left. Every response is compared with
//! the dense-reference output computed at set-up.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ucnn_model::rng::SmallRng;
use ucnn_serve::{Engine, Pending, ServeError, ServeResponse};
use ucnn_tensor::Tensor3;

/// One input and its dense-reference output.
pub type Case = (Tensor3<i16>, Tensor3<i32>);

/// A registered model and the cases requests draw from.
pub struct Served {
    pub name: String,
    pub cases: Vec<Case>,
}

/// The engine-side phases of a completed request, copied from its
/// `ServeResponse`.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub queue_ns: u64,
    pub batch_form_ns: u64,
    pub service_ns: u64,
    pub batch_size: usize,
    pub completed_at: Instant,
}

/// How a request ended. Every attempted request lands in exactly one arm.
#[derive(Clone, Copy, Debug)]
pub enum Outcome {
    Completed(Phases),
    /// Shed by a worker after it was queued.
    Shed,
    /// Refused at submit (queue full, quota, deadline admission).
    Refused,
    /// Any other failure (unknown model, worker lost, shutting down).
    Error,
}

/// One request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub model: usize,
    /// When the request was due: the schedule slot in the open loop, the
    /// send time in the closed loop.
    pub intended: Instant,
    pub sent: Instant,
    pub submitted: Instant,
    pub wait_start: Instant,
    pub done: Instant,
    pub outcome: Outcome,
}

/// What one load run produced.
pub struct LoadRun {
    pub records: Vec<Record>,
    /// Responses whose output differed from the dense reference.
    pub mismatches: u64,
}

fn pick(rng: &mut SmallRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn submit_outcome(err: &ServeError) -> Outcome {
    match err {
        ServeError::Overloaded | ServeError::QuotaExceeded | ServeError::DeadlineExceeded => {
            Outcome::Refused
        }
        _ => Outcome::Error,
    }
}

/// Waits for a submitted request and checks its output. Returns the
/// outcome, when `wait` was entered and when it returned.
fn finish(
    submitted: Result<Pending, ServeError>,
    expected: &Tensor3<i32>,
    mismatches: &mut u64,
) -> (Outcome, Instant, Instant) {
    let wait_start = Instant::now();
    let pending = match submitted {
        Ok(pending) => pending,
        Err(err) => return (submit_outcome(&err), wait_start, wait_start),
    };
    let result = pending.wait();
    let done = Instant::now();
    let outcome = match result {
        Ok(ServeResponse {
            output,
            queue_ns,
            batch_form_ns,
            service_ns,
            batch_size,
            completed_at,
            ..
        }) => {
            if output != *expected {
                *mismatches += 1;
            }
            Outcome::Completed(Phases {
                queue_ns,
                batch_form_ns,
                service_ns,
                batch_size,
                completed_at,
            })
        }
        Err(ServeError::DeadlineExceeded) => Outcome::Shed,
        Err(_) => Outcome::Error,
    };
    (outcome, wait_start, done)
}

/// Closed loop: `clients` threads, each sending its next request only
/// after the previous one returned, until `end`. Models and cases are drawn
/// uniformly from a stream seeded by `seed`.
pub fn closed_loop(
    engine: &Engine,
    models: &[Served],
    clients: usize,
    seed: u64,
    end: Instant,
) -> LoadRun {
    let per_client: Vec<LoadRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (0xC1_0000 + client as u64));
                    let mut run = LoadRun {
                        records: Vec::new(),
                        mismatches: 0,
                    };
                    while Instant::now() < end {
                        let model = pick(&mut rng, models.len());
                        let (input, expected) =
                            &models[model].cases[pick(&mut rng, models[model].cases.len())];
                        let input = input.clone();
                        let sent = Instant::now();
                        let submitted = engine.submit(&models[model].name, input);
                        let submitted_at = Instant::now();
                        let (outcome, wait_start, done) =
                            finish(submitted, expected, &mut run.mismatches);
                        run.records.push(Record {
                            model,
                            intended: sent,
                            sent,
                            submitted: submitted_at,
                            wait_start,
                            done,
                            outcome,
                        });
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut run = LoadRun {
        records: Vec::new(),
        mismatches: 0,
    };
    for part in per_client {
        run.records.extend(part.records);
        run.mismatches += part.mismatches;
    }
    run
}

/// Open loop: one generator thread sends a request every `1 / rate`
/// seconds from `start` until `end` with `try_submit`, whatever the state
/// of earlier requests; the calling thread waits for the responses in send
/// order. A request's latency runs from its schedule slot, so a late
/// generator is charged to the requests it delayed.
pub fn open_loop(
    engine: &Engine,
    models: &[Served],
    rate: f64,
    seed: u64,
    start: Instant,
    end: Instant,
) -> LoadRun {
    type Sent = (
        usize,
        usize,
        Instant,
        Instant,
        Instant,
        Result<Pending, ServeError>,
    );
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x0_9E11);
            for slot in 0u32.. {
                let intended = start + interval * slot;
                if intended >= end {
                    break;
                }
                let model = pick(&mut rng, models.len());
                let case = pick(&mut rng, models[model].cases.len());
                let input = models[model].cases[case].0.clone();
                let now = Instant::now();
                if intended > now {
                    std::thread::sleep(intended - now);
                }
                let sent = Instant::now();
                let submitted = engine.try_submit(&models[model].name, input);
                let submitted_at = Instant::now();
                if tx
                    .send((model, case, intended, sent, submitted_at, submitted))
                    .is_err()
                {
                    break;
                }
            }
        });
        let mut run = LoadRun {
            records: Vec::new(),
            mismatches: 0,
        };
        for (model, case, intended, sent, submitted_at, submitted) in rx {
            let expected = &models[model].cases[case].1;
            let (outcome, wait_start, done) = finish(submitted, expected, &mut run.mismatches);
            run.records.push(Record {
                model,
                intended,
                sent,
                submitted: submitted_at,
                wait_start,
                done,
                outcome,
            });
        }
        generator.join().expect("open-loop generator panicked");
        run
    })
}
