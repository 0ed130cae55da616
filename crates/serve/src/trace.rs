//! Causal per-job trace trees: the full lifecycle of one render job —
//! admission, queue waits, every dispatch attempt (including hedges,
//! corrupt frames, and crashes), retry backoffs, and the terminal outcome —
//! as one self-contained span tree.
//!
//! Each terminated job emits one `"trace"` JSONL line whose `spans` array
//! is validated by `patu_obs::schema::check_trace_tree`: local span ids
//! start at 1 per job (the root is always id 1), every non-root span names
//! a present parent, and ids never repeat. Because ids are job-local and
//! the serve event loop is single-threaded on the virtual clock, trace
//! lines are bit-identical across runs and thread counts.
//!
//! The builder also carries the session [`Collector`]'s reserved span id
//! (`flow`) for this job, so the per-GPU render spans recorded during
//! attempts can parent to the job's lifecycle span on the serve track —
//! that cross-track link is what the Chrome-trace exporter renders as flow
//! arrows from the job lane down into the GPU lanes.

use crate::job::{Job, Outcome};

/// How one traced execution attempt ended (mirrors the server's private
/// `AttemptEnd`, minus the timing payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttemptTraceKind {
    /// Computed a clean frame.
    Clean,
    /// Computed to completion but the hash came back corrupt.
    Corrupt,
    /// Lost to an outage; the end cycle is the hang-detector report time.
    Crashed,
}

/// One node of a job's trace tree, with job-local ids.
#[derive(Debug, Clone)]
struct TraceSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
    end: u64,
    /// Extra integer fields appended to the span object (`gpu`, `attempt`,
    /// `cycles`, `due`…). Names must not collide with the five core keys.
    args: Vec<(&'static str, u64)>,
}

/// Accumulates one job's lifecycle tree between admission and its terminal
/// outcome, then renders the `"trace"` JSONL line.
#[derive(Debug, Clone)]
pub(crate) struct TraceBuilder {
    job: Job,
    /// Reserved session-collector span id for the lifecycle span (0 when
    /// spans are disabled) — the parent for cross-track GPU render spans.
    flow: u64,
    next_id: u64,
    spans: Vec<TraceSpan>,
    /// When the current queue wait began (arrival, or the last requeue).
    queued_since: u64,
}

/// The job-local id of every tree's root span.
const ROOT_ID: u64 = 1;

impl TraceBuilder {
    /// Starts a tree for `job`; `flow` is the session collector's reserved
    /// span id (see [`patu_obs::Collector::reserve_span_id`]).
    pub(crate) fn new(job: &Job, flow: u64) -> TraceBuilder {
        TraceBuilder {
            job: *job,
            flow,
            next_id: ROOT_ID + 1,
            spans: Vec::new(),
            queued_since: job.arrival,
        }
    }

    /// The reserved session-collector span id for cross-track links.
    pub(crate) fn flow(&self) -> u64 {
        self.flow
    }

    fn push(
        &mut self,
        parent: u64,
        name: &'static str,
        start: u64,
        end: u64,
        args: Vec<(&'static str, u64)>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(TraceSpan {
            id,
            parent,
            name,
            start,
            end: end.max(start),
            args,
        });
        id
    }

    /// The job was popped for dispatch at `now`: closes the current queue
    /// wait as a `serve::queue` span.
    pub(crate) fn dispatched(&mut self, now: u64) {
        let since = self.queued_since;
        self.push(ROOT_ID, "serve::queue", since, now, Vec::new());
    }

    /// A retry was scheduled: the job cools down from `from` until `due`.
    pub(crate) fn retry_wait(&mut self, from: u64, due: u64) {
        self.push(ROOT_ID, "serve::retry_wait", from, due, Vec::new());
        self.queued_since = due;
    }

    /// The cooled retry actually re-entered the queue at `now` (the event
    /// loop may wake later than the due cycle).
    pub(crate) fn requeued(&mut self, now: u64) {
        self.queued_since = self.queued_since.max(now);
    }

    /// Records one execution attempt and returns its span id (the parent
    /// for a render child). Hedged attempts get distinct span names so the
    /// duplicate dispatches read directly off the tree.
    pub(crate) fn attempt(
        &mut self,
        hedged: bool,
        kind: AttemptTraceKind,
        gpu: usize,
        attempt: u32,
        start: u64,
        end: u64,
    ) -> u64 {
        let name = match (hedged, kind) {
            (false, AttemptTraceKind::Clean) => "serve::attempt",
            (false, AttemptTraceKind::Corrupt) => "serve::attempt::corrupt",
            (false, AttemptTraceKind::Crashed) => "serve::attempt::crashed",
            (true, AttemptTraceKind::Clean) => "serve::hedge",
            (true, AttemptTraceKind::Corrupt) => "serve::hedge::corrupt",
            (true, AttemptTraceKind::Crashed) => "serve::hedge::crashed",
        };
        self.push(
            ROOT_ID,
            name,
            start,
            end,
            vec![("gpu", gpu as u64), ("attempt", u64::from(attempt))],
        )
    }

    /// Records the render work inside attempt span `parent` (`cycles` is
    /// the straggle-stretched service time actually spent).
    pub(crate) fn render(&mut self, parent: u64, start: u64, end: u64, cycles: u64) {
        self.push(
            parent,
            "serve::render",
            start,
            end,
            vec![("cycles", cycles)],
        );
    }

    /// Closes the tree at the terminal outcome and renders the `"trace"`
    /// JSONL line (newline-terminated).
    pub(crate) fn finish(mut self, outcome: Outcome, finish: u64) -> String {
        if outcome == Outcome::Shed {
            self.push(ROOT_ID, "serve::shed", self.job.arrival, finish, Vec::new());
        }
        let (label, end) = match outcome {
            Outcome::Delivered => ("delivered", finish),
            Outcome::Shed => ("shed", finish),
            Outcome::Failed => ("failed", finish),
        };
        let mut line = format!(
            "{{\"type\":\"trace\",\"job\":{},\"client\":{},\"tier\":{},\"outcome\":\"{}\",\"root\":{}",
            self.job.id,
            self.job.client,
            self.job.tier.index(),
            label,
            ROOT_ID,
        );
        line.push_str(",\"spans\":[");
        let root = TraceSpan {
            id: ROOT_ID,
            parent: 0,
            name: "serve::lifecycle",
            start: self.job.arrival,
            end: end.max(self.job.arrival),
            args: Vec::new(),
        };
        for (i, span) in std::iter::once(&root).chain(self.spans.iter()).enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{}",
                span.id, span.parent, span.name, span.start, span.end,
            ));
            for (name, value) in &span.args {
                line.push_str(&format!(",\"{name}\":{value}"));
            }
            line.push('}');
        }
        line.push_str("]}\n");
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Tier;

    fn job() -> Job {
        Job {
            id: 7,
            client: 2,
            tier: Tier::Interactive,
            scene: 0,
            frame: 3,
            arrival: 100,
            deadline: 5_000,
        }
    }

    #[test]
    fn full_lifecycle_tree_passes_the_schema_checker() {
        let mut b = TraceBuilder::new(&job(), 0);
        b.dispatched(150);
        let a1 = b.attempt(false, AttemptTraceKind::Corrupt, 0, 1, 170, 1_170);
        b.render(a1, 170, 1_170, 1_000);
        b.retry_wait(1_170, 1_400);
        b.requeued(1_420);
        b.dispatched(1_500);
        let a2 = b.attempt(false, AttemptTraceKind::Clean, 1, 2, 1_520, 2_520);
        b.render(a2, 1_520, 2_520, 1_000);
        let line = b.finish(Outcome::Delivered, 2_520);
        assert!(line.ends_with('\n'));
        let checked = patu_obs::schema::check_stream(&line).expect("valid trace line");
        assert_eq!(checked, 1);
        assert!(line.contains("\"name\":\"serve::retry_wait\""));
        assert!(line.contains("\"name\":\"serve::attempt::corrupt\""));
        assert!(line.contains("\"cycles\":1000"));
    }

    #[test]
    fn shed_and_crash_trees_are_well_formed() {
        let shed = TraceBuilder::new(&job(), 0).finish(Outcome::Shed, 100);
        assert_eq!(patu_obs::schema::check_stream(&shed).expect("valid"), 1);
        assert!(shed.contains("\"outcome\":\"shed\""));
        assert!(shed.contains("serve::shed"));

        let mut b = TraceBuilder::new(&job(), 0);
        b.dispatched(150);
        b.attempt(true, AttemptTraceKind::Crashed, 1, 1, 170, 2_170);
        let failed = b.finish(Outcome::Failed, 2_170);
        assert_eq!(patu_obs::schema::check_stream(&failed).expect("valid"), 1);
        assert!(failed.contains("serve::hedge::crashed"));
    }

    #[test]
    fn ids_are_job_local_and_sequential() {
        let mut b = TraceBuilder::new(&job(), 42);
        assert_eq!(b.flow(), 42);
        b.dispatched(150);
        let a = b.attempt(false, AttemptTraceKind::Clean, 0, 1, 170, 200);
        assert_eq!(a, 3, "root=1, queue=2, attempt=3");
        let line = b.finish(Outcome::Delivered, 200);
        assert!(line.contains("\"root\":1"));
        assert!(line.contains("{\"id\":1,\"parent\":0,\"name\":\"serve::lifecycle\""));
    }
}
