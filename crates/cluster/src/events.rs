//! Discrete-event machinery behind the cluster runtime.
//!
//! The runtime turns every node into a cooperatively-scheduled task (a
//! `Future` polled by [`crate::runtime::run_cluster`]'s executor) and
//! routes messages through one shared [`Fabric`]. A blocking receive
//! that finds nothing in its mailbox parks the task by awaiting a
//! [`Park`] future; delivering a message to a parked rank makes it
//! runnable again. The executor always resumes the runnable task with
//! the smallest (virtual clock, rank) key, so the schedule is a pure
//! function of virtual time — independent of wall clock, host load and
//! thread scheduling.
//!
//! Everything here runs on one thread, so endpoints share the fabric
//! through an `Rc<RefCell<_>>`.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use sim::SimTime;

use crate::comm::{Message, Tag};

/// What a parked task is waiting for — kept for deadlock diagnostics.
#[derive(Debug, Clone)]
pub(crate) enum WaitKind {
    /// A selective receive for one (sender, tag) pair.
    From { from: usize, tag: Tag },
    /// An any-source receive over a tag set.
    Any { tags: Vec<Tag> },
}

impl WaitKind {
    fn describe(&self) -> String {
        match self {
            WaitKind::From { from, tag } => format!("(from={from}, tag={tag:?})"),
            WaitKind::Any { tags } => format!("any of {tags:?}"),
        }
    }
}

#[derive(Debug)]
enum TaskState {
    /// Ready to be polled: fresh, or woken by a delivery. `clock` is the
    /// node's virtual time when it last parked (zero for a fresh task) —
    /// the executor's scheduling key.
    Runnable { clock: SimTime },
    /// Waiting for a delivery.
    Parked { clock: SimTime, wait: WaitKind },
    /// The node function returned.
    Done,
}

/// The scheduling key of a runnable task: its parked virtual clock, then
/// its rank. Virtual clocks are non-negative finite floats, so the IEEE
/// bit pattern orders exactly like the value and can live in a `BTreeSet`.
fn sched_key(clock: SimTime, rank: usize) -> (u64, usize) {
    (clock.as_secs().to_bits(), rank)
}

/// The runtime's shared mail system: one mailbox and one scheduler
/// state per rank.
#[derive(Debug)]
pub(crate) struct Fabric {
    inboxes: Vec<VecDeque<Message>>,
    states: Vec<TaskState>,
    /// Ordered index over the `Runnable` entries of `states`, so picking
    /// the next task is O(log p) instead of an O(p) scan — the scan costs
    /// O(p² · messages) over a whole run and dominated wide-cluster
    /// simulations before the index existed.
    runnable: BTreeSet<(u64, usize)>,
    /// Current sub-communicator membership per rank (e.g. `"g3"` while a
    /// node runs a group-scoped collective, `"leaders"` during the
    /// inter-group exchange). Pure diagnostics: once sub-communicators
    /// exist, a deadlock report naming only global ranks is ambiguous, so
    /// parked ranks print their group too.
    groups: Vec<Option<String>>,
}

impl Fabric {
    pub(crate) fn new(p: usize) -> Rc<RefCell<Fabric>> {
        Rc::new(RefCell::new(Fabric {
            inboxes: (0..p).map(|_| VecDeque::new()).collect(),
            states: (0..p)
                .map(|_| TaskState::Runnable {
                    clock: SimTime::ZERO,
                })
                .collect(),
            runnable: (0..p).map(|rank| sched_key(SimTime::ZERO, rank)).collect(),
            groups: vec![None; p],
        }))
    }

    /// Labels `rank` with its current sub-communicator (`None` = the
    /// global communicator). Shows up in [`Self::deadlock_report`].
    pub(crate) fn set_group(&mut self, rank: usize, label: Option<String>) {
        self.groups[rank] = label;
    }

    /// Queues a message for `to`, waking it if parked. Per-sender FIFO
    /// order is preserved because each sender appends in program order
    /// and the executor never reorders a mailbox.
    pub(crate) fn deliver(&mut self, to: usize, msg: Message) {
        self.inboxes[to].push_back(msg);
        if let TaskState::Parked { clock, .. } = self.states[to] {
            self.states[to] = TaskState::Runnable { clock };
            self.runnable.insert(sched_key(clock, to));
        }
    }

    /// Moves every queued message for `rank` onto its endpoint's pending
    /// list; returns whether anything moved.
    pub(crate) fn drain_into(&mut self, rank: usize, pending: &mut Vec<Message>) -> bool {
        let inbox = &mut self.inboxes[rank];
        let moved = !inbox.is_empty();
        pending.extend(inbox.drain(..));
        moved
    }

    /// Drops `rank` from the runnable index if it is currently runnable
    /// (it keeps its *old* scheduling key while being polled).
    fn unschedule(&mut self, rank: usize) {
        if let TaskState::Runnable { clock } = self.states[rank] {
            self.runnable.remove(&sched_key(clock, rank));
        }
    }

    fn park(&mut self, rank: usize, clock: SimTime, wait: WaitKind) {
        self.unschedule(rank);
        self.states[rank] = TaskState::Parked { clock, wait };
    }

    pub(crate) fn mark_done(&mut self, rank: usize) {
        self.unschedule(rank);
        self.states[rank] = TaskState::Done;
    }

    /// The runnable rank with the smallest (parked clock, rank) key, or
    /// `None` if every live task is parked (deadlock) or done.
    pub(crate) fn next_runnable(&self) -> Option<usize> {
        self.runnable.first().map(|&(_, rank)| rank)
    }

    /// Panics unless `rank` parked itself before yielding — a task that
    /// returns `Pending` without registering a wait could never be woken.
    pub(crate) fn assert_parked(&self, rank: usize) {
        assert!(
            matches!(self.states[rank], TaskState::Parked { .. }),
            "node {rank} yielded to the event scheduler without parking"
        );
    }

    /// Whether any task still has work (used to tell deadlock from
    /// completion when `next_runnable` comes back empty).
    pub(crate) fn all_done(&self) -> bool {
        self.states.iter().all(|s| matches!(s, TaskState::Done))
    }

    /// A per-rank wait report for the deadlock panic.
    pub(crate) fn deadlock_report(&self) -> String {
        let mut out = String::from("cluster deadlocked; per-node waits:\n");
        for (rank, s) in self.states.iter().enumerate() {
            let group = match &self.groups[rank] {
                Some(label) => format!(" [comm group {label}]"),
                None => String::from(" [global comm]"),
            };
            match s {
                TaskState::Parked { clock, wait } => {
                    let _ = writeln!(
                        out,
                        "  node {rank}: parked at t={:.6}s waiting for {} ({} queued){group}",
                        clock.as_secs(),
                        wait.describe(),
                        self.inboxes[rank].len()
                    );
                }
                TaskState::Runnable { .. } => {
                    let _ = writeln!(out, "  node {rank}: runnable{group}");
                }
                TaskState::Done => {
                    let _ = writeln!(out, "  node {rank}: done");
                }
            }
        }
        out
    }
}

/// A one-shot yield point: the first poll registers the wait in the
/// fabric and suspends the task; once a delivery marks the rank runnable
/// the executor re-polls and the second poll completes.
pub(crate) struct Park {
    fabric: Rc<RefCell<Fabric>>,
    rank: usize,
    clock: SimTime,
    wait: Option<WaitKind>,
}

impl Park {
    pub(crate) fn new(
        fabric: Rc<RefCell<Fabric>>,
        rank: usize,
        clock: SimTime,
        wait: WaitKind,
    ) -> Park {
        Park {
            fabric,
            rank,
            clock,
            wait: Some(wait),
        }
    }
}

impl Future for Park {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match this.wait.take() {
            Some(wait) => {
                this.fabric.borrow_mut().park(this.rank, this.clock, wait);
                Poll::Pending
            }
            None => Poll::Ready(()),
        }
    }
}

/// Polls `fut` once with a no-op waker and unwraps the result: drives
/// endpoint code in unit tests whose messages were all delivered before
/// the receive, so it never parks.
#[cfg(test)]
pub(crate) fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(std::task::Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!("receive parked with no delivery pending"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Waker;

    fn msg(from: usize) -> Message {
        Message {
            from,
            tag: Tag::user(1),
            arrival: SimTime::ZERO,
            depart: SimTime::ZERO,
            bytes: vec![1, 2, 3],
        }
    }

    #[test]
    fn delivery_wakes_a_parked_task() {
        let fabric = Fabric::new(2);
        {
            let mut f = fabric.borrow_mut();
            f.park(1, SimTime::from_secs(3.0), WaitKind::Any { tags: vec![] });
            // Only rank 0 is runnable while 1 is parked.
            assert_eq!(f.next_runnable(), Some(0));
            f.mark_done(0);
            assert_eq!(f.next_runnable(), None);
            assert!(!f.all_done());
            f.deliver(1, msg(0));
            assert_eq!(f.next_runnable(), Some(1));
            let mut pending = Vec::new();
            assert!(f.drain_into(1, &mut pending));
            assert_eq!(pending.len(), 1);
            assert!(!f.drain_into(1, &mut pending));
        }
    }

    #[test]
    fn scheduler_prefers_smallest_clock_then_rank() {
        let fabric = Fabric::new(3);
        let mut f = fabric.borrow_mut();
        let t = SimTime::from_secs;
        f.park(0, t(5.0), WaitKind::Any { tags: vec![] });
        f.park(1, t(2.0), WaitKind::Any { tags: vec![] });
        f.park(2, t(2.0), WaitKind::Any { tags: vec![] });
        for rank in 0..3 {
            f.deliver(rank, msg(rank));
        }
        assert_eq!(f.next_runnable(), Some(1), "ties break by rank");
        f.mark_done(1);
        assert_eq!(f.next_runnable(), Some(2));
        f.mark_done(2);
        assert_eq!(f.next_runnable(), Some(0));
    }

    #[test]
    fn park_future_yields_once_then_completes() {
        let fabric = Fabric::new(1);
        let mut park = std::pin::pin!(Park::new(
            fabric.clone(),
            0,
            SimTime::ZERO,
            WaitKind::From {
                from: 0,
                tag: Tag::user(7)
            },
        ));
        let mut cx = Context::from_waker(Waker::noop());
        assert!(park.as_mut().poll(&mut cx).is_pending());
        fabric.borrow_mut().assert_parked(0);
        assert!(park.as_mut().poll(&mut cx).is_ready());
        let report = fabric.borrow_mut().deadlock_report();
        assert!(report.contains("node 0"), "{report}");
    }

    #[test]
    fn deadlock_report_names_group_membership() {
        let fabric = Fabric::new(3);
        let mut f = fabric.borrow_mut();
        f.set_group(0, Some("g0".into()));
        f.set_group(1, Some("leaders".into()));
        f.park(
            0,
            SimTime::from_secs(1.0),
            WaitKind::From {
                from: 1,
                tag: Tag::user(0x0200),
            },
        );
        f.park(1, SimTime::from_secs(2.0), WaitKind::Any { tags: vec![] });
        let report = f.deadlock_report();
        assert!(
            report.contains("node 0") && report.contains("[comm group g0]"),
            "{report}"
        );
        assert!(report.contains("[comm group leaders]"), "{report}");
        // Rank 2 never joined a sub-communicator: global.
        assert!(
            report.contains("node 2: runnable [global comm]"),
            "{report}"
        );
        // Leaving a group reverts to the global label.
        f.set_group(1, None);
        assert!(f.deadlock_report().contains("node 1: parked"));
        assert!(!f.deadlock_report().contains("leaders"), "label must clear");
    }

    #[test]
    fn block_on_drives_ready_futures() {
        assert_eq!(block_on(async { 2 + 2 }), 4);
    }
}
