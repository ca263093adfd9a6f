//! Spans recorded around calls into the program's layers.
//!
//! A span has a name, start and end, the process CPU consumed while it was
//! open, and the span that was open when it started on the same thread
//! (its parent). Work fanned out to worker threads carries its parent
//! explicitly through [`with_parent`]. Spans are kept in memory and
//! written out when the replay ends.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU (all threads) while the span was open.
    pub cpu_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static RECORDED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    OPEN.with(|s| s.borrow_mut().push(id));
    let cpu0 = crate::sys::process_cpu();
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let cpu_ns = (crate::sys::process_cpu() - cpu0).as_nanos() as u64;
    OPEN.with(|s| s.borrow_mut().pop());
    RECORDED
        .lock()
        .expect("span recorder poisoned by a panic")
        .push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            cpu_ns,
        });
    out
}

/// The innermost span open on this thread.
pub fn current() -> Option<u64> {
    OPEN.with(|s| s.borrow().last().copied())
}

/// Run `f` on this (worker) thread as if `parent` were the open span.
pub fn with_parent<R>(parent: Option<u64>, f: impl FnOnce() -> R) -> R {
    let saved =
        OPEN.with(|s| std::mem::replace(&mut *s.borrow_mut(), parent.into_iter().collect()));
    let out = f();
    OPEN.with(|s| *s.borrow_mut() = saved);
    out
}

/// Every span recorded so far, in start order.
pub fn take() -> Vec<Span> {
    let mut v = std::mem::take(&mut *RECORDED.lock().expect("span recorder poisoned by a panic"));
    v.sort_by_key(|s| (s.start_ns, s.id));
    v
}

/// Total length covered by the union of `intervals`, each clipped to
/// `[lo, hi]`.
pub fn union_ns(intervals: impl IntoIterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Concurrent children overlap, so the covered part is
/// the union of their intervals, not their sum.
pub fn self_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| union_ns(c.iter().copied(), s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Self seconds summed per span name.
pub fn self_s_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_ns(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += own[&s.id] as f64 / 1e9;
    }
    out
}

/// One span as a JSON line.
pub fn to_json_line(trace_id: &str, s: &Span) -> String {
    format!(
        "{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
        crate::json::string(trace_id),
        s.id,
        s.parent.map_or("null".to_string(), |p| p.to_string()),
        crate::json::string(s.name),
        s.start_ns,
        s.end_ns,
        s.cpu_ns
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            cpu_ns: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_their_children() {
        // root [0,100) ⊃ a [10,60) ⊃ b [20,30)
        let spans = [
            sp(1, None, "root", 0, 100),
            sp(2, Some(1), "a", 10, 60),
            sp(3, Some(2), "b", 20, 30),
        ];
        let own = self_ns(&spans);
        assert_eq!(own[&1], 50);
        assert_eq!(own[&2], 40);
        assert_eq!(own[&3], 10);
        // Self times tile the root exactly.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn sibling_spans_are_each_subtracted_once() {
        // Sequential siblings [10,20) and [30,50); two overlapping
        // (concurrent) siblings [60,80) and [70,90) cover 30, not 40.
        let spans = [
            sp(1, None, "root", 0, 100),
            sp(2, Some(1), "x", 10, 20),
            sp(3, Some(1), "x", 30, 50),
            sp(4, Some(1), "y", 60, 80),
            sp(5, Some(1), "y", 70, 90),
        ];
        let own = self_ns(&spans);
        assert_eq!(own[&1], 100 - 10 - 20 - 30);
        let by_name = self_s_by_name(&spans);
        assert!((by_name["x"] - 30e-9).abs() < 1e-15);
        assert!((by_name["y"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn union_clips_and_merges() {
        assert_eq!(union_ns([(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_ns([(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_ns([], 0, 10), 0);
    }

    #[test]
    fn recorder_links_parents_across_threads() {
        let (root, inner) = span("t.root", || {
            let root = current();
            let inner = std::thread::scope(|s| {
                s.spawn(|| with_parent(root, || span("t.child", current)))
                    .join()
                    .expect("worker panicked")
            });
            (root, inner)
        });
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("t."))
            .collect();
        let child = spans
            .iter()
            .find(|s| s.name == "t.child")
            .expect("child recorded");
        assert_eq!(child.parent, root);
        assert_eq!(Some(child.id), inner);
        assert!(spans
            .iter()
            .any(|s| s.name == "t.root" && s.parent.is_none()));
    }
}
