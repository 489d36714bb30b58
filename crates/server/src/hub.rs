//! Per-job progress fan-out: serialized [`RunEvent`] JSONL lines that
//! late subscribers can replay from the start and live subscribers can
//! follow with blocking polls.
//!
//! While a job runs, its hub holds a bounded in-memory ring of the most
//! recent [`HUB_CAPACITY`] lines; a subscriber that falls further behind
//! observes a `skipped` count instead of the dropped lines. The server
//! publishes a job's lines one generation at a time
//! ([`ProgressHub::publish`]), so a live subscriber wakes once per
//! generation rather than once per event. Once the job
//! is terminal and its `events.jsonl` is flushed,
//! [`ProgressHub::finish_on_disk`] releases the ring: from then on polls
//! read the file, whose line `i` is stream offset `i`, so a subscriber
//! crossing the transition continues at its cursor and a finished job
//! keeps no event lines in memory.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use sacga::RunEvent;

/// Maximum lines retained per job before the ring drops its oldest.
pub const HUB_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct Inner {
    /// Stream offset of `lines[0]`.
    base: u64,
    lines: VecDeque<String>,
    /// Lines overwritten by the ring since the hub was created; equals
    /// `base`, but kept as an explicit lifetime total so observability
    /// surfaces (the `dse_hub_dropped_lines` gauge) read one field.
    dropped: u64,
    /// The file holding the whole stream once the job is terminal and
    /// the ring released.
    disk: Option<PathBuf>,
}

impl Inner {
    fn end(&self) -> u64 {
        self.base + self.lines.len() as u64
    }
}

/// One job's progress stream (see module docs).
#[derive(Debug)]
pub struct ProgressHub {
    inner: Mutex<Inner>,
    grew: Condvar,
}

/// One poll's worth of progress lines.
#[derive(Debug, PartialEq, Eq)]
pub struct HubPoll {
    /// Lines since the polled cursor, oldest first.
    pub lines: Vec<String>,
    /// Cursor to pass to the next poll.
    pub next: u64,
    /// Lines the subscriber missed because the ring dropped them.
    pub skipped: u64,
    /// Whether the job reached a terminal state; no further lines will
    /// be published after the ones returned here.
    pub done: bool,
}

/// The events of a job's `events.jsonl`, one per intact line (a torn or
/// unreadable line is skipped, a missing file reads as empty).
pub(crate) fn read_events(path: &Path) -> Vec<RunEvent> {
    fs::read_to_string(path)
        .map(|text| RunEvent::parse_jsonl_lossy(&text).events)
        .unwrap_or_default()
}

impl ProgressHub {
    /// An empty stream.
    pub fn new() -> Self {
        ProgressHub {
            inner: Mutex::new(Inner {
                base: 0,
                lines: VecDeque::new(),
                dropped: 0,
                disk: None,
            }),
            grew: Condvar::new(),
        }
    }

    /// Appends `lines` in order and wakes blocked subscribers once, so a
    /// subscriber sees them as one batch.
    pub fn publish(&self, lines: Vec<String>) {
        if lines.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        for line in lines {
            if inner.lines.len() == HUB_CAPACITY {
                inner.lines.pop_front();
                inner.base += 1;
                inner.dropped += 1;
            }
            inner.lines.push_back(line);
        }
        drop(inner);
        self.grew.notify_all();
    }

    /// Lifetime count of lines the ring overwrote; any subscriber that
    /// started from cursor 0 has missed at least these.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Lines held in memory (none once the stream is on disk).
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.inner.lock().unwrap().lines.len()
    }

    /// Marks the stream terminal, releases the ring and serves every
    /// later poll from `events`, which must already hold the complete
    /// stream (line `i` at offset `i`); wakes blocked subscribers.
    pub fn finish_on_disk(&self, events: PathBuf) {
        let mut inner = self.inner.lock().unwrap();
        inner.lines = VecDeque::new();
        inner.disk = Some(events);
        drop(inner);
        self.grew.notify_all();
    }

    /// The last `n` retained lines and the stream's total length, or
    /// `None` once the stream is on disk.
    pub(crate) fn tail(&self, n: usize) -> Option<(Vec<String>, u64)> {
        let inner = self.inner.lock().unwrap();
        if inner.disk.is_some() {
            return None;
        }
        let skip = inner.lines.len().saturating_sub(n);
        Some((
            inner.lines.iter().skip(skip).cloned().collect(),
            inner.end(),
        ))
    }

    /// Returns all lines at offsets `>= cursor`, blocking up to
    /// `timeout` when none are available yet and the stream is not
    /// terminal. A `cursor` of 0 replays the retained history (the
    /// whole stream once it is on disk).
    pub fn poll(&self, cursor: u64, timeout: Duration) -> HubPoll {
        let mut inner = self.inner.lock().unwrap();
        if cursor >= inner.end() && inner.disk.is_none() {
            let (guard, _) = self.grew.wait_timeout(inner, timeout).unwrap();
            inner = guard;
        }
        if let Some(path) = inner.disk.clone() {
            drop(inner);
            let skip = usize::try_from(cursor).unwrap_or(usize::MAX);
            let lines: Vec<String> = read_events(&path)
                .iter()
                .skip(skip)
                .map(RunEvent::to_json)
                .collect();
            return HubPoll {
                next: cursor + lines.len() as u64,
                lines,
                skipped: 0,
                done: true,
            };
        }
        let start = cursor.max(inner.base);
        let skipped = start - cursor;
        let lines: Vec<String> = inner
            .lines
            .iter()
            .skip((start - inner.base) as usize)
            .cloned()
            .collect();
        HubPoll {
            next: start + lines.len() as u64,
            lines,
            skipped,
            done: false,
        }
    }
}

impl Default for ProgressHub {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_history_then_follows() {
        let hub = ProgressHub::new();
        hub.publish(vec!["a".into()]);
        hub.publish(vec!["b".into()]);
        let p = hub.poll(0, Duration::ZERO);
        assert_eq!(p.lines, vec!["a", "b"]);
        assert_eq!(p.next, 2);
        assert!(!p.done);
        hub.publish(vec!["c".into()]);
        let p = hub.poll(p.next, Duration::ZERO);
        assert_eq!(p.lines, vec!["c"]);
        assert!(!p.done);
    }

    #[test]
    fn poll_after_done_returns_immediately() {
        let hub = ProgressHub::new();
        // A job that ended before writing any event has no file.
        hub.finish_on_disk(std::env::temp_dir().join("dse-server-hub-no-such-file.jsonl"));
        let p = hub.poll(0, Duration::from_secs(5));
        assert!(p.lines.is_empty());
        assert!(p.done);
    }

    #[test]
    fn overflow_reports_skipped_lines() {
        let hub = ProgressHub::new();
        for i in 0..(HUB_CAPACITY + 10) {
            hub.publish(vec![format!("{i}")]);
        }
        let p = hub.poll(0, Duration::ZERO);
        assert_eq!(p.skipped, 10);
        assert_eq!(p.lines.len(), HUB_CAPACITY);
        assert_eq!(p.lines[0], "10");
        assert_eq!(hub.dropped(), 10);
    }

    fn tmp_events(tag: &str, events: &[RunEvent]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("dse-server-hub-{tag}-{}.jsonl", std::process::id()));
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        fs::write(&path, text).unwrap();
        path
    }

    fn event(generation: usize) -> RunEvent {
        RunEvent::PartitionFeasible {
            generation,
            partition: 1,
        }
    }

    #[test]
    fn finish_on_disk_releases_the_ring_and_continues_at_the_cursor() {
        let events: Vec<RunEvent> = (0..5).map(event).collect();
        let path = tmp_events("disk", &events);
        let hub = ProgressHub::new();
        for e in &events[..3] {
            hub.publish(vec![e.to_json()]);
        }
        let first = hub.poll(0, Duration::ZERO);
        assert_eq!(first.lines.len(), 3);
        for e in &events[3..] {
            hub.publish(vec![e.to_json()]);
        }
        hub.finish_on_disk(path.clone());
        assert_eq!(hub.retained(), 0);
        assert!(hub.tail(4).is_none());
        let rest = hub.poll(first.next, Duration::from_secs(5));
        assert!(rest.done);
        assert_eq!(rest.skipped, 0);
        assert_eq!(rest.next, 5);
        let expected: Vec<String> = events[3..].iter().map(RunEvent::to_json).collect();
        assert_eq!(rest.lines, expected);
        assert_eq!(hub.poll(0, Duration::ZERO).lines.len(), 5);
        assert!(hub.poll(5, Duration::ZERO).lines.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tail_returns_the_newest_lines_and_the_total() {
        let hub = ProgressHub::new();
        for i in 0..5 {
            hub.publish(vec![format!("{i}")]);
        }
        assert_eq!(hub.tail(2), Some((vec!["3".into(), "4".into()], 5)));
        assert_eq!(hub.tail(9).unwrap().0.len(), 5);
    }

    #[test]
    fn batches_append_in_order_and_overflow_like_single_lines() {
        let one = ProgressHub::new();
        let batch = ProgressHub::new();
        let lines: Vec<String> = (0..(HUB_CAPACITY + 3)).map(|i| format!("{i}")).collect();
        for line in &lines {
            one.publish(vec![line.clone()]);
        }
        batch.publish(Vec::new());
        batch.publish(lines[..5].to_vec());
        batch.publish(lines[5..].to_vec());
        assert_eq!(batch.poll(0, Duration::ZERO), one.poll(0, Duration::ZERO));
        assert_eq!(batch.dropped(), 3);
    }

    #[test]
    fn dropped_is_zero_until_overflow() {
        let hub = ProgressHub::new();
        hub.publish(vec!["a".into()]);
        assert_eq!(hub.dropped(), 0);
    }
}
