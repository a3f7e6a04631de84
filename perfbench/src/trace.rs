//! In-memory span recording for the traced run.
//!
//! A span is a named interval on the benchmark's clock with an optional
//! parent. Spans are recorded from the benchmark's own files, around the
//! calls it makes into each layer, kept in memory, and written out once
//! the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Append-only span store sharing one clock origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant every span is measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds from the origin to `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
        };
        self.push(span)
    }

    /// Records a span given in origin-relative nanoseconds.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The last of `candidates` (span indices sorted by start) that
    /// starts at or before `start`, if it also ends at or after `end`.
    pub fn enclosing(&self, candidates: &[usize], start: u64, end: u64) -> Option<usize> {
        let pos = candidates.partition_point(|&i| self.spans[i].start <= start);
        let idx = *candidates.get(pos.checked_sub(1)?)?;
        (self.spans[idx].end >= end).then_some(idx)
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children count
    /// once; child time outside the parent's interval is not subtracted).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = span.start;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(span.end);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                span.duration() - covered.min(span.duration())
            })
            .collect()
    }

    /// Writes every span as a tab-separated line:
    /// `index name start_ns end_ns parent self_ns`.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{own}",
                s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(Instant::now());
        let root = t.push(span("root", 0, 100, None));
        // Two disjoint children: 10 + 20 covered.
        let a = t.push(span("a", 10, 20, Some(root)));
        t.push(span("b", 50, 70, Some(root)));
        // A grandchild counts against `a`, not against `root`.
        t.push(span("c", 12, 18, Some(a)));
        let own = t.self_times();
        assert_eq!(own, vec![70, 4, 20, 6]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let mut t = Tracer::new(Instant::now());
        let root = t.push(span("root", 100, 200, None));
        t.push(span("x", 90, 130, Some(root))); // 30 inside
        t.push(span("y", 120, 150, Some(root))); // overlaps x: +20
        t.push(span("z", 190, 260, Some(root))); // 10 inside
        assert_eq!(t.self_times()[0], 100 - 30 - 20 - 10);
    }

    #[test]
    fn span_without_children_keeps_its_duration() {
        let mut t = Tracer::new(Instant::now());
        t.push(span("leaf", 5, 9, None));
        assert_eq!(t.self_times(), vec![4]);
    }

    #[test]
    fn enclosing_finds_the_containing_span() {
        let mut t = Tracer::new(Instant::now());
        let a = t.push(span("tick", 0, 10, None));
        let b = t.push(span("tick", 20, 30, None));
        let ticks = [a, b];
        assert_eq!(t.enclosing(&ticks, 2, 5), Some(a));
        assert_eq!(t.enclosing(&ticks, 21, 30), Some(b));
        assert_eq!(t.enclosing(&ticks, 12, 14), None);
        assert_eq!(t.enclosing(&ticks, 25, 35), None);
    }

    #[test]
    fn tsv_lists_every_span() {
        let mut t = Tracer::new(Instant::now());
        let r = t.push(span("r", 0, 10, None));
        t.push(span("k", 2, 4, Some(r)));
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("1\tk\t2\t4\t0\t2"));
    }
}
