//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self time derived from them.
//!
//! A span names the layer call, carries the id of the domain or request
//! it served, its start and end on one clock, and the index of the span
//! that caused it. Spans are only collected in the traced run; the timed
//! runs never construct a [`Spans`] buffer.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's or one domain's span buffer, timed against a shared
/// epoch so buffers from different threads merge onto one clock.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`]. Returns its index.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }
}

/// Append `spans` (one buffer's spans, parents indexing into it) to
/// `into`, re-pointing their parent indices.
pub fn append(into: &mut Vec<Span>, spans: &[Span]) {
    let base = into.len();
    into.extend(spans.iter().map(|span| Span {
        parent: span.parent.map(|p| p + base),
        ..*span
    }));
}

/// Per-name totals over a span set: total duration and self time
/// (duration minus the part of its interval covered by child spans).
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let covered = covered_ns(span, children[i].iter().map(|&c| &spans[c]));
        let slot = out.entry(span.name).or_default();
        slot.total_ns += span.duration_ns();
        slot.self_ns += span.duration_ns().saturating_sub(covered);
    }
    out
}

/// Nanoseconds of `parent`'s interval covered by the union of the
/// `children` intervals (clipped to the parent).
pub fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = 0u64;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("domain", None, 0, 100),
            span("match", Some(0), 10, 60),
            // Overlaps the first child: counted once.
            span("merge", Some(0), 50, 70),
            // Runs past the parent's end: clipped.
            span("label", Some(0), 90, 130),
        ];
        let times = layer_times(&spans);
        assert_eq!(times["domain"].self_ns, 100 - (60 + 10));
        assert_eq!(times["match"].self_ns, 50);
        assert_eq!(times["label"].total_ns, 40);
    }

    #[test]
    fn append_repoints_parents() {
        let mut all = vec![span("x", None, 0, 1)];
        append(
            &mut all,
            &[span("domain", None, 0, 10), span("match", Some(0), 1, 5)],
        );
        assert_eq!(all[2].parent, Some(1));
    }
}
