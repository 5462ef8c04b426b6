//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around each public library call an operation
//! is made of. Spans live in memory until the run ends; then they are
//! checked for well-formedness, folded into per-layer times and written
//! out as Chrome trace-event JSON (Perfetto and `chrome://tracing` open it).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has been opened and not yet closed. Dropping it without
/// [`OpenSpan::close`] leaves it unrecorded, which the well-formedness
/// check reports as an unclosed span.
pub struct OpenSpan<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start: f64,
}

impl OpenSpan<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span and returns its duration in seconds.
    pub fn close(self) -> f64 {
        let end = self.tracer.now();
        self.tracer
            .spans
            .lock()
            .expect("span list poisoned")
            .push(Span {
                id: self.id,
                parent: self.parent,
                op: self.op,
                name: self.name,
                start: self.start,
                end,
            });
        end - self.start
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn open(&self, name: &'static str, op: u64, parent: Option<u64>) -> OpenSpan<'_> {
        OpenSpan {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start: self.now(),
        }
    }

    /// Every span closed so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        spans
    }

    /// Spans opened in total, closed or not.
    pub fn opened(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }
}

/// Checks that every opened span was closed, every parent exists and
/// belongs to the same operation, and every child lies inside its parent.
/// Returns the first violation.
pub fn check_well_formed(spans: &[Span], opened: u64) -> Result<(), String> {
    if spans.len() as u64 != opened {
        return Err(format!(
            "{} spans opened but {} closed",
            opened,
            spans.len()
        ));
    }
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end < s.start {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        let Some(pid) = s.parent else { continue };
        let Some(p) = by_id.get(&pid) else {
            return Err(format!("span {} ({}) has no parent {pid}", s.id, s.name));
        };
        if p.op != s.op {
            return Err(format!(
                "span {} ({}) and its parent differ in op",
                s.id, s.name
            ));
        }
        if s.start < p.start || s.end > p.end {
            return Err(format!(
                "span {} ({}) is not inside its parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
    }
    Ok(())
}

/// Sum over spans named `name` of their self time: duration minus the part
/// of it that the union of their children covers.
pub fn self_time(spans: &[Span], name: &str) -> f64 {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, s.start);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .sum()
}

/// Total duration of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

/// Writes the spans as Chrome trace-event JSON, one track per operation.
pub fn write_chrome_trace(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.op,
            s.start * 1e6,
            s.duration() * 1e6,
            s.id,
            parent
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: if parent.is_none() { "root" } else { "child" },
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            span(2, Some(0), 3.0, 6.0),
            span(3, Some(0), 8.0, 9.0),
        ];
        assert!((self_time(&spans, "root") - 4.0).abs() < 1e-12);
    }

    #[test]
    fn well_formedness_rejects_escaping_children_and_unclosed_spans() {
        let good = vec![span(0, None, 0.0, 2.0), span(1, Some(0), 0.5, 1.5)];
        assert!(check_well_formed(&good, 2).is_ok());
        assert!(check_well_formed(&good, 3).is_err());
        let escaping = vec![span(0, None, 0.0, 2.0), span(1, Some(0), 1.5, 2.5)];
        assert!(check_well_formed(&escaping, 2).is_err());
        let orphan = vec![span(1, Some(7), 0.0, 1.0)];
        assert!(check_well_formed(&orphan, 1).is_err());
    }
}
