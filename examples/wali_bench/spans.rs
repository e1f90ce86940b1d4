//! In-memory span recorder for the `--trace` pass.
//!
//! One `sample` span per timed sample, with one child span around each
//! call into a layer (`wasm.decode`, `wali.runner_new`, …). Spans are
//! kept in memory and written as JSON lines when the workload ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the per-sample root span.
pub const SAMPLE: &str = "sample";

pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a `sample` root.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one sample.
    pub sample: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

/// An open `sample` span: calls made through it become its children.
pub struct Scope<'a> {
    rec: &'a mut Spans,
    root: u32,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens the root span of sample `sample`; [`Scope::end`] closes it.
    pub fn begin_sample(&mut self, sample: u32) -> Scope<'_> {
        let root = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: SAMPLE,
            parent: None,
            sample,
            start_ns,
            end_ns: start_ns,
        });
        Scope { rec: self, root }
    }

    /// Durations of every span called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Sum over `names` of the median duration of the spans so called, in
    /// µs: the parts add up to the whole by construction.
    pub fn median_sum_us(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|name| crate::stats::median(self.durations_us(name)))
            .sum()
    }

    /// Self time of every `sample` span: its duration minus the part its
    /// children cover, in µs.
    pub fn sample_self_us(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.duration_us();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.parent.is_none())
            .map(|(s, c)| s.duration_us() - c)
            .collect()
    }

    /// Writes one JSON object per span, creating the parent directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"sample\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.sample, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

impl Scope<'_> {
    /// Runs `f` inside a child span called `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.rec.now_ns();
        let v = f();
        let end_ns = self.rec.now_ns();
        let sample = self.rec.spans[self.root as usize].sample;
        self.rec.spans.push(Span {
            name,
            parent: Some(self.root),
            sample,
            start_ns,
            end_ns,
        });
        v
    }

    /// Closes the `sample` span.
    pub fn end(self) {
        self.rec.spans[self.root as usize].end_ns = self.rec.now_ns();
    }
}

/// Runs `f` under `scope` when tracing, bare otherwise — the untraced
/// pass must not even read the clock around layer calls.
pub fn call<T>(scope: &mut Option<Scope<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match scope {
        Some(s) => s.call(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_nest_inside_sample_and_sum_to_at_most_its_duration() {
        let mut rec = Spans::new();
        for sample in 0..3 {
            let mut scope = Some(rec.begin_sample(sample));
            spin(20);
            assert_eq!(call(&mut scope, "a", || 7), 7);
            call(&mut scope, "b", || spin(50));
            spin(20);
            scope.expect("tracing").end();
        }
        assert_eq!(rec.len(), 9);
        for root in rec.spans.iter().filter(|s| s.parent.is_none()) {
            assert_eq!(root.name, SAMPLE);
        }
        let mut child_sum = [0.0; 3];
        for s in rec.spans.iter() {
            let Some(p) = s.parent else { continue };
            let root = &rec.spans[p as usize];
            assert_eq!(root.sample, s.sample, "a span of one sample shares its id");
            assert!(root.start_ns <= s.start_ns && s.end_ns <= root.end_ns);
            assert!(s.start_ns <= s.end_ns);
            child_sum[s.sample as usize] += s.duration_us();
        }
        let roots = rec.durations_us(SAMPLE);
        for (i, self_us) in rec.sample_self_us().iter().enumerate() {
            assert!(child_sum[i] <= roots[i]);
            assert!((roots[i] - child_sum[i] - self_us).abs() < 1e-6);
            assert!(*self_us >= 40.0, "two 20 us gaps are unattributed");
        }
        assert!(rec.durations_us("b").iter().all(|d| *d >= 50.0));
    }

    #[test]
    fn untraced_call_records_nothing_and_jsonl_has_one_line_per_span() {
        assert_eq!(call(&mut None, "x", || 3), 3);
        let mut rec = Spans::new();
        let mut scope = rec.begin_sample(0);
        scope.call("a", || ());
        scope.end();
        // Under a git-ignored `target/`, unique per test process.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/wali_bench_test")
            .join(format!("spans_{}.jsonl", std::process::id()));
        rec.write_jsonl(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).expect("clean up");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"parent\":null,\"sample\":0,\"name\":\"sample\""));
        assert!(lines[1].starts_with("{\"id\":1,\"parent\":0,\"sample\":0,\"name\":\"a\""));
    }
}
