//! `mlcomp-report` — renders a human-readable profile from an
//! `MLCOMP_TRACE` JSONL file (see DESIGN.md §11 for the schema).
//!
//! ```text
//! mlcomp-report trace.jsonl [--top N]
//! ```
//!
//! Sections (each printed only when the trace contains the matching
//! events): top-N slowest span paths by self time, per-phase IR impact
//! (with sandbox sessions' snapshot copies as their own row),
//! extraction throughput, failure breakdown by fault kind, model-search
//! accuracy, and an RL learning-curve sparkline.
//!
//! Exits non-zero when the trace is missing, empty, or contains a
//! malformed line — CI uses this to assert that an instrumented run
//! actually produced a well-formed trace.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn get_num(obj: &serde_json::Value, key: &str) -> Option<f64> {
    obj.as_object().and_then(|o| o.get(key)).and_then(num)
}

fn get_str<'a>(obj: &'a Value, key: &str) -> Option<&'a str> {
    obj.as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_str)
}

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_ns: f64,
}

#[derive(Default)]
struct PhaseAgg {
    count: u64,
    total_ns: f64,
    rollbacks: u64,
    insts_removed: i64,
    verify_ns: f64,
}

/// The phase-table row of `passes.snapshot` spans; parenthesised so no
/// phase name can collide with it.
const SNAPSHOT_ROW: &str = "(snapshot)";

/// One flushed histogram summary: (count, min, max, mean, p50, p90, p99).
type HistRow = (u64, f64, f64, f64, f64, f64, f64);

#[derive(Default)]
struct Report {
    events: u64,
    spans: BTreeMap<String, SpanAgg>,
    phases: BTreeMap<String, PhaseAgg>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Vec<HistRow>>,
    points: BTreeMap<String, Vec<(f64, f64)>>,
    extraction: Option<(f64, f64, f64, f64)>, // (dur_ns, samples, failed, quarantined)
}

impl Report {
    fn ingest(&mut self, line_no: usize, line: &str) -> Result<(), String> {
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {line_no}: malformed JSON: {e}"))?;
        let kind = get_str(&v, "t").ok_or_else(|| format!("line {line_no}: missing \"t\""))?;
        self.events += 1;
        match kind {
            "span" => {
                let path = get_str(&v, "path")
                    .ok_or_else(|| format!("line {line_no}: span without path"))?
                    .to_string();
                let dur = get_num(&v, "dur_ns")
                    .ok_or_else(|| format!("line {line_no}: span without dur_ns"))?;
                let agg = self.spans.entry(path).or_default();
                agg.count += 1;
                agg.total_ns += dur;
                let name = get_str(&v, "name").unwrap_or_default();
                let fields = v.as_object().and_then(|o| o.get("fields"));
                if name == "phase" {
                    if let Some(f) = fields {
                        let phase = get_str(f, "phase").unwrap_or("?").to_string();
                        let p = self.phases.entry(phase).or_default();
                        p.count += 1;
                        p.total_ns += dur;
                        if f.as_object().and_then(|o| o.get("rollback")) == Some(&Value::Bool(true))
                        {
                            p.rollbacks += 1;
                        }
                        let before = get_num(f, "insts_before").unwrap_or(0.0);
                        let after = get_num(f, "insts_after").unwrap_or(before);
                        p.insts_removed += (before - after) as i64;
                        p.verify_ns += get_num(f, "verify_ns").unwrap_or(0.0);
                    }
                } else if name == "passes.snapshot" {
                    // A session's rollback copy, timed outside any phase.
                    let p = self.phases.entry(SNAPSHOT_ROW.to_string()).or_default();
                    p.count += 1;
                    p.total_ns += dur;
                } else if name == "extraction" {
                    if let Some(f) = fields {
                        let samples = get_num(f, "samples").unwrap_or(0.0);
                        let failed = get_num(f, "failed").unwrap_or(0.0);
                        let quarantined = get_num(f, "quarantined").unwrap_or(0.0);
                        self.extraction = Some((dur, samples, failed, quarantined));
                    }
                }
            }
            "counter" => {
                let name = get_str(&v, "name")
                    .ok_or_else(|| format!("line {line_no}: counter without name"))?;
                let value = get_num(&v, "value")
                    .ok_or_else(|| format!("line {line_no}: counter without value"))?;
                *self.counters.entry(name.to_string()).or_insert(0) += value as u64;
            }
            "hist" => {
                let name = get_str(&v, "name")
                    .ok_or_else(|| format!("line {line_no}: hist without name"))?;
                let row = (
                    get_num(&v, "count").unwrap_or(0.0) as u64,
                    get_num(&v, "min").unwrap_or(f64::NAN),
                    get_num(&v, "max").unwrap_or(f64::NAN),
                    get_num(&v, "mean").unwrap_or(f64::NAN),
                    get_num(&v, "p50").unwrap_or(f64::NAN),
                    get_num(&v, "p90").unwrap_or(f64::NAN),
                    get_num(&v, "p99").unwrap_or(f64::NAN),
                );
                self.hists.entry(name.to_string()).or_default().push(row);
            }
            "point" => {
                let series = get_str(&v, "series")
                    .ok_or_else(|| format!("line {line_no}: point without series"))?;
                let x = get_num(&v, "x").unwrap_or(f64::NAN);
                let y = get_num(&v, "y").unwrap_or(f64::NAN);
                self.points
                    .entry(series.to_string())
                    .or_default()
                    .push((x, y));
            }
            other => return Err(format!("line {line_no}: unknown event type `{other}`")),
        }
        Ok(())
    }

    /// Self time per span path: total minus the totals of *direct* child
    /// paths (one more `/`-separated segment), clamped at zero — overlap
    /// from concurrent children can exceed the parent's wall time.
    fn self_times(&self) -> BTreeMap<&str, f64> {
        let mut selfs: BTreeMap<&str, f64> = self
            .spans
            .iter()
            .map(|(p, a)| (p.as_str(), a.total_ns))
            .collect();
        for (path, agg) in &self.spans {
            if let Some(idx) = path.rfind('/') {
                let parent = &path[..idx];
                if let Some(s) = selfs.get_mut(parent) {
                    *s = (*s - agg.total_ns).max(0.0);
                }
            }
        }
        selfs
    }

    fn print(&self, top: usize) {
        println!("== mlcomp-report: {} events ==", self.events);

        if !self.spans.is_empty() {
            let selfs = self.self_times();
            let mut rows: Vec<(&str, f64, &SpanAgg)> = self
                .spans
                .iter()
                .map(|(p, a)| (p.as_str(), selfs[p.as_str()], a))
                .collect();
            rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
            println!(
                "\n-- top {} span paths by self time --",
                top.min(rows.len())
            );
            println!(
                "{:<40} {:>7} {:>12} {:>12}",
                "path", "count", "self", "total"
            );
            for (path, self_ns, agg) in rows.iter().take(top) {
                println!(
                    "{:<40} {:>7} {:>12} {:>12}",
                    path,
                    agg.count,
                    fmt_ns(*self_ns),
                    fmt_ns(agg.total_ns)
                );
            }
        }

        if !self.phases.is_empty() {
            println!("\n-- phases --");
            println!(
                "{:<16} {:>6} {:>12} {:>10} {:>10} {:>12}",
                "phase", "runs", "total", "rollbacks", "insts-", "verify"
            );
            let mut rows: Vec<(&String, &PhaseAgg)> = self.phases.iter().collect();
            rows.sort_by(|a, b| b.1.total_ns.total_cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
            for (phase, p) in rows {
                println!(
                    "{:<16} {:>6} {:>12} {:>10} {:>10} {:>12}",
                    phase,
                    p.count,
                    fmt_ns(p.total_ns),
                    p.rollbacks,
                    p.insts_removed,
                    fmt_ns(p.verify_ns)
                );
            }
        }

        if let Some((dur_ns, samples, failed, quarantined)) = self.extraction {
            println!("\n-- extraction --");
            let secs = dur_ns / 1e9;
            let items = samples + failed;
            println!(
                "items: {items:.0} ok+failed ({samples:.0} ok, {failed:.0} failed, \
                 {quarantined:.0} quarantined phases) in {secs:.2}s"
            );
            if secs > 0.0 {
                println!("throughput: {:.1} items/s", items / secs);
            }
        }

        let faults: Vec<(&String, &u64)> = self
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("extraction.fault."))
            .collect();
        if !faults.is_empty() {
            println!("\n-- failure breakdown --");
            for (k, v) in faults {
                println!("{:<40} {v}", k.trim_start_matches("extraction.fault."));
            }
        }

        let other: Vec<(&String, &u64)> = self
            .counters
            .iter()
            .filter(|(k, _)| !k.starts_with("extraction.fault."))
            .collect();
        if !other.is_empty() {
            println!("\n-- counters --");
            for (k, v) in other {
                println!("{k:<40} {v}");
            }
        }

        for (name, rows) in &self.hists {
            println!("\n-- histogram: {name} --");
            for (count, min, max, mean, p50, p90, p99) in rows {
                println!(
                    "n={count} min={min:.4} max={max:.4} mean={mean:.4} \
                     p50={p50:.4} p90={p90:.4} p99={p99:.4}"
                );
            }
        }

        if let Some(curve) = self.points.get("rl.mean_return") {
            let mut curve = curve.clone();
            curve.sort_by(|a, b| a.0.total_cmp(&b.0));
            let ys: Vec<f64> = curve.iter().map(|(_, y)| *y).collect();
            println!("\n-- RL learning curve (mean return per batch) --");
            println!("{}", sparkline(&ys));
            if let (Some(first), Some(last)) = (ys.first(), ys.last()) {
                println!("batches: {}  first: {first:.3}  last: {last:.3}", ys.len());
            }
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn sparkline(ys: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = ys.iter().copied().filter(|y| y.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = (max - min).max(f64::MIN_POSITIVE);
    ys.iter()
        .map(|y| {
            if !y.is_finite() {
                return ' ';
            }
            let t = ((y - min) / range * 7.0).round() as usize;
            BARS[t.min(7)]
        })
        .collect()
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let mut path: Option<String> = None;
    let mut top = 15usize;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => {
                top = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or("--top needs a number")?;
            }
            "--help" | "-h" => {
                println!("usage: mlcomp-report <trace.jsonl> [--top N]");
                return Ok(());
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let path = path.ok_or("usage: mlcomp-report <trace.jsonl> [--top N]")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut report = Report::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        report.ingest(i + 1, line)?;
    }
    if report.events == 0 {
        return Err(format!("{path}: trace is empty — was MLCOMP_TRACE set?"));
    }
    report.print(top);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mlcomp-report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingests_every_event_kind_and_rejects_garbage() {
        let mut r = Report::default();
        let lines = [
            r#"{"t":"span","name":"extraction","path":"extraction","start_ns":0,"dur_ns":2000000000,"tid":0,"fields":{"samples":10,"failed":2,"quarantined":1}}"#,
            r#"{"t":"span","name":"phase","path":"extraction/phase","start_ns":1,"dur_ns":500,"tid":0,"fields":{"phase":"adce","insts_before":6,"insts_after":5,"rollback":false,"verify_ns":10}}"#,
            r#"{"t":"span","name":"passes.snapshot","path":"extraction/passes.snapshot","start_ns":0,"dur_ns":40,"tid":0,"fields":{}}"#,
            r#"{"t":"counter","name":"extraction.fault.fuel_exhaustion","value":3}"#,
            r#"{"t":"hist","name":"search.accuracy","count":4,"min":0.1,"max":0.9,"mean":0.5,"p50":0.5,"p90":0.8,"p99":0.9}"#,
            r#"{"t":"point","series":"rl.mean_return","x":6.0,"y":1.5}"#,
        ];
        for (i, l) in lines.iter().enumerate() {
            r.ingest(i + 1, l).unwrap();
        }
        assert_eq!(r.events, 6);
        assert_eq!(r.spans["extraction"].count, 1);
        assert_eq!(r.phases["adce"].insts_removed, 1);
        let snapshot = &r.phases[SNAPSHOT_ROW];
        assert_eq!((snapshot.count, snapshot.total_ns), (1, 40.0));
        assert_eq!(r.counters["extraction.fault.fuel_exhaustion"], 3);
        assert_eq!(r.points["rl.mean_return"], vec![(6.0, 1.5)]);
        assert!(r.extraction.is_some());
        assert!(r.ingest(8, "not json").is_err());
        assert!(r.ingest(9, r#"{"t":"mystery"}"#).is_err());
        assert!(r
            .ingest(10, r#"{"t":"gauge","name":"pool.queue_depth","value":4.0}"#)
            .is_err());
    }

    #[test]
    fn self_time_subtracts_direct_children_and_clamps() {
        let mut r = Report::default();
        for (path, dur) in [
            ("extraction", 1000u64),
            ("extraction/phase", 300),
            ("extraction/phase", 200),
            ("extraction/weird", 900),
        ] {
            let line = format!(
                r#"{{"t":"span","name":"x","path":"{path}","start_ns":0,"dur_ns":{dur},"tid":0,"fields":{{}}}}"#
            );
            r.ingest(1, &line).unwrap();
        }
        let selfs = r.self_times();
        // 1000 − (300+200) − 900 clamps to 0.
        assert_eq!(selfs["extraction"], 0.0);
        assert_eq!(selfs["extraction/phase"], 500.0);
    }

    #[test]
    fn sparkline_spans_the_range() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }
}
