//! `mlcomp-serve` — train-and-export / load-and-serve CLI around the
//! artifact-bundle deployment layer (DESIGN.md §12.4).
//!
//! ```text
//! mlcomp-serve export --out bundle.json [--requests-out reqs.jsonl]
//!                     [--apps dedup,vips] [--full]
//! mlcomp-serve serve --bundle bundle.json [--batch N] [--queue N] [--threads N]
//! ```
//!
//! `export` trains the MLComp pipeline end to end (quick configuration by
//! default; `--full` for the paper's Table V settings) and writes the
//! validated bundle; with `--requests-out` it also writes one JSONL
//! selection request per benchmark program, ready to pipe into `serve`.
//!
//! `serve` imports a bundle (refusing corrupted, version-skewed or
//! registry-drifted files with a typed error), then reads JSONL requests
//! from stdin — `{"id": N, "features": […]}` — and writes JSONL
//! responses to stdout, batching up to `--batch` requests at a time.
//! Set `MLCOMP_TRACE=<file>` to capture `serve.*` metrics for
//! `mlcomp-report`.

use mlcomp_core::{Mlcomp, MlcompConfig};
use mlcomp_platform::X86Platform;
use mlcomp_serve::{
    ArtifactBundle, BatchServer, CacheConfig, SelectionEngine, SelectionRequest, ServerConfig,
};
use std::io::{BufRead, Write};
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let _trace = mlcomp_trace::init_from_env();
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("export") => export(args.collect()),
        Some("serve") => serve(args.collect()),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!(
            "unknown mode {:?}\n{USAGE}",
            other.unwrap_or_default()
        )),
    }
}

const USAGE: &str = "usage:\n  \
    mlcomp-serve export --out <bundle.json> [--requests-out <reqs.jsonl>] \
    [--apps <a,b,…>] [--full]\n  \
    mlcomp-serve serve --bundle <bundle.json> [--batch N] [--queue N] [--threads N]";

fn flag_value(args: &mut std::vec::IntoIter<String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn export(args: Vec<String>) -> Result<(), String> {
    let mut out: Option<String> = None;
    let mut requests_out: Option<String> = None;
    let mut apps_filter = vec!["dedup".to_string(), "vips".to_string()];
    let mut full = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(flag_value(&mut it, "--out")?),
            "--requests-out" => requests_out = Some(flag_value(&mut it, "--requests-out")?),
            "--apps" => {
                apps_filter = flag_value(&mut it, "--apps")?
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--full" => full = true,
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let out = out.ok_or(format!("--out is required\n{USAGE}"))?;

    let apps: Vec<_> = mlcomp_suites::parsec_suite()
        .into_iter()
        .filter(|p| apps_filter.iter().any(|n| n == p.name))
        .collect();
    if apps.is_empty() {
        return Err(format!("no benchmark matches --apps {apps_filter:?}"));
    }
    let config = if full {
        MlcompConfig::paper()
    } else {
        MlcompConfig::quick()
    };
    eprintln!(
        "mlcomp-serve: training on {} app(s) ({})…",
        apps.len(),
        if full { "paper config" } else { "quick config" }
    );
    let artifacts = Mlcomp::new(config)
        .run(&X86Platform::new(), &apps)
        .map_err(|e| format!("training failed: {e}"))?;
    eprintln!("mlcomp-serve: PE report:\n{}", artifacts.estimator.report());

    let bundle = ArtifactBundle::new(artifacts.selector, artifacts.estimator)
        .map_err(|e| format!("bundle rejected: {e}"))?;
    let json = bundle.export();
    std::fs::write(&out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "mlcomp-serve: wrote {out} ({} bytes, fingerprint {:#018x})",
        json.len(),
        bundle.fingerprint()
    );

    if let Some(path) = requests_out {
        let mut lines = String::new();
        for (id, app) in apps.iter().enumerate() {
            let req = SelectionRequest {
                id: id as u64,
                features: mlcomp_features::extract(&app.module).values,
            };
            lines.push_str(&serde_json::to_string(&req).expect("request serializes"));
            lines.push('\n');
        }
        std::fs::write(&path, lines).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("mlcomp-serve: wrote {} request(s) to {path}", apps.len());
    }
    Ok(())
}

fn serve(args: Vec<String>) -> Result<(), String> {
    let mut bundle_path: Option<String> = None;
    let mut batch = 64usize;
    let mut queue = 256usize;
    let mut threads = 0usize;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bundle" => bundle_path = Some(flag_value(&mut it, "--bundle")?),
            "--batch" => {
                batch = flag_value(&mut it, "--batch")?
                    .parse()
                    .map_err(|_| "--batch needs a number")?;
            }
            "--queue" => {
                queue = flag_value(&mut it, "--queue")?
                    .parse()
                    .map_err(|_| "--queue needs a number")?;
            }
            "--threads" => {
                threads = flag_value(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads needs a number")?;
            }
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let bundle_path = bundle_path.ok_or(format!("--bundle is required\n{USAGE}"))?;
    if batch == 0 || batch > queue {
        return Err(format!("--batch must be in 1..=--queue ({queue})"));
    }

    let json = std::fs::read_to_string(&bundle_path)
        .map_err(|e| format!("cannot read {bundle_path}: {e}"))?;
    let bundle = ArtifactBundle::import(&json).map_err(|e| format!("{bundle_path}: {e}"))?;
    eprintln!(
        "mlcomp-serve: loaded {bundle_path} (fingerprint {:#018x})",
        bundle.fingerprint()
    );
    let engine = SelectionEngine::from_bundle(bundle, CacheConfig::default());
    let server = BatchServer::new(
        engine,
        ServerConfig {
            queue_capacity: queue,
            num_threads: threads,
        },
    );

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut pending: Vec<SelectionRequest> = Vec::with_capacity(batch);
    let mut served = 0usize;
    let mut batches = 0usize;
    let mut flush =
        |pending: &mut Vec<SelectionRequest>, out: &mut dyn Write| -> Result<(), String> {
            if pending.is_empty() {
                return Ok(());
            }
            let responses = server.submit_batch(pending).map_err(|e| e.to_string())?;
            for resp in &responses {
                let line = serde_json::to_string(resp).expect("response serializes");
                writeln!(out, "{line}").map_err(|e| format!("stdout: {e}"))?;
            }
            served += responses.len();
            batches += 1;
            pending.clear();
            Ok(())
        };
    for (line_no, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let req: SelectionRequest =
            serde_json::from_str(&line).map_err(|e| format!("stdin line {}: {e}", line_no + 1))?;
        pending.push(req);
        if pending.len() == batch {
            flush(&mut pending, &mut out)?;
        }
    }
    flush(&mut pending, &mut out)?;
    eprintln!(
        "mlcomp-serve: served {served} request(s) in {batches} batch(es), \
         {} cached sequence(s)",
        server.engine().cache_len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mlcomp-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
