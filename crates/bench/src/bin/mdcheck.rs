//! `mdcheck` — an offline Markdown link-and-anchor checker.
//!
//! Usage: `mdcheck [<file.md> ...]` (defaults to `README.md DESIGN.md
//! EXPERIMENTS.md ROADMAP.md` in the current directory).
//!
//! For every inline link `[text](target)` outside fenced code blocks and
//! inline code spans it checks that
//!
//! * relative file targets exist (resolved against the linking file's
//!   directory),
//! * `#fragment` anchors — same-file or cross-file — match a heading's
//!   GitHub-style slug in the target file,
//!
//! and exits non-zero listing every broken link. Absolute URLs
//! (`http://`, `https://`, `mailto:`) are skipped: the checker is
//! offline by design, like everything else in this workspace.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One `[text](target)` occurrence: 1-based line number and the raw target.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Link {
    line: usize,
    target: String,
}

/// Replaces `` `code spans` `` with spaces so links inside them are ignored.
/// An unterminated backtick leaves the rest of the line untouched.
fn strip_inline_code(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        match rest[open + 1..].find('`') {
            Some(close) => {
                out.push_str(&rest[..open]);
                out.extend(std::iter::repeat_n(' ', close + 2));
                rest = &rest[open + close + 2..];
            }
            None => break,
        }
    }
    out.push_str(rest);
    out
}

/// Extracts inline links (`[text](target)`), skipping fenced code blocks
/// and inline code spans. Image links (`![alt](target)`) count too.
fn collect_links(text: &str) -> Vec<Link> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for (idx, raw_line) in text.lines().enumerate() {
        let trimmed = raw_line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let line = strip_inline_code(raw_line);
        let bytes = line.as_bytes();
        let mut i = 0;
        while let Some(rel) = line[i..].find("](") {
            let open_paren = i + rel + 1;
            // Walk back to the matching '[' for sanity; without one this
            // is not a link.
            let has_open_bracket = line[..open_paren].contains('[');
            // Scan forward to the balancing ')'.
            let mut depth = 1usize;
            let mut j = open_paren + 1;
            while j < bytes.len() && depth > 0 {
                match bytes[j] {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            if has_open_bracket && depth == 0 {
                let target = line[open_paren + 1..j - 1].trim().to_string();
                if !target.is_empty() {
                    links.push(Link {
                        line: idx + 1,
                        target,
                    });
                }
                i = j;
            } else {
                i = open_paren + 1;
            }
        }
    }
    links
}

/// GitHub's heading slug: lowercase, keep alphanumerics / `-` / `_`,
/// spaces become `-`, everything else is dropped. Repeated headings get
/// `-1`, `-2`, … suffixes.
fn slugify(heading: &str) -> String {
    let mut slug = String::with_capacity(heading.len());
    for c in heading.trim().chars() {
        if c.is_alphanumeric() {
            slug.extend(c.to_lowercase());
        } else if c == ' ' {
            slug.push('-');
        } else if c == '-' || c == '_' {
            slug.push(c);
        }
    }
    slug
}

/// Collects the anchor slugs of every ATX heading outside code fences,
/// with GitHub's duplicate-suffix rule applied.
fn collect_anchors(text: &str) -> Vec<String> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut anchors = Vec::new();
    let mut in_fence = false;
    for raw_line in text.lines() {
        let line = raw_line.trim_start();
        if line.starts_with("```") || line.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !line.starts_with('#') {
            continue;
        }
        let hashes = line.chars().take_while(|&c| c == '#').count();
        if hashes > 6 || !line[hashes..].starts_with(' ') {
            continue;
        }
        // Inline formatting (backticks, emphasis) is stripped by the
        // slugifier itself — it only keeps alphanumerics, '-', '_', ' '.
        let base = slugify(&line[hashes..]);
        let n = counts.entry(base.clone()).or_insert(0);
        anchors.push(if *n == 0 {
            base.clone()
        } else {
            format!("{base}-{n}")
        });
        *n += 1;
    }
    anchors
}

fn is_external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with("ftp://")
}

/// Checks one file's links; returns human-readable problem strings.
fn check_file(
    path: &Path,
    text: &str,
    anchor_cache: &mut HashMap<PathBuf, Vec<String>>,
) -> Vec<String> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let own_anchors = collect_anchors(text);
    let mut problems = Vec::new();
    for link in collect_links(text) {
        if is_external(&link.target) {
            continue;
        }
        let (file_part, frag) = match link.target.split_once('#') {
            Some((f, a)) => (f, Some(a)),
            None => (link.target.as_str(), None),
        };
        let target_anchors: &[String] = if file_part.is_empty() {
            &own_anchors
        } else {
            let resolved = dir.join(file_part);
            if !resolved.exists() {
                problems.push(format!(
                    "{}:{}: broken link '{}' — {} does not exist",
                    path.display(),
                    link.line,
                    link.target,
                    resolved.display()
                ));
                continue;
            }
            if frag.is_none() || !file_part.ends_with(".md") {
                continue;
            }
            anchor_cache.entry(resolved.clone()).or_insert_with(|| {
                fs::read_to_string(&resolved)
                    .map(|t| collect_anchors(&t))
                    .unwrap_or_default()
            })
        };
        if let Some(frag) = frag {
            let wanted = frag.to_lowercase();
            if !target_anchors.iter().any(|a| a == &wanted) {
                problems.push(format!(
                    "{}:{}: broken anchor '{}' — no heading slug '{}' in {}",
                    path.display(),
                    link.line,
                    link.target,
                    wanted,
                    if file_part.is_empty() {
                        path.display().to_string()
                    } else {
                        dir.join(file_part).display().to_string()
                    }
                ));
            }
        }
    }
    problems
}

fn main() -> ExitCode {
    let mut files: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if files.is_empty() {
        files = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
            .iter()
            .map(PathBuf::from)
            .collect();
    }
    let mut problems = Vec::new();
    let mut anchor_cache = HashMap::new();
    let mut checked = 0usize;
    for path in &files {
        match fs::read_to_string(path) {
            Ok(text) => {
                checked += 1;
                problems.extend(check_file(path, &text, &mut anchor_cache));
            }
            Err(e) => problems.push(format!("{}: unreadable: {e}", path.display())),
        }
    }
    if problems.is_empty() {
        println!("mdcheck: {checked} file(s), all links and anchors resolve");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("{p}");
        }
        eprintln!(
            "mdcheck: {} problem(s) in {checked} file(s)",
            problems.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugify_matches_github() {
        assert_eq!(
            slugify("Serving architecture (mlcomp-serve)"),
            "serving-architecture-mlcomp-serve"
        );
        assert_eq!(
            slugify("12. Serving architecture"),
            "12-serving-architecture"
        );
        assert_eq!(slugify("`code` & Emphasis*"), "code--emphasis");
        assert_eq!(
            slugify("  Deploying a trained policy  "),
            "deploying-a-trained-policy"
        );
    }

    #[test]
    fn anchors_skip_fences_and_suffix_duplicates() {
        let text =
            "# Top\n```\n# not a heading\n```\n## Same\n## Same\n####### too deep\n#nospace\n";
        assert_eq!(collect_anchors(text), ["top", "same", "same-1"]);
    }

    #[test]
    fn links_are_found_outside_code() {
        let text = "See [a](x.md) and `[b](y.md)` here.\n```\n[c](z.md)\n```\n![img](p.png)\nbare ] ( noise\n";
        let targets: Vec<_> = collect_links(text)
            .iter()
            .map(|l| l.target.clone())
            .collect();
        assert_eq!(targets, ["x.md", "p.png"]);
    }

    #[test]
    fn links_with_parens_in_target_balance() {
        let text = "[w](file%20(1).md) tail\n";
        let links = collect_links(text);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].target, "file%20(1).md");
        assert_eq!(links[0].line, 1);
    }

    #[test]
    fn check_file_flags_missing_files_and_anchors() {
        let text = "[ok](#here)\n[bad](#nowhere)\n[gone](definitely-missing-file.md)\n\n# Here\n";
        let mut cache = HashMap::new();
        let problems = check_file(Path::new("virtual.md"), text, &mut cache);
        assert_eq!(problems.len(), 2);
        assert!(
            problems[0].contains("broken anchor '#nowhere'"),
            "{}",
            problems[0]
        );
        assert!(
            problems[1].contains("definitely-missing-file.md"),
            "{}",
            problems[1]
        );
    }

    #[test]
    fn external_links_are_skipped() {
        let text = "[x](https://example.com/deep#frag) [y](mailto:a@b.c)\n";
        let mut cache = HashMap::new();
        assert!(check_file(Path::new("virtual.md"), text, &mut cache).is_empty());
    }
}
