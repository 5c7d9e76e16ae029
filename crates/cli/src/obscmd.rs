//! `mrbc obs` — observability post-processing subcommands.
//!
//! `obs merge` stitches the per-process Perfetto traces a pool run
//! leaves behind (front-end + one per worker) into a single timeline,
//! aligning worker clocks from the Hello-handshake probes the front-end
//! recorded. `obs last-flight` locates and pretty-prints the most
//! recent flight-recorder dump, the first stop when a worker died or a
//! query came back Retry.

use crate::args::ParsedArgs;
use crate::commands::CmdError;
use mrbc_obs::flight;
use mrbc_obs::json::Value;
use mrbc_obs::merge::merge_traces;

/// Dispatches `mrbc obs <sub>`.
pub fn cmd_obs(p: &ParsedArgs) -> Result<String, CmdError> {
    match p.positional.first().map(String::as_str) {
        Some("merge") => cmd_merge(p).map_err(CmdError::general),
        Some("last-flight") => cmd_last_flight(p).map_err(CmdError::general),
        Some(other) => Err(CmdError::general(format!(
            "unknown obs subcommand {other:?} (expected merge | last-flight)"
        ))),
        None => Err(CmdError::general(
            "missing obs subcommand (expected merge | last-flight)",
        )),
    }
}

/// `mrbc obs merge --out merged.json <frontend.json> <worker.json>...`
///
/// The first input is the clock reference — pass the pool front-end's
/// trace first, since that is the process holding the clock probes.
fn cmd_merge(p: &ParsedArgs) -> Result<String, String> {
    let out = p
        .get_str("out")
        .ok_or_else(|| "missing --out <merged.json>".to_string())?
        .to_string();
    let paths = &p.positional[1..];
    if paths.is_empty() {
        return Err("missing input trace files (front-end first)".to_string());
    }
    let mut inputs = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        inputs.push((path.clone(), text));
    }
    let merged = merge_traces(&inputs)?;
    std::fs::write(&out, &merged.json).map_err(|e| format!("cannot write {out}: {e}"))?;
    let mut s = format!(
        "merged {} trace(s) into {out} ({} tracks)\n",
        inputs.len(),
        merged.tracks.len()
    );
    for t in &merged.tracks {
        s += &format!(
            "  track {}: {} (run {:?}, source pid {}) {} events, offset {:+} us{}\n",
            t.merged_pid,
            t.label,
            t.run,
            t.source_pid,
            t.events,
            t.offset_us,
            if t.synced { "" } else { " [no clock probe]" },
        );
    }
    Ok(s)
}

/// `mrbc obs last-flight [--dir D] [<file.mrfr>]`
///
/// Reads the most recent `flight-*.mrfr` under `--dir` (default `.`),
/// or an explicit dump file, verifies its CRC, and renders the ring.
fn cmd_last_flight(p: &ParsedArgs) -> Result<String, String> {
    let path = match p.positional.get(1) {
        Some(file) => std::path::PathBuf::from(file),
        None => {
            let dir = std::path::PathBuf::from(p.get_str("dir").unwrap_or("."));
            flight::latest_in(&dir)
                .ok_or_else(|| format!("no flight-*.mrfr dump found under {}", dir.display()))?
        }
    };
    let doc = flight::read_dump(&path)?;
    Ok(render_flight(&path, &doc))
}

fn render_flight(path: &std::path::Path, doc: &Value) -> String {
    let num = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap_or(0);
    let events = doc.get("events").and_then(Value::as_arr).unwrap_or(&[]);
    let mut s = format!(
        "flight dump {} (pid {}, reason {:?}, {} events, {} dropped)\n",
        path.display(),
        num(doc.get("pid")),
        doc.get("reason").and_then(Value::as_str).unwrap_or("?"),
        events.len(),
        num(doc.get("dropped")),
    );
    for e in events {
        s += &format!(
            "  #{:<6} {:>10} us  {:<22} a={} b={}\n",
            num(e.get("seq")),
            num(e.get("ts_us")),
            e.get("tag").and_then(Value::as_str).unwrap_or("?"),
            num(e.get("a")),
            num(e.get("b")),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn sv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mrbc_obscmd_test").join(name);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn unknown_and_missing_subcommands_error() {
        let p = parse(&sv(&["obs"]), &[]).expect("parse");
        assert!(cmd_obs(&p)
            .unwrap_err()
            .message
            .contains("missing obs subcommand"));
        let p = parse(&sv(&["obs", "frob"]), &[]).expect("parse");
        assert!(cmd_obs(&p)
            .unwrap_err()
            .message
            .contains("unknown obs subcommand"));
    }

    #[test]
    fn merge_requires_out_and_inputs() {
        let p = parse(&sv(&["obs", "merge"]), &[]).expect("parse");
        assert!(cmd_obs(&p).unwrap_err().message.contains("--out"));
        let p = parse(&sv(&["obs", "merge", "--out", "/tmp/x.json"]), &[]).expect("parse");
        assert!(cmd_obs(&p)
            .unwrap_err()
            .message
            .contains("missing input trace files"));
    }

    #[test]
    fn last_flight_reads_a_dump_roundtrip() {
        let _guard = mrbc_obs::test_mutex().lock().unwrap();
        let dir = tmpdir("lf");
        flight::set_dir(&dir);
        flight::note("test.event", 7, 9);
        let dumped = flight::dump("unit-test").expect("dump");
        let p = parse(
            &sv(&["obs", "last-flight", "--dir", dir.to_str().unwrap()]),
            &[],
        )
        .expect("parse");
        let rep = cmd_obs(&p).expect("last-flight");
        assert!(rep.contains("reason \"unit-test\""), "{rep}");
        assert!(rep.contains("test.event"), "{rep}");
        // An explicit file path works too.
        let p = parse(&sv(&["obs", "last-flight", dumped.to_str().unwrap()]), &[]).expect("parse");
        assert!(cmd_obs(&p).expect("explicit").contains("test.event"));
    }

    #[test]
    fn last_flight_with_no_dumps_errors() {
        let dir = tmpdir("empty");
        let p = parse(
            &sv(&["obs", "last-flight", "--dir", dir.to_str().unwrap()]),
            &[],
        )
        .expect("parse");
        assert!(cmd_obs(&p).unwrap_err().message.contains("no flight-"));
    }
}
