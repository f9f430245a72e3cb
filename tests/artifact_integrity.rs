//! End-to-end result integrity: a flipped byte in an on-disk checkpoint
//! must be quarantined and recomputed, with the final output
//! byte-identical to a cold run — at `--jobs 1` and `--jobs 8` alike.

use membw::run_table8;
use membw::runner::counters::{self, Counter};
use membw::runner::{self, CheckpointConfig};
use membw::workloads::Scale;
use std::fs;
use std::path::{Path, PathBuf};

/// Render table8's full output (JSON archive + stdout table) under the
/// given thread count and checkpoint root.
fn table8_output(jobs: usize, ckpt: Option<CheckpointConfig>) -> (String, String) {
    runner::with_jobs(jobs, || {
        runner::with_checkpoint(ckpt, || {
            let (res, table) = run_table8::run(Scale::Test).expect("healthy run");
            (
                serde_json::to_string_pretty(&res).expect("serializes"),
                table.render(),
            )
        })
    })
}

/// Every archived job result under a checkpoint root (`<i>.json`,
/// excluding `meta.json`), sorted for determinism.
fn checkpoint_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(dirs) = fs::read_dir(root) else {
        return out;
    };
    for d in dirs.flatten() {
        let Ok(files) = fs::read_dir(d.path()) else {
            continue;
        };
        for f in files.flatten() {
            let p = f.path();
            if p.extension().is_some_and(|e| e == "json")
                && p.file_name().is_some_and(|n| n != "meta.json")
            {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn flipped_checkpoint_byte_is_quarantined_and_output_identical() {
    for jobs in [1usize, 8] {
        let root = std::env::temp_dir().join(format!(
            "membw_integrity_ckpt_{jobs}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        let cfg = Some(CheckpointConfig {
            root: root.clone(),
            resume: true,
        });

        let cold = table8_output(jobs, cfg.clone());
        let files = checkpoint_files(&root);
        assert!(!files.is_empty(), "cold run must archive job results");

        // Flip one byte inside the sealed JSON body: still plausible
        // text, wrong content — only the checksum can catch it.
        let victim = &files[0];
        let mut bytes = fs::read(victim).expect("read artifact");
        let pos = bytes.len() - 3;
        bytes[pos] ^= 0x04;
        fs::write(victim, &bytes).expect("write corrupted artifact");

        let quarantined_before = counters::get(Counter::CheckpointQuarantined);
        let resumed = table8_output(jobs, cfg);
        assert_eq!(
            resumed, cold,
            "--jobs {jobs}: resumed output must be byte-identical to the cold run"
        );
        assert!(
            counters::get(Counter::CheckpointQuarantined) > quarantined_before,
            "the corrupt artifact must be quarantined, not silently served"
        );
        let mut corrupt = victim.clone().into_os_string();
        corrupt.push(".corrupt");
        assert!(
            PathBuf::from(corrupt).exists(),
            "quarantined artifact preserved next to the original"
        );

        let _ = fs::remove_dir_all(&root);
    }
}
