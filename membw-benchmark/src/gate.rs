//! The output gate: every stdout the benchmark sees — a CLI run at any
//! `--jobs`, a serve reply, an in-process render —
//! must match the recorded digest of its target at scale `test`.
//!
//! A mismatch is a failed op; it never aborts the run. After an
//! intentional output change, the ignored test `print_digest_table`
//! prints a fresh table from the CLI:
//!
//! ```text
//! cargo build --release -p membw-bench --bin repro --target-dir T
//! cargo test --release --manifest-path membw-benchmark/Cargo.toml --target-dir T \
//!     -- --ignored --nocapture print_digest_table
//! ```

use membw_core::runner::persist::fnv64_bytes;
use membw_core::service::ServiceResponse;

/// `(target, stdout bytes, FNV-1a 64 of stdout)` of `repro --scale test
/// <target>`, for every leaf of `all`.
pub const DIGESTS: [(&str, usize, u64); 18] = [
    ("fig1", 4933, 0xc8fe9c02d4da4c70),
    ("table1", 1157, 0xe4101b5eeb5b43de),
    ("fig2", 3091, 0xb55a0a4cc10eff18),
    ("table2", 417, 0xb085e03c37049309),
    ("table3", 1432, 0xa3aa94001d4e237a),
    ("params", 1729, 0xdf80872107758985),
    ("table7", 973, 0x1b6dd4bc9e4acb1e),
    ("table8", 930, 0x56874c3eea4efef4),
    ("fig4", 11796, 0x71a67b08be33608e),
    ("table9", 1124, 0x64817fe184b6a3b9),
    ("epin", 591, 0x02de522c4c600b7c),
    ("extrapolate", 469, 0x19cb6a1ecf08383c),
    ("ablation", 1676, 0xbfe5ec2f1f057719),
    ("interference", 424, 0xbac156acdae2407d),
    ("dram", 586, 0x9daf1c385a79dec4),
    ("speculation", 377, 0xabed510fefcecc1f),
    ("swprefetch", 576, 0x45db1990c84fa0b1),
    ("fig3", 5744, 0xc85f0d10e6dd7a11),
];

fn digest(target: &str) -> Result<(usize, u64), String> {
    DIGESTS
        .iter()
        .find(|(t, _, _)| *t == target)
        .map(|&(_, len, h)| (len, h))
        .ok_or_else(|| format!("no digest recorded for target '{target}'"))
}

/// One target's stdout against its digest.
pub fn check_target(target: &str, stdout: &[u8]) -> Result<(), String> {
    let (len, want) = digest(target)?;
    let got = fnv64_bytes(stdout);
    if stdout.len() != len || got != want {
        return Err(format!(
            "{target}: stdout digest {got:016x} ({} bytes), expected {want:016x} ({len} bytes)",
            stdout.len()
        ));
    }
    Ok(())
}

/// A CLI stdout: the leaves' outputs back to back, in order.
pub fn check_cli(leaves: &[&str], stdout: &[u8]) -> Result<(), String> {
    let mut rest = stdout;
    for t in leaves {
        let (len, _) = digest(t)?;
        if rest.len() < len {
            return Err(format!("{t}: stdout ends {} bytes early", len - rest.len()));
        }
        let (head, tail) = rest.split_at(len);
        check_target(t, head)?;
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(format!("{} unexpected trailing stdout bytes", rest.len()));
    }
    Ok(())
}

/// A serve reply: `ok`, a self-consistent `fnv64`, and the CLI's bytes.
pub fn check_reply(target: &str, resp: &ServiceResponse) -> Result<(), String> {
    match resp {
        ServiceResponse::Ok {
            target: t,
            fnv64,
            stdout,
            ..
        } => {
            if t != target {
                return Err(format!("asked for {target}, answered {t}"));
            }
            let actual = format!("{:016x}", fnv64_bytes(stdout.as_bytes()));
            if &actual != fnv64 {
                return Err(format!(
                    "{target}: reply claims fnv64 {fnv64}, payload hashes to {actual}"
                ));
            }
            check_target(target, stdout.as_bytes())
        }
        ServiceResponse::Busy { queued, bound } => {
            Err(format!("{target}: busy ({queued} queued, bound {bound})"))
        }
        ServiceResponse::Draining => Err(format!("{target}: daemon draining")),
        ServiceResponse::Error { kind, message, .. } => {
            Err(format!("{target}: error [{kind}] {message}"))
        }
        ServiceResponse::Stats(_) => Err(format!("{target}: answered with stats")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(target: &str) -> Vec<u8> {
        // Not the real output: only used where a mismatch is expected.
        vec![b'x'; digest(target).unwrap().0]
    }

    #[test]
    fn every_leaf_of_all_has_a_digest() {
        for t in membw_core::targets::ALL_TARGETS {
            assert!(digest(t).is_ok(), "{t}");
        }
    }

    #[test]
    fn mismatches_are_reported_not_panicked() {
        let e = check_target("table7", &fake("table7")).unwrap_err();
        assert!(e.contains("table7: stdout digest"), "{e}");
        let e = check_cli(&["table7"], b"short").unwrap_err();
        assert!(e.contains("early"), "{e}");
        assert!(check_target("nonsense", b"").is_err());
    }

    #[test]
    fn replies_must_be_ok_and_self_consistent() {
        let busy = ServiceResponse::Busy {
            queued: 1,
            bound: 1,
        };
        assert!(check_reply("table7", &busy).unwrap_err().contains("busy"));
        let stdout = "not table7\n";
        let ok = |fnv64: String| ServiceResponse::Ok {
            target: "table7".into(),
            scale: "test".into(),
            sweep: "stack".into(),
            source: "store".into(),
            fnv64,
            jobs: 0,
            resumed: 0,
            model: None,
            bound_rel_permille: None,
            stdout: stdout.into(),
        };
        assert!(check_reply("table7", &ok("0".repeat(16)))
            .unwrap_err()
            .contains("payload hashes"));
        let honest_but_wrong = ok(format!("{:016x}", fnv64_bytes(stdout.as_bytes())));
        assert!(check_reply("table7", &honest_but_wrong)
            .unwrap_err()
            .contains("stdout digest"));
    }

    /// Not a check: prints `DIGESTS` afresh from `repro`, which must sit
    /// in the same target directory as this test binary.
    #[test]
    #[ignore]
    fn print_digest_table() {
        let exe = std::env::current_exe().unwrap();
        let repro = exe.parent().unwrap().parent().unwrap().join("repro");
        let root = crate::proc::TempRoot::new().unwrap();
        for target in membw_core::targets::ALL_TARGETS {
            let dir = root.fresh("digest").unwrap();
            let mut cmd = crate::proc::command(&repro, &dir);
            cmd.args(["--scale", crate::spec::SCALE, "--jobs", "1"]);
            cmd.args(["--checkpoint-dir", "ck", target]);
            let f = crate::proc::run(cmd, &dir.join("stderr.log")).unwrap();
            assert_eq!(f.exit.code, Some(0), "repro {target}");
            let h = fnv64_bytes(&f.stdout);
            println!("    (\"{target}\", {}, 0x{h:016x}),", f.stdout.len());
        }
    }
}
