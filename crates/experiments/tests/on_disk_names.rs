//! Pins the file names a sweep writes to `--journal` and
//! `--checkpoint-dir`.
//!
//! A journal entry is found by name alone (`cell-<key>.smtj`, the key
//! folding the canonical machine fingerprint with the fork axes and the
//! cycle counts), and so is a cached warmup (`warm-<stem>-w<warmup>-
//! <fingerprint>.ckpt`). A rename would silently orphan every journal and
//! cache an earlier build left behind: the sweep would re-run everything
//! instead of resuming. The expected names below were written by the
//! build that introduced these formats; a sweep started by that build
//! still resumes under this one exactly when they match.

use std::path::{Path, PathBuf};

use smt_core::FetchPartition;
use smt_experiments::ablation::{run_ablation_study, AblationStudyConfig};
use smt_experiments::study::{run_study, StudyConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-exp-names-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn sorted_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn issue_sweep_journal_and_cache_names_are_pinned() {
    let root = tmp_dir("issue");
    let cfg = StudyConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        issue_policies: vec!["oldest".into(), "spec_last".into()],
        partitions: vec![FetchPartition::new(2, 8)],
        mixes: vec!["mixed4".into()],
        seeds: vec![42],
        cycles: 300,
        warmup: 100,
        jobs: 2,
        checkpoint_dir: Some(root.join("cache")),
        journal: Some(root.join("journal")),
        ..StudyConfig::default()
    };
    let first = run_study(&cfg).unwrap();
    assert!(first.failed.is_empty() && first.degraded.is_empty());
    assert_eq!(
        sorted_names(&root.join("journal")),
        [
            "cell-4003da890ebf0849.smtj",
            "cell-4713270a5a619a0d.smtj",
            "cell-8222ac9bf6bb893b.smtj",
            "cell-a997292a16b7dbef.smtj",
        ]
    );
    assert_eq!(
        sorted_names(&root.join("cache")),
        ["warm-mixed4-s42-p2.8-w100-4fbe0616e7889267.ckpt"]
    );
    let resumed = run_study(&cfg).unwrap();
    assert_eq!(resumed.journal_loaded, cfg.cell_count());
    assert_eq!(
        resumed.to_json().render_pretty(),
        first.to_json().render_pretty()
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn ablation_sweep_journal_and_cache_names_are_pinned() {
    let root = tmp_dir("ablation");
    let cfg = AblationStudyConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        ablations: vec!["perfect_icache".into()],
        partitions: vec![FetchPartition::new(2, 8)],
        mixes: vec!["mixed4".into()],
        seeds: vec![42],
        cycles: 300,
        warmup: 100,
        jobs: 2,
        checkpoint_dir: Some(root.join("cache")),
        journal: Some(root.join("journal")),
        ..AblationStudyConfig::default()
    };
    let first = run_ablation_study(&cfg).unwrap();
    assert!(first.failed.is_empty() && first.degraded.is_empty());
    assert_eq!(
        sorted_names(&root.join("journal")),
        [
            "cell-284a4a4304213280.smtj",
            "cell-33e6e481904e5371.smtj",
            "cell-57d75defb69469a7.smtj",
            "cell-5e056638e8712022.smtj",
            "cell-87978b72aae0672f.smtj",
            "cell-8ea8ce7707f37f44.smtj",
            "cell-a61aa5faa2816089.smtj",
            "cell-d9a75587bb17c816.smtj",
        ]
    );
    assert_eq!(
        sorted_names(&root.join("cache")),
        [
            "warm-mixed4-s42-p2.8-ficount-abaseline-w100-4fbe0616e7889267.ckpt",
            "warm-mixed4-s42-p2.8-ficount-aperfect_icache-w100-4fbe0616e7889267.ckpt",
            "warm-mixed4-s42-p2.8-frr-abaseline-w100-4fbe0616e7889267.ckpt",
            "warm-mixed4-s42-p2.8-frr-aperfect_icache-w100-4fbe0616e7889267.ckpt",
        ]
    );
    let resumed = run_ablation_study(&cfg).unwrap();
    assert_eq!(resumed.journal_loaded, cfg.cell_count());
    assert_eq!(
        resumed.to_json().render_pretty(),
        first.to_json().render_pretty()
    );
    std::fs::remove_dir_all(&root).ok();
}
