//! The sweep engine: the one executor every study runs its cells through.
//!
//! A study enumerates its matrix as [`CellSpec`]s and hands them to
//! [`run`], which owns the whole cell pipeline:
//!
//! 1. workload images, generated once per (mix, seed) and shared
//!    ([`generate_images`]);
//! 2. the `--journal` directory: one canonical-machine fingerprint per
//!    (mix, seed, partition), each cell's [`journal_key`], and the resume
//!    prescan;
//! 3. warm checkpoints, streamed through a [`WarmStream`] slot per warm
//!    key (or recomputed per cell on the cold path);
//! 4. the cell phase on the work-stealing scheduler, every cell behind
//!    `catch_unwind` — a fault becomes that cell's typed [`CellError`];
//! 5. the degradation fold, in a fixed order: journal-read incidents,
//!    then warm-cache incidents in first-needed key order, then
//!    journal-write incidents, each in spec order.
//!
//! Results come back in spec order, one `Result` per spec, so a study maps
//! them onto its own cell and failed-cell types.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use smt_core::checkpoint::config_fingerprint;
use smt_core::{FetchPartition, SimConfig, SimReport};

use crate::fault::{CellError, Degradation, DegradeReason};
use crate::journal::{journal_key, Journal};
use crate::study::{generate_images, MixImages};
use crate::warmup::{
    canonical_config_for, compute_checkpoint_under, try_fork_cell, warm_checkpoint_under,
    WarmGauge, WarmStream,
};

/// Builds a cell's (or its warmup's) configuration on the cell's images.
pub(crate) type Build<'a> = Box<dyn Fn(&MixImages) -> SimConfig + Sync + 'a>;

/// The sweep-wide settings every cell shares.
pub(crate) struct Sweep<'a> {
    /// Mixes and seeds to generate images for.
    pub(crate) mixes: &'a [String],
    pub(crate) seeds: &'a [u64],
    /// Measured cycles per cell.
    pub(crate) cycles: u64,
    /// Warmup cycles of every warm cell.
    pub(crate) warmup: u64,
    /// Worker threads; `0` means one per available core.
    pub(crate) jobs: usize,
    /// Stream each warm key's checkpoint through a shared slot (`false`:
    /// recompute the same warmup per cell, ignoring the cache).
    pub(crate) share_warmup: bool,
    pub(crate) checkpoint_dir: Option<&'a Path>,
    pub(crate) journal: Option<&'a Path>,
}

/// One cell of a sweep.
pub(crate) struct CellSpec<'a> {
    /// Names the cell in `degraded_cells` entries.
    pub(crate) label: String,
    pub(crate) mix: &'a str,
    pub(crate) seed: u64,
    pub(crate) partition: FetchPartition,
    /// The journal key's string parts: the study tag and the fork axes.
    pub(crate) key_parts: Vec<&'a str>,
    /// The measured cell's configuration.
    pub(crate) build: Build<'a>,
    /// How the cell is warmed; `None` runs it cold from cycle zero.
    pub(crate) warm: Option<WarmSpec<'a>>,
}

/// How a warm cell gets its checkpoint.
pub(crate) struct WarmSpec<'a> {
    /// Cells with the same key share one warmup.
    pub(crate) key: usize,
    /// The `--checkpoint-dir` file stem (see `warm_checkpoint_under`).
    pub(crate) stem: String,
    /// The configuration the key is warmed under.
    pub(crate) build: Build<'a>,
}

/// What a sweep produced.
pub(crate) struct SweepOutcome {
    /// One result per spec, in spec order.
    pub(crate) results: Vec<Result<SimReport, CellError>>,
    pub(crate) degraded: Vec<Degradation>,
    /// Warmup simulations actually executed.
    pub(crate) warmups_performed: usize,
    /// Cells resumed from the journal instead of run.
    pub(crate) journal_loaded: usize,
}

/// Runs every spec (see the module docs), counting the live streamed
/// checkpoints on `gauge`.
///
/// # Errors
///
/// Returns the open error when the journal directory cannot be created.
pub(crate) fn run(
    sweep: &Sweep,
    specs: &[CellSpec],
    gauge: &WarmGauge,
) -> Result<SweepOutcome, String> {
    let images = generate_images(sweep.mixes, sweep.seeds);
    let images: Vec<&Result<MixImages, String>> = specs
        .iter()
        .map(|spec| &images[&(spec.mix.to_string(), spec.seed)])
        .collect();

    // Each cell's journal identity folds the canonical fingerprint of its
    // (mix, seed, partition) with the fork axes and the cycle counts, so
    // an entry only ever resumes into a sweep that would reproduce it.
    let journal = sweep
        .journal
        .map(|dir| {
            Journal::open(dir).map_err(|e| format!("cannot open journal {}: {e}", dir.display()))
        })
        .transpose()?;
    let mut fingerprints: HashMap<(&str, u64, FetchPartition), u64> = HashMap::new();
    let keys: Vec<Option<u64>> = specs
        .iter()
        .zip(&images)
        .map(|(spec, imgs)| {
            let imgs = imgs.as_ref().ok().filter(|_| journal.is_some())?;
            let fp = *fingerprints
                .entry((spec.mix, spec.seed, spec.partition))
                .or_insert_with(|| {
                    config_fingerprint(&canonical_config_for(imgs, spec.seed, spec.partition))
                });
            Some(journal_key(
                fp,
                &spec.key_parts,
                &[sweep.cycles, sweep.warmup],
            ))
        })
        .collect();

    // Prescan: resume every valid entry; an unreadable one degrades and
    // its cell re-runs. Failed cells are never journaled, so they re-fail
    // on resume and the resumed document stays byte-identical.
    let mut journaled: Vec<Option<SimReport>> = vec![None; specs.len()];
    let mut degraded = Vec::new();
    if let Some(journal) = &journal {
        for (i, (spec, key)) in specs.iter().zip(&keys).enumerate() {
            let Some(key) = *key else { continue };
            match journal.load(key, i as u64) {
                Ok(found) => journaled[i] = found,
                Err(detail) => degraded.push(Degradation {
                    key: spec.label.clone(),
                    reason: DegradeReason::JournalRead,
                    detail: format!("{detail}; cell re-run"),
                }),
            }
        }
    }

    // One slot per warm key that a cell still has to run, in first-needed
    // order, counting those cells: the first warms the key, the last frees
    // it, so sweep memory grows with the worker count, not the key count.
    let mut warm_slot: Vec<Option<usize>> = vec![None; specs.len()];
    let mut pending: Vec<usize> = Vec::new();
    if sweep.share_warmup {
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        for (i, spec) in specs.iter().enumerate() {
            let Some(warm) = &spec.warm else { continue };
            if journaled[i].is_some() || images[i].is_err() {
                continue;
            }
            let slot = *slot_of.entry(warm.key).or_insert_with(|| {
                pending.push(0);
                pending.len() - 1
            });
            pending[slot] += 1;
            warm_slot[i] = Some(slot);
        }
    }
    let stream = sweep.share_warmup.then(|| WarmStream::new(pending, gauge));

    struct Done {
        report: SimReport,
        from_journal: bool,
        warmed_cold: bool,
        degradation: Option<Degradation>,
    }
    let outcomes = smt_stats::sched::work_steal_map_catch(specs.len(), sweep.jobs, |i| {
        let spec = &specs[i];
        let stream_slot = stream.as_ref().zip(warm_slot[i]);
        let _hold = stream_slot.map(|(stream, slot)| stream.hold(slot));
        #[cfg(feature = "fault-inject")]
        smt_stats::faults::panic_point("cell", i as u64);
        let imgs = images[i]
            .as_ref()
            .map_err(|e| CellError::workload(e.clone()))?;
        if let Some(report) = &journaled[i] {
            return Ok(Done {
                report: report.clone(),
                from_journal: true,
                warmed_cold: false,
                degradation: None,
            });
        }
        let mut warmed_cold = false;
        let report = match &spec.warm {
            None => (spec.build)(imgs).build().run(sweep.cycles),
            Some(warm) => {
                let checkpoint = match stream_slot {
                    Some((stream, slot)) => stream.checkpoint(slot, || {
                        warm_checkpoint_under(
                            || (warm.build)(imgs),
                            &warm.stem,
                            sweep.warmup,
                            sweep.checkpoint_dir,
                        )
                    })?,
                    None => {
                        warmed_cold = true;
                        Arc::new(compute_checkpoint_under((warm.build)(imgs), sweep.warmup))
                    }
                };
                try_fork_cell((spec.build)(imgs), &checkpoint, sweep.cycles)
                    .map_err(|e| CellError::checkpoint(e.to_string()))?
            }
        };
        let degradation = match (&journal, keys[i]) {
            (Some(journal), Some(key)) => {
                journal
                    .store(key, i as u64, &report)
                    .err()
                    .map(|e| Degradation {
                        key: spec.label.clone(),
                        reason: DegradeReason::JournalWrite,
                        detail: format!("store failed: {e}; result not durable"),
                    })
            }
            _ => None,
        };
        Ok(Done {
            report,
            from_journal: false,
            warmed_cold,
            degradation,
        })
    });

    let mut store_degradations = Vec::new();
    let mut journal_loaded = 0;
    let mut warmups_performed = 0;
    let results = outcomes
        .into_iter()
        .map(|outcome| {
            // Flatten the scheduler's catch layer (an escaped panic) into
            // the cell's own typed result.
            let done = outcome.unwrap_or_else(|msg| Err(CellError::panic(msg)))?;
            journal_loaded += usize::from(done.from_journal);
            warmups_performed += usize::from(done.warmed_cold);
            store_degradations.extend(done.degradation);
            Ok(done.report)
        })
        .collect();
    if let Some(stream) = stream {
        let (computed, warm_degradations) = stream.finish();
        warmups_performed += computed;
        degraded.extend(warm_degradations);
    }
    degraded.extend(store_degradations);
    Ok(SweepOutcome {
        results,
        degraded,
        warmups_performed,
        journal_loaded,
    })
}
