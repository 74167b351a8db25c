//! The `llmtailor` command-line tool — the reproduction of the artifact's
//! `start_merge.py` workflow.
//!
//! ```text
//! llmtailor merge --recipe recipe.yaml [--lazy] [--interleaved]
//! llmtailor autorecipe --run-root DIR --failure-step N --output NAME
//!                      [--emit recipe.yaml] [--execute]
//! llmtailor inspect CHECKPOINT_DIR
//! ```

use llmt_ckpt::{effective_save_log, scan_run_root, CheckpointHandle, LoadMode};
use llmtailor::autorecipe::recipe_from_log;
use llmtailor::{merge_with_recipe, LoadPattern, MergeRecipe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("merge") => cmd_merge(&args[1..]),
        Some("autorecipe") => cmd_autorecipe(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("prune") => cmd_prune(&args[1..]),
        Some("du") => cmd_du(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("save") => cmd_save(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
llmtailor - layer-wise tailoring of LLM training checkpoints

USAGE:
  llmtailor merge --recipe <FILE> [--lazy] [--interleaved]
      Execute a YAML merge recipe, assembling a fully resumable checkpoint.
      --lazy         use per-tensor range reads instead of whole-file loads
      --interleaved  fetch units in model order, discarding caches per unit
                     (reproduces the paper's parity load pattern)

  llmtailor autorecipe --run-root <DIR> --failure-step <N> --output <NAME>
                       [--emit <FILE>] [--execute]
      Generate a recipe from the run's save_log.json that reconstructs the
      newest complete state at the failure step. --emit writes the YAML;
      --execute runs the merge immediately.

  llmtailor inspect <CHECKPOINT_DIR>
      Print a checkpoint's step, stored units, optimizer group inventory
      and on-disk size.

  llmtailor convert <SRC_DIR> --output <DIR> (--dp <N> [--tp <M>] | --consolidated)
      Convert between checkpoint layouts and topologies. With --dp/--tp,
      restore SRC at the {dp, tp} target topology (verify-on-read stays
      on) and re-save it as a full sharded checkpoint under --output —
      bit-exact for weights and optimizer state at any remap. With
      --consolidated, strip SRC down to model.safetensors + config.json.
      SRC may itself be a consolidated directory (e.g. a MergeKit merge):
      converting it to --dp/--tp imports it as a trainable checkpoint at
      step 0 with freshly initialized optimizer state.

  llmtailor verify <CHECKPOINT_DIR> [--deep]
      Check integrity: commit marker, manifest digests, tensor shapes,
      ZeRO metadata consistency, shard lengths and finiteness. Exits
      non-zero on any finding, including quarantined (torn or tampered)
      checkpoints.
      --deep  additionally bind the optimizer shards into rank states,
              proving the checkpoint loads end to end, and report the
              bytes and digests verified

  llmtailor prune --run-root <DIR> [--keep-last <N>] [--dry-run]
      Delete checkpoints that are not load-bearing: every unit's most
      recent *committed* copy is preserved, so recovery at the newest step
      always remains possible (partial-checkpoint-aware garbage
      collection). Quarantined directories are reported but never deleted.

  llmtailor du --run-root <DIR> [--json]
      Disk usage of a run: logical bytes (what the checkpoints would
      occupy without deduplication or encoding), physical bytes (object
      store counted once plus per-checkpoint metadata), the dedup ratio,
      the number of distinct stored objects per layer unit, and the
      delta/compression breakdown of the object store (delta objects,
      compressed full objects, longest chain, decoded payload bytes).

  llmtailor compact --run-root <DIR> [--max-chain <N>]
      Rewrite every delta chain longer than N hops (default 0: flatten
      all deltas) into self-contained full objects, in place and safe
      against concurrent readers. Bounds restore latency after many
      every-step delta saves; orphaned bases become garbage for the next
      GC pass.

  llmtailor report <RUN_ROOT> [--json]
                   [--daemon <SOCKET>]
      Summarize the run's events.jsonl journal: per-stage time breakdowns
      for saves and restores, save cadence, dedup ratio, retry and fault
      counts. A torn final journal line (writer died mid-append) is
      skipped, never an error. With --daemon the positional argument is a
      tenant RUN_ID of a running llmtailord: the run root is resolved
      through the daemon and its per-tenant counters are printed too.

  llmtailor diff <CHECKPOINT_A> <CHECKPOINT_B>
      Per-unit RMS change between two checkpoints of the same run — the
      layer-wise non-uniformity that motivates selective checkpointing.

  llmtailor serve --store <DIR> [--attach <RUN_ID>] [--gc] [--json]
                  [--break-gc-lock]
      Open (creating if necessary) a shared checkpoint store: one
      content-addressed object pool that any number of training runs save
      into concurrently through the store coordinator. --attach registers
      a run id and redirects its run root to the shared store; trainers
      pointed at that run root then dedup against every other attached
      run. --gc executes one coordinated two-phase GC pass (mark -> reader
      drain -> sweep) that is safe against concurrent publishers and
      readers; a gc.lock file on the store root keeps GC passes from
      different processes mutually exclusive, and --break-gc-lock removes
      a lock left behind by a collector process that died mid-pass (only
      use it when that process is confirmed dead). Without --gc, prints
      the store's status.

  llmtailor save --daemon <SOCKET> --run <RUN_ID> --steps <N> [--seed <S>]
      Client mode against a running llmtailord: run a tiny synthetic
      training loop and publish one checkpoint per step through daemon
      publisher sessions (save-begin -> dedup save into the granted run
      root -> save-commit). Exercises the full multi-tenant store path;
      real trainers use the same protocol via
      llmt_train::Trainer::checkpoint_via_daemon.

  llmtailor resume --daemon <SOCKET> --run <RUN_ID> [--deep]
      Client mode: open a reader session pinning the store epoch, locate
      the run's newest committed checkpoint, verify it through the
      daemon (--deep also binds the shards into rank states), and print
      the step to resume from.

";

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{name} requires a value")),
    }
}

fn require(args: &[String], name: &str) -> Result<String, String> {
    opt(args, name)?.ok_or_else(|| format!("missing required option {name}"))
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    let recipe_path = require(args, "--recipe")?;
    let recipe = MergeRecipe::from_yaml_file(Path::new(&recipe_path)).map_err(|e| e.to_string())?;
    let mode = if flag(args, "--lazy") {
        LoadMode::LazyRange
    } else {
        LoadMode::EagerFull
    };
    let pattern = if flag(args, "--interleaved") {
        LoadPattern::ParityInterleaved
    } else {
        LoadPattern::Sequential
    };
    let report = merge_with_recipe(&recipe, mode, pattern).map_err(|e| e.to_string())?;
    println!(
        "assembled {} (step {}) from {} sources in {:?}",
        report.output.display(),
        report.step,
        report.sources,
        report.duration
    );
    println!(
        "  read {} bytes across {} file opens ({} whole-file loads); wrote {} bytes in {} files",
        report.io.bytes_read,
        report.io.files_opened,
        report.io.full_loads,
        report.bytes_written,
        report.files_written
    );
    Ok(())
}

fn cmd_autorecipe(args: &[String]) -> Result<(), String> {
    let run_root = PathBuf::from(require(args, "--run-root")?);
    let failure_step: u64 = require(args, "--failure-step")?
        .parse()
        .map_err(|_| "--failure-step must be an integer".to_string())?;
    let output = require(args, "--output")?;

    // The effective log reconciles save_log.json with the on-disk commit
    // markers: quarantined checkpoints never become merge sources.
    let (log, scan) = effective_save_log(&run_root).map_err(|e| e.to_string())?;
    for q in &scan.quarantined {
        eprintln!(
            "warning: skipping quarantined {} ({})",
            q.dir.display(),
            q.status.describe()
        );
    }
    // The model config comes from any committed checkpoint in the run
    // (they all share it); use the newest.
    let newest = scan
        .newest_committed()
        .ok_or_else(|| format!("no committed checkpoints under {}", run_root.display()))?
        .paths();
    let config_text = std::fs::read_to_string(newest.config())
        .map_err(|e| format!("{}: {e}", newest.config().display()))?;
    let config: llmt_model::ModelConfig =
        serde_json::from_str(&config_text).map_err(|e| e.to_string())?;

    let recipe = recipe_from_log(&log, &config, &run_root, failure_step, &output)
        .map_err(|e| e.to_string())?;
    let yaml = recipe.to_yaml();
    match opt(args, "--emit")? {
        Some(path) => {
            std::fs::write(&path, &yaml).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote recipe to {path}");
        }
        None => print!("{yaml}"),
    }
    if flag(args, "--execute") {
        let report = merge_with_recipe(&recipe, LoadMode::EagerFull, LoadPattern::Sequential)
            .map_err(|e| e.to_string())?;
        println!(
            "assembled {} from {} sources in {:?}",
            report.output.display(),
            report.sources,
            report.duration
        );
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let dir = args
        .first()
        .ok_or_else(|| "inspect requires a checkpoint directory".to_string())?;
    let mut h =
        CheckpointHandle::open(Path::new(dir), LoadMode::LazyRange).map_err(|e| e.to_string())?;
    println!("checkpoint: {dir}");
    println!("  commit:     {}", h.commit_status().describe());
    println!("  model:      {}", h.config.model_name);
    println!("  step:       {}", h.trainer_state.global_step);
    println!("  task:       {}", h.trainer_state.task);
    println!("  world size: {}", h.zero_meta.world_size);
    println!("  topology:   {}", h.zero_meta.topology());
    println!(
        "  groups:     {} total, {} present ({})",
        h.zero_meta.groups.len(),
        h.zero_meta.groups_present.len(),
        if h.zero_meta.is_full() {
            "FULL — resumable"
        } else {
            "PARTIAL — merge before resuming"
        }
    );
    let units = h.units_present();
    println!("  units ({}):", units.len());
    for u in &units {
        let names = h
            .unit_weights(*u)
            .map(|w| w.len())
            .map_err(|e| e.to_string())?;
        println!("    {u} ({names} weight tensors)");
    }
    if let Ok(bytes) = h.paths.total_bytes_on(&llmt_storage::vfs::LocalFs) {
        println!("  on disk:    {bytes} bytes");
    }
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let src = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| "convert requires a source directory".to_string())?;
    let output = PathBuf::from(require(args, "--output")?);
    let consolidated = flag(args, "--consolidated");
    let dp = opt(args, "--dp")?;
    let target = match (consolidated, dp) {
        (true, None) => llmtailor::TargetLayout::Consolidated,
        (false, Some(dp)) => {
            let dp: usize = dp.parse().map_err(|_| "--dp must be an integer")?;
            let tp: usize = match opt(args, "--tp")? {
                Some(t) => t.parse().map_err(|_| "--tp must be an integer")?,
                None => 1,
            };
            llmtailor::TargetLayout::Sharded(llmt_zero::Topology { dp, tp })
        }
        _ => return Err("convert needs exactly one of --dp [--tp] or --consolidated".into()),
    };
    let report = llmtailor::convert_checkpoint(Path::new(src), &output, target)
        .map_err(|e| e.to_string())?;
    match report.target {
        llmtailor::TargetLayout::Consolidated => println!(
            "consolidated {} (step {}) into {}",
            src,
            report.step,
            report.output.display()
        ),
        llmtailor::TargetLayout::Sharded(topo) => {
            let from = match report.source_topology {
                Some(f) => format!("{f}"),
                None => "consolidated weights".to_string(),
            };
            println!(
                "converted {src} ({from}) -> {} at {topo}{}",
                report.output.display(),
                if report.fresh_optimizer {
                    ", fresh optimizer state"
                } else {
                    ""
                }
            );
        }
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let dir = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| "verify requires a checkpoint directory".to_string())?;
    let deep = flag(args, "--deep");
    let report = llmt_ckpt::verify_checkpoint_on(
        std::sync::Arc::new(llmt_storage::vfs::LocalFs),
        Path::new(dir),
        deep,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "checked {} weight tensors and {} optimizer shards",
        report.weights_checked, report.shards_checked
    );
    if deep {
        println!(
            "deep: streamed {} bytes, re-verified {} digests on read",
            report.bytes_verified, report.deep_digests_verified
        );
    }
    if report.ok() {
        println!("OK: checkpoint verifies");
        Ok(())
    } else {
        for f in &report.findings {
            eprintln!("  FAIL {}: {}", f.subject, f.problem);
        }
        Err(format!(
            "{} integrity problem(s) found",
            report.findings.len()
        ))
    }
}

fn cmd_prune(args: &[String]) -> Result<(), String> {
    let run_root = PathBuf::from(require(args, "--run-root")?);
    let keep_last: usize = opt(args, "--keep-last")?
        .map(|v| {
            v.parse()
                .map_err(|_| "--keep-last must be an integer".to_string())
        })
        .transpose()?
        .unwrap_or(1);
    let (log, scan) = effective_save_log(&run_root).map_err(|e| e.to_string())?;
    for q in &scan.quarantined {
        eprintln!(
            "warning: quarantined {} ({}) — left untouched",
            q.dir.display(),
            q.status.describe()
        );
    }
    let newest = scan
        .newest_committed()
        .ok_or_else(|| format!("no committed checkpoints under {}", run_root.display()))?
        .paths();
    let config_text = std::fs::read_to_string(newest.config())
        .map_err(|e| format!("{}: {e}", newest.config().display()))?;
    let config: llmt_model::ModelConfig =
        serde_json::from_str(&config_text).map_err(|e| e.to_string())?;
    if flag(args, "--dry-run") {
        let steps = scan.committed_steps();
        let prunable = llmtailor::prunable_steps(&log, &config, &steps, keep_last)
            .map_err(|e| e.to_string())?;
        println!("would prune {} checkpoint(s): {prunable:?}", prunable.len());
    } else {
        let pruned =
            llmtailor::prune_run(&run_root, &config, keep_last).map_err(|e| e.to_string())?;
        println!("pruned {} checkpoint(s): {pruned:?}", pruned.len());
    }
    Ok(())
}

fn cmd_du(args: &[String]) -> Result<(), String> {
    let run_root = PathBuf::from(require(args, "--run-root")?);
    let du = llmtailor::du_run(&run_root).map_err(|e| e.to_string())?;
    if flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&du).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("run root: {}", run_root.display());
    println!("  committed checkpoints: {}", du.checkpoints);
    println!("  logical bytes:         {}", du.logical_bytes);
    println!("  physical bytes:        {}", du.physical_bytes);
    println!("  dedup ratio:           {:.3}", du.dedup_ratio);
    println!(
        "  objects:               {} ({} bytes)",
        du.object_count, du.object_bytes
    );
    if du.delta_objects > 0 || du.encoded_full_objects > 0 {
        println!(
            "  encoded objects:       {} delta (longest chain {}), {} compressed full; \
             {} bytes decoded vs {} stored",
            du.delta_objects,
            du.delta_max_chain,
            du.encoded_full_objects,
            du.object_logical_bytes,
            du.object_bytes
        );
    }
    if !du.per_unit_objects.is_empty() {
        println!("  distinct objects per unit:");
        for (unit, n) in &du.per_unit_objects {
            println!("    {unit:<16} {n}");
        }
    }
    if let Some(tier) = &du.tier {
        println!("  tiered store:");
        let cap = tier
            .mem_capacity
            .map(|c| format!(" / {c} capacity"))
            .unwrap_or_default();
        println!(
            "    mem resident:    {} bytes{cap}",
            tier.mem_resident_bytes
        );
        println!("    fs resident:     {} bytes", tier.fs_resident_bytes);
        println!("    object resident: {} bytes", tier.object_resident_bytes);
        println!("    drained (life):  {} bytes", tier.drained_bytes);
        println!("    evictions:       {}", tier.evictions);
        println!("    pending drains:  {}", tier.pending_drains);
        if !tier.lost_on_crash.is_empty() {
            println!("    lost on crash:   {:?}", tier.lost_on_crash);
        }
    }
    Ok(())
}

fn cmd_compact(args: &[String]) -> Result<(), String> {
    let run_root = PathBuf::from(require(args, "--run-root")?);
    let max_chain = match opt(args, "--max-chain")? {
        Some(v) => v
            .parse::<usize>()
            .map_err(|e| format!("--max-chain: {e}"))?,
        None => 0,
    };
    let report = llmtailor::compact_run(&run_root, max_chain).map_err(|e| e.to_string())?;
    println!(
        "examined {} object(s), compacted {} delta(s): {} bytes -> {} bytes",
        report.examined, report.compacted, report.bytes_before, report.bytes_after
    );
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let daemon_sock = opt(args, "--daemon")?;
    let positional = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || args[i - 1] != "--daemon"))
        .map(|(_, a)| a.clone())
        .ok_or_else(|| {
            "report requires a run root directory (or a run id with --daemon)".to_string()
        })?;
    let run_root = match &daemon_sock {
        Some(sock) => {
            let mut client =
                llmt_daemon::DaemonClient::connect(Path::new(sock)).map_err(|e| e.to_string())?;
            let root = client.attach(&positional).map_err(|e| e.to_string())?;
            let status = client.status().map_err(|e| e.to_string())?;
            if let Some(t) = status.runs.iter().find(|t| t.run == positional) {
                println!(
                    "daemon tenant '{}': {} save(s) ({} bytes) committed via daemon, \
                     {} pending drain(s)",
                    t.run, t.saves_committed, t.published_bytes, t.pending_drains
                );
            }
            root.display().to_string()
        }
        None => positional,
    };
    let run_root = run_root.as_str();
    let summary = llmtailor::summarize_run(Path::new(run_root)).map_err(|e| e.to_string())?;
    if flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("run root: {run_root}");
    println!("  events:   {}", summary.events);
    if summary.torn_tail {
        println!("  note:     torn final journal line skipped");
    }
    if summary.skipped_lines > 0 {
        println!(
            "  warning:  {} corrupt journal line(s) skipped",
            summary.skipped_lines
        );
    }
    println!(
        "  saves:    {} at steps {:?}{}",
        summary.save_steps.len(),
        summary.save_steps,
        match summary.mean_save_interval {
            Some(iv) => format!(" (every {iv:.1} steps)"),
            None => String::new(),
        }
    );
    println!("  dedup:    ratio {:.3}", summary.dedup_ratio);
    println!("  retries:  {}", summary.retries);
    if summary.delta_objects > 0 || summary.compactions > 0 {
        println!(
            "  deltas:   {} object(s), {} bytes saved, longest chain {}, {} compaction(s)",
            summary.delta_objects,
            summary.delta_saved_bytes,
            summary.delta_max_chain,
            summary.compactions
        );
    }
    for (kind, k) in &summary.per_kind {
        println!(
            "  {kind}: {} event(s), {} bytes logical, {} physical, {} files, \
             {} dedup hits ({} bytes saved), {} retries, {} error(s)",
            k.events,
            k.bytes,
            k.physical_bytes,
            k.files,
            k.dedup_hits,
            k.dedup_saved_bytes,
            k.retries,
            k.errors
        );
        let total: u64 = k.stage_ns.values().sum();
        for (stage, ns) in &k.stage_ns {
            let pct = if total > 0 {
                *ns as f64 * 100.0 / total as f64
            } else {
                0.0
            };
            println!("    {stage:<10} {:>12.3} ms  {pct:>5.1}%", *ns as f64 / 1e6);
        }
    }
    for (tier, t) in &summary.per_tier {
        println!(
            "  tier {tier}: {} placement(s) ({} bytes), {} drain hop(s) \
             ({} bytes resident, {} copied, {} files), {} eviction(s) ({} bytes)",
            t.placements,
            t.placed_bytes,
            t.drains,
            t.drained_bytes,
            t.drain_copied_bytes,
            t.drained_files,
            t.evictions,
            t.evicted_bytes
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let store_root = PathBuf::from(require(args, "--store")?);
    let coord = llmt_coord::Coordinator::open(&store_root).map_err(|e| e.to_string())?;
    if let Some(run_id) = opt(args, "--attach")? {
        let run_root = coord.attach_run(&run_id).map_err(|e| e.to_string())?;
        println!(
            "attached run '{run_id}' at {} (objects -> {})",
            run_root.display(),
            store_root.display()
        );
    }
    if flag(args, "--break-gc-lock") {
        if coord.break_collector_lock().map_err(|e| e.to_string())? {
            println!("removed stale collector lock");
        } else {
            println!("no collector lock to remove");
        }
    }
    if flag(args, "--gc") {
        let collector = coord.collector().map_err(|e| e.to_string())?;
        let report = collector.collect().map_err(|e| e.to_string())?;
        if flag(args, "--json") {
            println!(
                "{{\"mark_epoch\":{},\"drained\":{},\"live_digests\":{},\
                 \"retired_removed\":{},\"deleted_objects\":{},\"reclaimed_bytes\":{},\
                 \"pinned_young\":{}}}",
                report.mark_epoch,
                report.drained,
                report.live_digests,
                report.retired_removed,
                report.sweep.deleted_objects,
                report.sweep.reclaimed_bytes,
                report.sweep.pinned_young
            );
        } else {
            println!(
                "gc pass at epoch {}: {} live digest(s), {} object(s) deleted \
                 ({} bytes reclaimed), {} retired checkpoint dir(s) removed{}",
                report.mark_epoch,
                report.live_digests,
                report.sweep.deleted_objects,
                report.sweep.reclaimed_bytes,
                report.retired_removed,
                if report.drained {
                    String::new()
                } else {
                    format!(
                        " — forced progress with {} active reader(s)",
                        report.readers_at_sweep
                    )
                }
            );
        }
        return Ok(());
    }
    let runs = coord.attached_runs().map_err(|e| e.to_string())?;
    println!("shared store: {}", store_root.display());
    println!("  epoch:          {}", coord.epoch());
    println!("  active readers: {}", coord.active_readers());
    println!("  attached runs:  {}", runs.len());
    for run in &runs {
        let steps = scan_run_root(&coord.run_root(run)).committed_steps();
        println!("    {run} ({} committed checkpoint(s))", steps.len());
    }
    let drains = coord.drain_status().map_err(|e| e.to_string())?;
    if !drains.is_empty() {
        println!("  tiered runs:");
        for (run, tier) in &drains {
            println!(
                "    {run}: mem {} / fs {} / object {} bytes resident, \
                 {} pending drain(s), {} eviction(s){}",
                tier.mem_resident_bytes,
                tier.fs_resident_bytes,
                tier.object_resident_bytes,
                tier.pending_drains,
                tier.evictions,
                if tier.lost_on_crash.is_empty() {
                    String::new()
                } else {
                    format!(", lost on crash: {:?}", tier.lost_on_crash)
                }
            );
        }
    }
    Ok(())
}

/// Client mode: a tiny synthetic training run publishing every-step
/// checkpoints through daemon sessions. A deliberately small stand-in
/// for a trainer process (`llmt-train` wires the real one through
/// `Trainer::checkpoint_via_daemon`); what matters here is the
/// protocol: save-begin admission, a dedup save into the granted run
/// root, commit-publish.
fn cmd_save(args: &[String]) -> Result<(), String> {
    use llmt_ckpt::engine::{LiveState, SaveOptions};
    use llmt_ckpt::writer::SaveRequest;
    use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
    use llmt_obs::MetricsRegistry;
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_tensor::rng::Prng;
    use llmt_zero::ZeroEngine;

    let socket = PathBuf::from(require(args, "--daemon")?);
    let run = require(args, "--run")?;
    let steps: u64 = require(args, "--steps")?
        .parse()
        .map_err(|_| "--steps must be an integer".to_string())?;
    let seed: u64 = opt(args, "--seed")?
        .map(|v| {
            v.parse()
                .map_err(|_| "--seed must be an integer".to_string())
        })
        .transpose()?
        .unwrap_or(42);

    let cfg = ModelConfig::tiny_test();
    let mut model = Model::new(cfg.clone(), seed);
    let mut engine = ZeroEngine::new(
        &model.params,
        build_groups(&cfg, GroupLayout::LayerWise),
        2,
        AdamWHyper::default(),
    );
    let mut rng = Prng::seed_from_u64(seed);
    let units = LayerUnit::all(&cfg);
    let storage = llmt_storage::vfs::LocalFs;
    let mut client = llmt_daemon::DaemonClient::connect(&socket)
        .map_err(|e| format!("{}: {e}", socket.display()))?;

    let mut published_total = 0usize;
    for step in 1..=steps {
        // One real optimizer step per checkpoint, so consecutive saves
        // share most of their bytes (the dedup case the store exists for)
        // without being identical.
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let batch = Batch::new(tokens, 2, 8);
        let mut grads = ParamSet::zeros(&cfg);
        model.loss_and_grad(&batch, &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let ts = llmt_ckpt::TrainerState {
            global_step: step,
            ckpt_event: step - 1,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![(step, 3.0)],
            data_rng: Prng::seed_from_u64(seed ^ step),
            task: "daemon-client".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        let req = SaveRequest {
            dir: Path::new(""), // the daemon session grants the real one
            step,
            source: &LiveState {
                config: &cfg,
                params: &model.params,
                engine: &engine,
            },
            trainer_state: &ts,
            units: &units,
            metrics: &MetricsRegistry::new(),
            store: None,
            bases: None,
        };
        let (_, published) = client
            .save(&storage, &run, 8 << 20, &req, &SaveOptions::default())
            .map_err(|e| format!("save at step {step} failed: {e}"))?;
        published_total += published;
    }
    println!(
        "published {steps} checkpoint(s) for run '{run}' through {} ({published_total} object \
         digest(s))",
        socket.display()
    );
    Ok(())
}

/// Client mode: find and verify the newest committed checkpoint of a
/// daemon tenant, printing the step to resume from. The reader session
/// pins the store epoch for the whole exchange, so a concurrent GC pass
/// cannot sweep the checkpoint while we look at it.
fn cmd_resume(args: &[String]) -> Result<(), String> {
    let socket = PathBuf::from(require(args, "--daemon")?);
    let run = require(args, "--run")?;
    let deep = flag(args, "--deep");
    let mut client = llmt_daemon::DaemonClient::connect(&socket)
        .map_err(|e| format!("{}: {e}", socket.display()))?;
    let (session, epoch, checkpoints) = client.read_begin(&run).map_err(|e| e.to_string())?;
    let newest = checkpoints
        .last()
        .cloned()
        .ok_or_else(|| format!("run '{run}' has no committed checkpoints"))?;
    let (ok, findings) = client
        .verify(session, &newest, deep)
        .map_err(|e| e.to_string())?;
    if !ok {
        for f in &findings {
            eprintln!("  FAIL {f}");
        }
        let _ = client.read_end(session);
        return Err(format!(
            "{}: {} integrity problem(s) found",
            newest.display(),
            findings.len()
        ));
    }
    let handle = CheckpointHandle::open(&newest, LoadMode::LazyRange).map_err(|e| e.to_string())?;
    client.read_end(session).map_err(|e| e.to_string())?;
    println!(
        "resume run '{run}' from step {} ({}, store epoch {epoch}{})",
        handle.trainer_state.global_step,
        newest.display(),
        if deep {
            ", deep-verified"
        } else {
            ", verified"
        }
    );
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let (a, b) = match args {
        [a, b, ..] => (a, b),
        _ => return Err("diff requires two checkpoint directories".into()),
    };
    let mut diffs =
        llmtailor::diff_checkpoints(Path::new(a), Path::new(b)).map_err(|e| e.to_string())?;
    diffs.sort_by(|x, y| y.weight_rms.partial_cmp(&x.weight_rms).unwrap());
    println!(
        "{:<16} {:>14} {:>14} {:>10}",
        "unit", "weight RMS", "master RMS", "elements"
    );
    for d in &diffs {
        println!(
            "{:<16} {:>14.6e} {:>14} {:>10}",
            d.unit.to_string(),
            d.weight_rms,
            d.master_rms
                .map(|m| format!("{m:.6e}"))
                .unwrap_or_else(|| "-".into()),
            d.numel
        );
    }
    Ok(())
}
