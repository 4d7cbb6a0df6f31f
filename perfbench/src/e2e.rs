//! The untraced grid run through the public entry point, and the checks
//! on its report rows.

use crate::setup::cell_setup;
use crate::spans::Tracer;
use crate::workload::{parse_hex, Pin};
use collapois_grid::report::extract_str_field;
use collapois_grid::runner::{profile_sidecar_path, run_grid, GridRunOptions};
use collapois_grid::schema::{GridCell, GridSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// A cell's row as written to the report.
#[derive(PartialEq)]
pub struct Row {
    pub id: String,
    pub config_hash: u64,
    pub event_hash: u64,
}

pub struct GridRun {
    /// From `run_grid` start on an empty report to the last row written.
    pub grid_s: f64,
    /// Per-cell wall seconds between progress callbacks.
    pub cell_s: Vec<f64>,
    /// Rows in report order (fewer than the cells if a cell panicked).
    pub rows: Vec<Row>,
    /// The timing sidecar `run_grid` wrote next to the report.
    pub profile: String,
}

/// Runs every cell of `spec` into a fresh report at `out`.
pub fn run_untraced(spec: &GridSpec, out: &Path) -> GridRun {
    let mut stamps = Vec::new();
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_grid(
            spec,
            out,
            &GridRunOptions {
                fresh: true,
                ..GridRunOptions::default()
            },
            |_, _| stamps.push(Instant::now()),
        )
    }));
    if let Ok(Err(e)) = &outcome {
        panic!("grid report I/O failed: {e}");
    }
    let mut last = start;
    let cell_s = stamps
        .iter()
        .map(|&t| {
            let d = (t - last).as_secs_f64();
            last = t;
            d
        })
        .collect();
    let report = std::fs::read_to_string(out).unwrap_or_default();
    let rows = report
        .lines()
        .map(|line| {
            // An unreadable hash reads as 0, which matches no cell.
            let hash = |k| {
                extract_str_field(line, k)
                    .and_then(|h| parse_hex(&h))
                    .unwrap_or(0)
            };
            Row {
                id: extract_str_field(line, "cell").unwrap_or_default(),
                config_hash: hash("config_hash"),
                event_hash: hash("event_hash"),
            }
        })
        .collect();
    GridRun {
        grid_s: (last - start).as_secs_f64(),
        cell_s,
        rows,
        profile: std::fs::read_to_string(profile_sidecar_path(out)).unwrap_or_default(),
    }
}

/// Indices of cells whose row is missing, names another cell, or carries
/// a config hash other than the expansion's; with `pins`, also those whose
/// hashes differ from (or are missing in) the pinned ones.
pub fn failed_cells(cells: &[GridCell], run: &GridRun, pins: Option<&[Pin]>) -> BTreeSet<usize> {
    cells
        .iter()
        .filter(|c| {
            let Some(row) = run.rows.get(c.index) else {
                return true;
            };
            let pin_ok = pins.is_none_or(|p| {
                p.get(c.index).is_some_and(|(id, config, event)| {
                    *id == row.id && *config == row.config_hash && *event == row.event_hash
                })
            });
            row.id != c.id || row.config_hash != c.config_hash || !pin_ok
        })
        .map(|c| c.index)
        .collect()
}

/// Cells whose event hash differs between two runs of the same grid.
pub fn diverged(a: &GridRun, b: &GridRun) -> BTreeSet<usize> {
    (0..a.rows.len().max(b.rows.len()))
        .filter(|&i| a.rows.get(i) != b.rows.get(i))
        .collect()
}

/// Cells that differ only in `shard_budget_mb` must share an event hash:
/// the budget moves residency, never results. Returns every cell of a
/// group that disagrees.
pub fn budget_variant(run: &GridRun) -> BTreeSet<usize> {
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, row) in run.rows.iter().enumerate() {
        if row.id.contains("shard_budget_mb=") {
            let key: Vec<&str> = row
                .id
                .split('+')
                .filter(|part| !part.starts_with("shard_budget_mb="))
                .collect();
            groups.entry(key.join("+")).or_default().push(i);
        }
    }
    groups
        .values()
        .filter(|g| {
            g.iter()
                .any(|&i| run.rows[i].event_hash != run.rows[g[0]].event_hash)
        })
        .flatten()
        .copied()
        .collect()
}

/// Seconds one set-up pass takes: parse and expand the grid, then make
/// every cell's set-up calls in cell order.
pub fn setup_pass(text: &str) -> f64 {
    let start = Instant::now();
    let spec = GridSpec::parse(text).expect("frozen grid parses");
    let cells = spec.cells().expect("frozen grid expands");
    let mut tracer = Tracer::new();
    for cell in &cells {
        drop(cell_setup(&cell.spec.config, cell.index, &mut tracer));
    }
    start.elapsed().as_secs_f64()
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
