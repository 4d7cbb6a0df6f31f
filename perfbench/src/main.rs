//! Benchmark of the scenario grid, from TOML cell to JSONL row.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a frozen grid under `workloads/`, run through the
//! public entry point (`GridSpec::parse` then `run_grid`) with `seed` in
//! `[base]` replaced by `--seed`. With `--trace 0` whole untraced grids
//! repeat for at least `--seconds`, the first ones alternating with three
//! set-up passes (the set-up calls on their own); `grid_s` and the cell
//! times take the fastest repetition, `setup_s` the median pass. With
//! `--trace 1` one untraced run is followed by a traced
//! pass that calls each layer from this package (see `layers`), and the
//! per-layer metrics are printed; spans go to `.bench_out/`.
//!
//! Every cell's row is checked: present, for the expected cell and config
//! hash, with the hashes in `pinned/` at the pinned seed, identical across
//! repeated and traced runs, and shard-budget invariant. The last stdout
//! line is `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, with
//! `attempted` the grid's cells and `failed` those failing any check.

mod e2e;
mod layers;
mod setup;
mod spans;
mod stats;
mod workload;

use collapois_grid::schema::GridSpec;
use collapois_nn::kernels;
use stats::{fastest, median, quantile};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::PINNED_SEED;

/// Name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Directory (in the working directory) for reports and spans.
const OUT_DIR: &str = ".bench_out";

/// Fewest set-up passes per untraced run; `setup_s` is their median.
const MIN_SETUP_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 10,
        trace: false,
    };
    for pair in argv.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("option {} needs a value", pair[0]));
        };
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{key} {value}: {e}"))
        };
        match key.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown option {key}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload::find(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} ({})",
            args.workload,
            names.join("|")
        );
        return ExitCode::from(2);
    };
    let text = wl.seeded_toml(args.seed);
    let spec = match GridSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", wl.name);
            return ExitCode::from(2);
        }
    };
    let cells = spec.cells().expect("parsed grid expands");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = spec.default_workers.max(1);
    if workers > nproc {
        eprintln!(
            "perfbench: {} runs {workers} workers but this host has {nproc} cores",
            wl.name
        );
        return ExitCode::from(2);
    }
    let host = format!(
        "{{\"host\":{{\"nproc\":{nproc},\"kernel_tier\":\"{:?}\",\"cpu_features\":\"{}\",\"workload\":\"{}\",\"workers\":{workers},\"seed\":{},\"trace\":{}}}}}",
        kernels::active_tier(),
        kernels::cpu_features(),
        wl.name,
        args.seed,
        args.trace,
    );
    println!("{host}");

    std::fs::create_dir_all(OUT_DIR).expect("create output directory");
    let stem = format!("{OUT_DIR}/{}-seed{}", wl.name, args.seed);
    let report = format!("{stem}.jsonl");
    let report = Path::new(&report);
    let pins = wl.pins();
    let pins = (args.seed == PINNED_SEED).then_some(pins.as_slice());

    let started = Instant::now();
    let first = e2e::run_untraced(&spec, report);
    let mut failed: BTreeSet<usize> = e2e::failed_cells(&cells, &first, pins);
    failed.extend(e2e::budget_variant(&first));

    let metrics: Vec<Metric> = if args.trace {
        let spans = format!("{stem}.spans.jsonl");
        let (metrics, traced_failed) =
            layers::traced_run(&text, &first, report, Path::new(&spans), &host);
        failed.extend(traced_failed);
        metrics
    } else {
        // The peak of one grid in a fresh process, before any set-up pass
        // leaves memory with the allocator.
        let peak_rss_mb = e2e::peak_rss_mb();
        // Grid repetitions fill `--seconds`; the first few alternate with
        // the set-up passes so both sample the same stretch of host load.
        let seconds = Duration::from_secs(args.seconds);
        let mut runs = vec![first];
        let mut setup = Vec::new();
        while setup.len() < MIN_SETUP_PASSES || started.elapsed() < seconds {
            if setup.len() < MIN_SETUP_PASSES {
                setup.push(e2e::setup_pass(&text));
            }
            if started.elapsed() < seconds {
                let run = e2e::run_untraced(&spec, report);
                failed.extend(e2e::diverged(&runs[0], &run));
                runs.push(run);
            }
        }
        // Host load only ever adds time, so each figure takes the fastest
        // repetition: of the whole grid, and of each cell on its own.
        let grid: Vec<f64> = runs.iter().map(|r| r.grid_s).collect();
        let cell: Vec<f64> = (0..cells.len())
            .map(|i| fastest(runs.iter().filter_map(|r| r.cell_s.get(i).copied())))
            .collect();
        println!(
            "{{\"samples\":{{\"grid_reps\":{},\"cells\":{},\"setup_passes\":{},\"grid_s\":{grid:?},\"setup_s\":{setup:?}}}}}",
            grid.len(),
            cell.len(),
            setup.len(),
        );
        vec![
            ("grid_s", fastest(grid.iter().copied()), "s"),
            ("cell_s_p50", median(&cell), "s"),
            ("cell_s_p90", quantile(&cell, 0.9), "s"),
            ("setup_s", median(&setup), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // A metric with no samples (a grid that failed) prints as null.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed.is_empty(),
        cells.len(),
        failed.len(),
        body.join(","),
    );
    ExitCode::SUCCESS
}
