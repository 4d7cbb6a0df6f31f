//! The traced run: every cell again, with each layer's public calls made
//! one by one from here inside a span, plus the layer counters the run's
//! report carries. The crates themselves are not instrumented.
//!
//! Which end-to-end metric each layer metric should move, and where:
//!
//! | metrics | layer | moves | on | not on |
//! |---|---|---|---|---|
//! | `data.*` | `data` set-up calls (`data.aux_ms`: `auxiliary_data`, and `SemanticRegion::fit` on semantic cells), `ScenarioReport::shard_stats` | `grid_s`, `peak_rss_mb`, `setup_s` | cohort4096 | async-fedbuff (eager) |
//! | `trojan.*` | `core::trojan` | `setup_s`, `cell_s_p50` | CollaPois cells | other cells |
//! | `fl.*` | `fl::server` phases, via `ScenarioReport::profile` | `grid_s`, `cell_s_p50`/`p90` | train/aggregate: async-fedbuff; eval: cohort4096 | eval: async-fedbuff; train: cohort4096 |
//! | `eval.*` | `FlServer::evaluate_clients` on the final model | `grid_s` | cohort4096 | async-fedbuff |
//! | `analysis.cluster_ms` | `fl::metrics::cluster_analysis` | `cell_s_p50` | cohort4096 | async-fedbuff |
//! | `pool.*` | `runtime::pool`, via the profile | `grid_s` | async-fedbuff, cohort4096 | — |
//! | `sim.*` | `runtime::sim` + `fl::sim`, from `event_count` | `grid_s` | async-fedbuff | others |
//! | `nn.*` | `Model::train_batch_ws` / `forward_ws` at the workload's shapes | `fl.train_ms`, `fl.eval_ms` | async-fedbuff (train), cohort4096 (eval) | — |
//! | `grid.*` | `GridSpec::parse`, `run_grid` resume scan, `CellReport` | `setup_s` | all | — |
//! | `cell.other_ms` | cell wall minus all of the above (set-up timed in its own replay, so it can read just below zero) | what no layer explains yet | cohort4096 | — |
//! | `trace.*` | `trace.grid_s`: the traced pass's grid work, i.e. cell spans minus the replayed set-up and the standalone evaluation, rows written and synced as `run_grid` does; `trace.overhead_s`: that minus the untraced `grid_s` (one sample each, so host drift between the two passes can outweigh the tracer and make it negative) | tracing cost | — | — |
//!
//! `nn.*_gflop` are computed from the model shapes, not measured. The
//! eager backing has no shard LRU: its hit/miss/eviction tallies are 0 and
//! `data.shard_resident_mb` counts every client's splits. Those tallies
//! are timing dependent at more than one worker (parallel evaluation
//! reorders LRU accesses), so the traced run reports
//! `data.shard_miss_spread`, the summed per-cell gap to the untraced run's
//! misses, instead of matching them exactly. A hit ratio is left out: it
//! has no value on an eager workload, and every result value must be a
//! number.

use crate::e2e::GridRun;
use crate::setup::{cell_setup, CellSetup, SetupMs};
use crate::spans::Tracer;
use crate::stats::{median, time_per_call_us};
use crate::Metric;
use collapois_core::scenario::RunOptions;
use collapois_core::{Scenario, ScenarioConfig, ScenarioReport};
use collapois_data::poison::{BackdoorEval, TriggerBackdoor};
use collapois_fl::aggregate::FedAvg;
use collapois_fl::metrics::cluster_analysis;
use collapois_fl::personalize::NoPersonalization;
use collapois_fl::{FlConfig, FlServer};
use collapois_grid::report::{extract_raw_field, CellReport};
use collapois_grid::runner::{run_grid, GridRunOptions};
use collapois_grid::schema::{GridCell, GridSpec};
use collapois_nn::optim::Sgd;
use collapois_nn::tensor::Tensor;
use collapois_nn::workspace::Workspace;
use collapois_nn::zoo::ModelSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Share of a client's samples in its test split (`FederatedDataset`
/// splits 70/15/15).
const TEST_FRACTION: f64 = 0.15;

/// Per-layer totals over the cells of one traced pass.
#[derive(Default)]
struct Totals {
    setup: SetupMs,
    aux_samples: usize,
    fl_train: f64,
    fl_commit: f64,
    fl_aggregate: f64,
    fl_eval: f64,
    rounds: usize,
    dispatch: f64,
    barrier: f64,
    steals: u64,
    stolen_items: u64,
    shard_hits: u64,
    shard_misses: u64,
    shard_evictions: u64,
    shard_resident_mb: f64,
    /// Sum over cells of |traced − untraced| shard misses.
    shard_miss_gap: u64,
    eval_pass: f64,
    eval_points: usize,
    /// Sum over cells of evaluation points × standalone pass ms.
    eval_useful: f64,
    cluster: f64,
    events: u64,
    run_ms: f64,
    /// Cell spans minus the replayed set-up and the standalone evaluation:
    /// the grid's own work for the cell, with the tracer's cost.
    grid_ms: f64,
    report_ms: f64,
    report_bytes: usize,
    other_ms: f64,
    train_flop: f64,
    eval_flop: f64,
}

/// Runs the traced pass over `text`'s grid. `untraced` is the same grid's
/// untraced run, whose report at `report_path` is complete. Returns the
/// per-layer metrics and the cells whose traced run disagrees with the
/// untraced one or with its own set-up replay.
pub fn traced_run(
    text: &str,
    untraced: &GridRun,
    report_path: &Path,
    spans_path: &Path,
    host_line: &str,
) -> (Vec<Metric>, BTreeSet<usize>) {
    let mut t = Tracer::new();
    let parse_ms: Vec<f64> = (0..10)
        .map(|_| t.span("grid.parse", None, |_| GridSpec::parse(text)).1)
        .collect();
    let spec = GridSpec::parse(text).expect("frozen grid parses");
    let cells = spec.cells().expect("frozen grid expands");
    let workers = spec.default_workers.max(1);

    let mut sum = Totals::default();
    let mut failed = BTreeSet::new();
    // The traced pass writes and syncs its rows as `run_grid` does.
    let mut rows = std::fs::File::create(report_path.with_extension("traced.jsonl"))
        .expect("traced report file");
    let sidecar: Vec<&str> = untraced.profile.lines().collect();
    for cell in &cells {
        let i = cell.index;
        let ((ok, extra_ms), cell_ms) = t.span("cell", Some(i), |t| {
            trace_cell(t, cell, workers, untraced, &sidecar, &mut rows, &mut sum)
        });
        sum.grid_ms += cell_ms - extra_ms;
        if !ok {
            failed.insert(i);
        }
    }

    let (resume, resume_ms) = t.span("grid.resume_scan", None, |_| {
        run_grid(&spec, report_path, &GridRunOptions::default(), |_, _| {})
    });
    if resume.map_or(true, |o| o.executed != 0) {
        failed.extend(cells.iter().map(|c| c.index));
    }
    let (step_us, forward_us) = nn_micro(&cells[0].spec.config);

    let mut spans = std::fs::File::create(spans_path).expect("spans file");
    spans
        .write_all(format!("{host_line}\n").as_bytes())
        .and_then(|_| t.append_jsonl(&mut spans))
        .expect("write spans");

    let fl_total = sum.fl_train + sum.fl_commit + sum.fl_aggregate + sum.fl_eval;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { f64::NAN };
    let traced_grid_s = sum.grid_ms / 1e3;
    let metrics = vec![
        ("data.render_ms", sum.setup.render, "ms"),
        ("data.aux_ms", sum.setup.aux, "ms"),
        ("data.shard_hits", sum.shard_hits as f64, "count"),
        ("data.shard_misses", sum.shard_misses as f64, "count"),
        ("data.shard_evictions", sum.shard_evictions as f64, "count"),
        ("data.shard_resident_mb", sum.shard_resident_mb, "MB"),
        ("data.shard_miss_spread", sum.shard_miss_gap as f64, "count"),
        ("trojan.train_ms", sum.setup.trojan, "ms"),
        ("trojan.aux_samples", sum.aux_samples as f64, "count"),
        ("fl.train_ms", sum.fl_train, "ms"),
        ("fl.commit_ms", sum.fl_commit, "ms"),
        ("fl.aggregate_ms", sum.fl_aggregate, "ms"),
        ("fl.eval_ms", sum.fl_eval, "ms"),
        ("fl.rounds", sum.rounds as f64, "count"),
        ("eval.pass_ms", sum.eval_pass, "ms"),
        ("eval.points", sum.eval_points as f64, "count"),
        (
            "eval.useful_ratio",
            ratio(sum.eval_useful, sum.fl_eval),
            "ratio",
        ),
        ("analysis.cluster_ms", sum.cluster, "ms"),
        ("pool.dispatch_ms", sum.dispatch, "ms"),
        ("pool.barrier_ms", sum.barrier, "ms"),
        ("pool.barrier_share", ratio(sum.barrier, fl_total), "ratio"),
        ("pool.steals", sum.steals as f64, "count"),
        ("pool.stolen_items", sum.stolen_items as f64, "count"),
        ("sim.events", sum.events as f64, "count"),
        (
            "sim.events_per_s",
            ratio(sum.events as f64, sum.run_ms / 1e3),
            "1/s",
        ),
        ("nn.step_us", step_us, "us"),
        ("nn.forward_us", forward_us, "us"),
        ("nn.train_gflop", sum.train_flop / 1e9, "GFLOP-computed"),
        ("nn.eval_gflop", sum.eval_flop / 1e9, "GFLOP-computed"),
        ("grid.parse_ms", median(&parse_ms), "ms"),
        ("grid.resume_scan_ms", resume_ms, "ms"),
        ("grid.report_ms", sum.report_ms, "ms"),
        ("grid.report_bytes", sum.report_bytes as f64, "bytes"),
        ("cell.other_ms", sum.other_ms, "ms"),
        ("trace.grid_s", traced_grid_s, "s"),
        ("trace.overhead_s", traced_grid_s - untraced.grid_s, "s"),
    ];
    (metrics, failed)
}

/// One traced cell. Returns whether the traced run matched the untraced
/// one (event hash) and the set-up replay matched the run (compromised
/// set, Trojan, final evaluation), and the ms spent outside the grid's
/// own work (the set-up replay and the standalone evaluation).
fn trace_cell(
    t: &mut Tracer,
    cell: &GridCell,
    workers: usize,
    untraced: &GridRun,
    sidecar: &[&str],
    rows: &mut File,
    sum: &mut Totals,
) -> (bool, f64) {
    let i = cell.index;
    let cfg = &cell.spec.config;
    let (
        (
            CellSetup {
                fed,
                compromised,
                aux,
                trigger,
                trojan,
                semantic,
            },
            ms,
        ),
        setup_ms,
    ) = t.span("setup", Some(i), |t| cell_setup(cfg, i, t));

    // The same options `run_grid` runs a cell with.
    let run_opts = RunOptions {
        workers,
        fault: cell.spec.fault,
        sim: cell.spec.sim_enabled.then_some(cell.spec.sim),
        ..RunOptions::default()
    };
    let (report, run_ms) = t.span("cell.run", Some(i), |_| {
        Scenario::new(cfg.clone()).run_with(&run_opts)
    });
    let (row, report_ms) = t.span("grid.report", Some(i), |_| {
        CellReport::from_run(cell, &report).to_json()
    });
    t.span("grid.write", Some(i), |_| {
        rows.write_all(row.as_bytes())
            .and_then(|_| rows.write_all(b"\n"))
            .and_then(|_| rows.flush())
            .and_then(|_| rows.sync_data())
            .expect("write traced row");
    });

    // One standalone evaluation pass of the final global model, over the
    // set-up's dataset (a lazy cohort's shards as warm as set-up left
    // them). SCAFFOLD and FedAvg both evaluate the global model
    // unpersonalized.
    let resident_bytes = match report.shard_stats {
        Some(s) => s.resident_bytes,
        None => (0..fed.num_clients())
            .map(|c| fed.client(c).heap_bytes())
            .sum(),
    };
    let ((clients, clusters, pass_ms, cluster_ms), extra_ms) =
        t.span("eval.standalone", Some(i), |t| {
            let spec = cfg.model_spec();
            let trigger_eval = TriggerBackdoor(trigger.as_ref());
            let backdoor: &dyn BackdoorEval = match &semantic {
                Some(region) => region,
                None => &trigger_eval,
            };
            let mut server = FlServer::new(
                fl_config(cfg),
                fed,
                Box::new(FedAvg::new()),
                Box::new(NoPersonalization::new()),
            );
            server.set_workers(workers);
            server.set_global(&report.final_global);
            let (clients, pass_ms) = t.span("eval.pass", Some(i), |_| {
                server.evaluate_clients(&spec, backdoor, cfg.trojan.target_class, &compromised)
            });
            let (clusters, cluster_ms) = t.span("analysis.cluster", Some(i), |_| {
                if compromised.is_empty() {
                    Vec::new()
                } else {
                    cluster_analysis(server.dataset(), &clients, &aux)
                }
            });
            (clients, clusters, pass_ms, cluster_ms)
        });

    let p = &report.profile;
    sum.setup.render += ms.render;
    sum.setup.aux += ms.aux;
    sum.setup.trojan += ms.trojan;
    if trojan.is_some() {
        sum.aux_samples += aux.len();
    }
    sum.fl_train += p.train_ms;
    sum.fl_commit += p.commit_ms;
    sum.fl_aggregate += p.aggregate_ms;
    sum.fl_eval += p.eval_ms;
    sum.rounds += p.rounds;
    sum.dispatch += p.dispatch_ms;
    sum.barrier += p.barrier_ms;
    sum.steals += p.steals;
    sum.stolen_items += p.stolen_items;
    sum.shard_resident_mb = sum.shard_resident_mb.max(resident_bytes as f64 / 1048576.0);
    if let Some(s) = report.shard_stats {
        sum.shard_hits += s.hits;
        sum.shard_misses += s.misses;
        sum.shard_evictions += s.evictions;
        let untraced_misses = sidecar
            .get(i)
            .and_then(|l| extract_raw_field(l, "shard_misses"))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        sum.shard_miss_gap += s.misses.abs_diff(untraced_misses);
    }
    // Each evaluation point is one pass; the run makes one more for the
    // final client metrics.
    let points = report.rounds.len();
    sum.eval_pass += pass_ms;
    sum.eval_points += points;
    sum.eval_useful += points as f64 * pass_ms;
    sum.cluster += cluster_ms;
    sum.events += report.event_count;
    sum.run_ms += run_ms;
    sum.report_ms += report_ms;
    sum.report_bytes += row.len() + 1;
    // A lazy cohort renders its shards inside the profiled phases, so only
    // an eager render is set-up time the profile does not already hold.
    let render_in_run = if cfg.uses_lazy_cohort() {
        0.0
    } else {
        ms.render
    };
    sum.other_ms += run_ms
        - (render_in_run + ms.aux + ms.trojan)
        - (p.train_ms + p.commit_ms + p.aggregate_ms + p.eval_ms)
        - cluster_ms;
    let per_round = if cell.spec.sim_enabled {
        cell.spec.sim.buffer_k as f64
    } else {
        (cfg.num_clients as f64 * cfg.sample_rate).round()
    };
    let (train_flop, eval_flop) = computed_flop(cfg, &report, per_round);
    sum.train_flop += train_flop;
    sum.eval_flop += eval_flop;

    let ok = untraced.rows.get(i).map(|r| r.event_hash) == Some(report.event_hash)
        && compromised == report.compromised
        && trojan.as_ref().map(|x| &x.params) == report.trojan.as_ref().map(|x| &x.params)
        && clients == report.clients
        && clusters == report.clusters;
    (ok, setup_ms + extra_ms)
}

fn fl_config(cfg: &ScenarioConfig) -> FlConfig {
    FlConfig {
        model: cfg.model_spec(),
        rounds: cfg.rounds,
        local_steps: cfg.local_steps,
        batch_size: cfg.batch_size,
        client_lr: cfg.client_lr,
        server_lr: cfg.server_lr,
        sample_rate: cfg.sample_rate,
        seed: cfg.seed,
        eval_every: cfg.eval_every,
        quantization: cfg.quantization,
    }
}

/// Multiply-accumulates of one forward pass of one sample.
fn mlp_macs(spec: &ModelSpec) -> f64 {
    let ModelSpec::Mlp {
        input,
        hidden,
        classes,
    } = spec
    else {
        panic!("computed FLOP counts cover MLP workloads only");
    };
    let widths: Vec<usize> = std::iter::once(*input)
        .chain(hidden.iter().copied())
        .chain(std::iter::once(*classes))
        .collect();
    widths.windows(2).map(|w| (w[0] * w[1]) as f64).sum()
}

/// FLOPs the cell's training and evaluation imply, computed from the
/// model shapes (2 per MAC forward, 4 per MAC backward): each of
/// `per_round` clients runs `local_steps` batches every round (a sim
/// flush counts as a round of `buffer_k` clients), and each evaluation
/// pass runs every benign client's test split twice (clean and
/// backdoored).
fn computed_flop(cfg: &ScenarioConfig, report: &ScenarioReport, per_round: f64) -> (f64, f64) {
    let macs = mlp_macs(&cfg.model_spec());
    let train_samples =
        report.profile.rounds as f64 * per_round * (cfg.local_steps * cfg.batch_size) as f64;
    let benign = (cfg.num_clients - report.compromised.len()) as f64;
    let passes = (report.rounds.len() + 1) as f64;
    let eval_samples = passes * benign * cfg.samples_per_client as f64 * TEST_FRACTION * 2.0;
    (train_samples * 6.0 * macs, eval_samples * 2.0 * macs)
}

/// Median µs of one `train_batch_ws` step at the cell's batch size and of
/// one `forward_ws` pass over a client-sized test split, on random data.
fn nn_micro(cfg: &ScenarioConfig) -> (f64, f64) {
    let spec = cfg.model_spec();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = spec.build(&mut rng);
    let mut batch = |n: usize| {
        let mut shape = vec![n];
        shape.extend(spec.input_shape());
        let len: usize = shape.iter().product();
        let x: Vec<f32> = (0..len).map(|_| rng.gen_range(0.0..1.0) as f32).collect();
        let y: Vec<usize> = (0..n).map(|k| k % spec.classes()).collect();
        (Tensor::from_vec(x, &shape), y)
    };
    let (x, y) = batch(cfg.batch_size);
    let eval_n = (cfg.samples_per_client as f64 * TEST_FRACTION).ceil() as usize;
    let (xe, _) = batch(eval_n.max(1));
    let mut ws = Workspace::new();
    let mut opt = Sgd::new(cfg.client_lr);
    let step_us = time_per_call_us(9, 200, || {
        model.train_batch_ws(&x, &y, &mut opt, &mut ws);
    });
    let forward_us = time_per_call_us(9, 200, || {
        model.forward_ws(&xe, &mut ws, false);
    });
    (step_us, forward_us)
}
